"""The benchmark's own output checks, run over one rotation of each workload.

``perfbench/workloads.py`` is loaded by file path under a private name, as
``_oracle`` loads ``dense.py``, so no benchmark module joins the import path;
its lazy ``import dense`` is served the oracle's copy. The test reads the
benchmark's files and writes none of its results. The ``sweep`` check reads
each ``Ensemble.branches`` entry's ``probability``, ``bell_34``, ``bell_12``
and ``third_pair``, so it pins those names while the check reads them.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import _oracle as oracle

_spec = importlib.util.spec_from_file_location(
    "_benchmark_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# (workload, its arguments, ops in one rotation): exact's seven kinds, three
# sweep points (op 0 is also compared with the dense evaluation), and sample's
# A.T and G.C at 10**5 shots.
ROTATIONS = {
    "exact": ({}, 7),
    "sweep": ({}, 3),
    "sample": ({"shots": 10**5}, 2),
}


@pytest.mark.parametrize("name", sorted(ROTATIONS))
def test_every_op_of_one_rotation_passes_its_check(name, monkeypatch):
    monkeypatch.setitem(sys.modules, "dense", oracle.dense)
    kwargs, ops = ROTATIONS[name]
    workload = workloads.WORKLOADS[name](seed=1, **kwargs)
    for i in range(ops):
        inp = workload.input(i)
        assert workload.check(i, inp, workload.run(inp)), f"{name} op {i} failed its check"

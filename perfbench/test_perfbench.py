"""Self-test of the benchmark: ``python3 -m pytest perfbench``.

Runs every workload at a tiny size and checks that each metric named in
BENCHMARK.json is emitted with its unit, that corrupted or failing ops are
counted as failed, that trace call counts repeat exactly, and that the
benchmark refuses to run without the dnaswap sources.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_SHOTS = 20_000
TINY_SECONDS = 0.3


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def units(record: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in record["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(workload):
    record = run.measure(workload, 3, TINY_SECONDS, False, TINY_SHOTS)
    assert record["correct"] and record["attempted"] >= 1 and record["failed"] == 0
    assert units(record) == {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_per_layer_metrics_emitted_with_units():
    record = run.measure("exact", 3, TINY_SECONDS, True, TINY_SHOTS)
    assert record["correct"]
    assert units(record) == {m["name"]: m["unit"] for m in spec()["per_layer"]}


def corrupt_exact(out: str) -> str:
    if '"overall": true' in out:
        return out.replace('"overall": true', '"overall": false')
    return out.replace("0.", "0.9", 1)


def corrupt_sweep(out):
    (ens, rows), *rest = out
    bad = dataclasses.replace(rows[0], probability=rows[0].probability + 1e-6)
    return [(ens, [bad, *rows[1:]]), *rest]


def corrupt_sample(out: str) -> str:
    head, count = out.rstrip("\r\n").rsplit(",", 1)
    return f"{head},{int(count) + 1}\r\n"


@pytest.mark.parametrize("name,corrupt", [
    ("exact", corrupt_exact), ("sweep", corrupt_sweep), ("sample", corrupt_sample)])
def test_corrupted_output_counts_as_failed(name, corrupt):
    workload = WORKLOADS[name](5, TINY_SHOTS)
    clean = worker.Tally(workload)
    worker.loop(workload, clean, 0, 0.0)
    assert clean.attempted == workload.cycle and clean.failed == 0

    run_op = workload.run
    workload.run = lambda inp: corrupt(run_op(inp))
    tally = worker.Tally(workload)
    worker.loop(workload, tally, 0, 0.0)
    assert tally.failed == tally.attempted == workload.cycle


def test_changed_repeat_output_counts_as_failed():
    workload = WORKLOADS["exact"](5)
    tally = worker.Tally(workload)
    worker.loop(workload, tally, 0, 0.0)
    run_op = workload.run
    workload.run = lambda inp: run_op(inp) + " "
    worker.loop(workload, tally, workload.cycle, 0.0)
    assert tally.failed == workload.cycle and tally.attempted == 2 * workload.cycle


def test_raising_op_counts_as_failed():
    workload = WORKLOADS["exact"](5)

    def boom(inp):
        raise RuntimeError("injected")

    workload.run = boom
    tally = worker.Tally(workload)
    worker.loop(workload, tally, 0, 0.0)
    assert tally.failed == tally.attempted == workload.cycle


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_call_counts_repeat_across_seeds(name):
    counts = []
    for seed in (1, 2):
        workload = WORKLOADS[name](seed, TINY_SHOTS)
        tracer = Tracer()
        with tracer.installed():
            timed = worker.loop(workload, worker.Tally(workload), 0, 0.0, tracer)
        metrics, _ = worker.per_layer(workload, tracer, timed, timed)
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert all(counts[0][f"{span}.calls"] > 0 for span in WORKLOADS[name].spans)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *spec()["command"][1:], "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

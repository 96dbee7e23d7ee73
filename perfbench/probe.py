"""Fixed-work speed probes, for reporting times at a reference machine speed.

The shared hosts this benchmark runs on change speed by up to 1.6x over
minutes, for reasons outside the VM: no steal time shows and a busy sibling
vCPU does not cause it. Every workload process therefore runs a probe after
each op and right after its set-up. A time t is reported as
t * REF / (median probe time around it): its value on a machine where the
probe takes REF. Each workload uses the probe whose work resembles its own,
because the two kinds of work slow down by different amounts:

- ``python``: interpreter-bound small-array numpy calls and dict churn, as
  in the exact protocol path.
- ``bulk``: a vectorised draw/search/count over 1e6 elements, as in the
  sampler.

Neither calls dnaswap, so a change to dnaswap moves the scaled times and
leaves the probes alone.
"""
from __future__ import annotations

import time

import numpy as np

_EDGES = np.linspace(0.0, 1.0, 17)


def _python() -> int:
    u = np.random.Generator(np.random.Philox(key=7)).random(8_000)
    acc = int(np.bincount(np.searchsorted(_EDGES, u), minlength=18).sum())
    v = np.arange(8, dtype=complex)
    for _ in range(5):
        m = np.kron(v, v[:2]).reshape(2, 2, 2, 2)
        t = np.moveaxis(np.tensordot(np.eye(2), m, axes=([1], [0])), 0, 2)
        acc += int(np.linalg.norm(t) > 0) + len({str(k): k for k in range(8)})
    return acc


def _bulk() -> int:
    u = np.random.Generator(np.random.Philox(key=3)).random(1_000_000)
    idx = np.searchsorted(_EDGES, u)
    return int(np.bincount(idx[idx > 7], minlength=17).sum())


# kind -> (work, REF: the probe's time in ms on the reference machine)
PROBES = {"python": (_python, 1.0), "bulk": (_bulk, 60.0)}


def probe_ns(kind: str) -> int:
    """Wall ns of one fixed unit of probe work."""
    work = PROBES[kind][0]
    start = time.perf_counter_ns()
    work()
    return time.perf_counter_ns() - start


def ref_ns(kind: str) -> float:
    return PROBES[kind][1] * 1e6

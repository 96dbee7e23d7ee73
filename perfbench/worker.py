"""One workload in one fresh process: set up, warm up, then a timed loop.

Started by run.py, which times set-up from spawning this process to the
``ready`` line (printed after ``import dnaswap.cli`` and one untimed warm-up
op). The loop is closed: one caller, no threads, the next op starts when the
previous one returns. The last stdout line is a JSON summary.

Modes: ``setup`` exits after ``ready``; ``run`` measures the untraced loop;
``trace`` measures an untraced quarter of the seconds, then a traced quarter
for the per-layer numbers and, for a workload with shots, one op under
tracemalloc. Speed probes (probe.py) run after every op, outside the timer.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import probe

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TRACEBACKS_SHOWN = 3
WINDOW_PROBES = 20
# About this much probing (at reference speed) follows set-up.
SETUP_PROBE_NS = 100e6


class Tally:
    """Ops attempted and failed, with the first output seen for each input."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self._first: dict = {}

    def record(self, i: int, inp, out, error: BaseException | None) -> None:
        """Count one op; outputs of a repeated input must equal the first."""
        self.attempted += 1
        ok = error is None
        if ok:
            first = self._first.get(inp)
            if first is not None and isinstance(out, str):
                ok = first[1] and out == first[0]
            else:
                try:
                    ok = bool(self.workload.check(i, inp, out))
                except Exception as exc:  # a malformed output fails its check
                    ok, error = False, exc
                if isinstance(out, str):
                    self._first.setdefault(inp, (out, ok))
        if not ok:
            self.failed += 1
            if self.failed <= TRACEBACKS_SHOWN:
                detail = "".join(traceback.format_exception(error)) if error else "check failed"
                print(f"{self.workload.name} op {i} input {inp!r}: {detail}", file=sys.stderr)


def run_op(workload, i: int):
    """Run op i; returns (input, output, error, elapsed ns)."""
    inp = workload.input(i)
    start = time.perf_counter_ns()
    try:
        out, error = workload.run(inp), None
    except Exception as exc:  # counted as a failed op, the loop goes on
        out, error = None, exc
    return inp, out, error, time.perf_counter_ns() - start


def loop(workload, tally: Tally, first: int, seconds: float,
         tracer=None) -> tuple[list[int], list[int]]:
    """Run whole cycles of ops, at least one, from index ``first`` for
    ``seconds``, with ``workload.probes`` speed probes after each op;
    returns (op ns, probe ns)."""
    op_ns: list[int] = []
    probe_ns: list[int] = []
    deadline = time.perf_counter() + seconds
    i = first
    while i == first or (i - first) % workload.cycle or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = i
        inp, out, error, ns = run_op(workload, i)
        op_ns.append(ns)
        probe_ns.extend(probe.probe_ns(workload.probe) for _ in range(workload.probes))
        tally.record(i, inp, out, error)
        i += 1
    return op_ns, probe_ns


def factor(kind: str, probe_ns: list[int]) -> float:
    """Scale from measured times to times at the probe's reference speed."""
    return probe.ref_ns(kind) / statistics.median(probe_ns)


def at_reference(workload, op_ns: list[int], probe_ns: list[int]) -> list[float]:
    """Each op's ns at reference speed, scaled by the median of the probes
    run after the ops within ``k`` of it (about WINDOW_PROBES probes), so a
    change in host speed during the loop is followed."""
    per_op = workload.probes
    k = max(1, WINDOW_PROBES // (2 * per_op))
    return [ns * factor(workload.probe, probe_ns[max(0, i - k) * per_op:(i + k + 1) * per_op])
            for i, ns in enumerate(op_ns)]


def rate(op_ns) -> float:
    """Ops per second over the whole loop: op count over summed op time."""
    return len(op_ns) / sum(op_ns) * 1e9


def tail(op_ms: list[float]) -> tuple[int, float | None]:
    """Highest whole percentile with at least ten samples beyond it, capped
    at 99; (0, None) when there are too few samples for any."""
    n = len(op_ms)
    pct = min(99, int(100 * (n - 10) / n)) if n > 10 else 0
    if pct < 1:
        return 0, None
    return pct, statistics.quantiles(op_ms, n=100, method="inclusive")[pct - 1]


def summarize(workload, op_ns: list[int], probe_ns: list[int]) -> dict:
    """End-to-end figures at reference speed, and the measured ones."""
    ref_ms = [ns / 1e6 for ns in at_reference(workload, op_ns, probe_ns)]
    pct, tail_ms = tail(ref_ms)
    c = workload.cycle
    # The median is taken over whole rotation cycles, so that every sample
    # holds the same op mix; a per-op median of the exact rotation jumps
    # between the clusters of its seven op kinds.
    cycle_ms = [sum(ref_ms[i:i + c]) / c for i in range(0, len(ref_ms), c)]
    out = {
        "ops": len(op_ns),
        "probe_ms": statistics.median(probe_ns) / 1e6,
        "ops_per_s": len(ref_ms) / sum(ref_ms) * 1e3,
        "op_p50_ms": statistics.median(cycle_ms),
        "op_tail_pct": pct,
        "op_tail_ms": tail_ms,
        "measured_ops_per_s": rate(op_ns),
        "measured_op_p50_ms": statistics.median(op_ns) / 1e6,
    }
    shots = getattr(workload, "shots", None)
    if shots:
        out["shots_per_s"] = out["ops_per_s"] * shots
    return out


def per_layer(workload, tracer, timed: tuple[list[int], list[int]],
              untraced: tuple[list[int], list[int]]) -> tuple[dict, dict]:
    """Per-op self ms (at reference speed) and calls for the workload's
    spans, and the same for every span seen."""
    op_ns, probe_ns = timed
    ops, f = len(op_ns), factor(workload.probe, probe_ns)
    totals = tracer.self_times()
    spans = {name: {"self_ms": ns / ops / 1e6 * f, "calls": calls / ops}
             for name, (calls, ns) in sorted(totals.items())}
    metrics = {}
    for name in workload.spans:  # a span the code no longer enters reads 0
        for key, value in spans.get(name, {"self_ms": 0.0, "calls": 0.0}).items():
            metrics[f"{name}.{key}"] = value
    metrics["trace.coverage"] = sum(ns for _, ns in totals.values()) / sum(op_ns)
    metrics["trace.overhead"] = (rate(at_reference(workload, *untraced))
                                 / rate(at_reference(workload, *timed)))
    return metrics, spans


def bytes_per_shot(workload, tally: Tally, i: int) -> float:
    """Traced-allocation peak of one op divided by its shot count."""
    import tracemalloc

    tracemalloc.start()
    try:
        inp, out, error, _ = run_op(workload, i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.record(i, inp, out, error)
    return peak / workload.shots


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--shots", type=int, default=None, help="override for self-tests")
    parser.add_argument("--spans", default=None, help="CSV file for the traced spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import dnaswap.cli

    if not os.path.abspath(dnaswap.cli.__file__).startswith(SRC + os.sep):
        print(f"dnaswap imported from {dnaswap.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.shots)
    warm = run_op(workload, 0)
    print("ready", flush=True)
    # Probes right after set-up, for run.py to scale this process's set-up time.
    setup_probes = math.ceil(SETUP_PROBE_NS / probe.ref_ns(workload.probe))
    result = {"probe": workload.probe,
              "setup_probe_ns": [probe.probe_ns(workload.probe) for _ in range(setup_probes)]}
    if args.mode == "setup":
        print(json.dumps(result), flush=True)
        return 0

    tally = Tally(workload)
    tally.record(0, *warm[:3])
    result.update(numpy=probe.np.__version__, python=sys.version.split()[0],
                  dnaswap=os.path.dirname(dnaswap.cli.__file__))
    if args.mode == "run":
        result.update(summarize(workload, *loop(workload, tally, 0, args.seconds)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracing import Tracer

        plain = loop(workload, tally, 0, args.seconds / 4)
        tracer = Tracer()
        with tracer.installed():
            traced = loop(workload, tally, len(plain[0]), args.seconds / 4, tracer)
        result["per_layer"], result["spans"] = per_layer(workload, tracer, traced, plain)
        result["traced_ops"] = len(traced[0])
        if getattr(workload, "shots", None):
            result["per_layer"]["protocol.sample.bytes_per_shot"] = bytes_per_shot(
                workload, tally, len(plain[0]) + len(traced[0]))
        if args.spans:
            tracer.write(args.spans)
    result.update(attempted=tally.attempted, failed=tally.failed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

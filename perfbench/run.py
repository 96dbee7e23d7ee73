"""dnaswap benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {exact,sweep,sample} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` spawns the workload worker SETUP_SPAWNS times to time set-up
(median), measures the last worker's closed loop for S seconds, and prints
the end-to-end metrics. ``--trace 1`` prints the per-layer metrics: import
times of a fresh interpreter, then every workload once more in its own
process with an untraced and a traced quarter of S seconds, so each traced
run reports the layers of all three workloads under ``<workload>.`` names.
Times are scaled to the reference speed of probe.py.
``--workload all`` runs every workload in turn, for reading by hand; it
prints one result line per workload.

Human-readable lines come first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. The full record, with the
environment, goes to perfbench/results/. Exit code 1 means an output check
failed, 2 that the benchmark could not run (for example no ``src/dnaswap``).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("exact", "sweep", "sample")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SPAWNS = 5
IMPORT_SPAWNS = 7
IMPORTS = {
    "baseline.python_s": "pass",
    "baseline.numpy_import_s": "import numpy",
    "cli.import_s": "import dnaswap.cli",
}
# Each child must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150
END_TO_END = ("ops_per_s", "op_p50_ms", "peak_rss_mb", "setup_s")
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def unit(name: str) -> str:
    """Unit of an end-to-end or per-layer metric, from its name."""
    if name in UNITS:
        return UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"self_ms": "ms", "calls": "count", "coverage": "ratio", "overhead": "ratio",
            "bytes_per_shot": "B"}.get(suffix, "s")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def spawn(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[float, str]:
    """Run a child; return (seconds from spawn to its first stdout line, the
    last stdout line). A child that fails or overruns raises BenchError."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        first_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"{' '.join(args)} exited with {code}")
    lines = (first + rest).strip().splitlines()
    return first_s, lines[-1] if lines else ""


def worker(workload: str, seed: int, seconds: float, mode: str,
           shots: int | None = None, spans: str | None = None) -> tuple[float, dict]:
    args = [WORKER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--mode", mode]
    if shots is not None:
        args += ["--shots", str(shots)]
    if spans is not None:
        args += ["--spans", spans]
    setup_s, last = spawn(args)
    return setup_s, json.loads(last)


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned": {var: "1" for var in THREAD_VARS},
        "seed": seed,
    }


def end_to_end(workload: str, seed: int, seconds: float, shots: int | None) -> dict:
    """Set-up time of SETUP_SPAWNS fresh workers, each scaled to reference
    speed by the probes that worker ran right after set-up; the last worker
    also runs the timed loop."""
    setups, scaled = [], []
    for n in range(SETUP_SPAWNS):
        setup_s, res = worker(workload, seed, seconds,
                              "run" if n == SETUP_SPAWNS - 1 else "setup", shots)
        setups.append(setup_s)
        scaled.append(setup_s * probe.ref_ns(res["probe"])
                      / statistics.median(res["setup_probe_ns"]))
    res["measured_setup_s"] = statistics.median(setups)
    res["setup_s"] = statistics.median(scaled)
    res["setup_samples_s"] = setups
    return res


def traced(seed: int, seconds: float, shots: int | None) -> dict:
    """Per-layer metrics of every workload, plus fresh-interpreter imports."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_SPAWNS):  # interleaved, so drift hits all three alike
        for name, code in IMPORTS.items():
            start = time.perf_counter()
            spawn(["-c", code])
            samples[name].append(time.perf_counter() - start)
    res = {"metrics": {name: statistics.median(v) for name, v in samples.items()},
           "import_samples_s": samples, "workloads": {}, "attempted": 0, "failed": 0}
    for workload in WORKLOAD_NAMES:
        spans = os.path.join(RESULTS, f"spans-{workload}-seed{seed}.csv")
        _, sub = worker(workload, seed, seconds, "trace", shots, spans)
        res["workloads"][workload] = sub
        res["attempted"] += sub["attempted"]
        res["failed"] += sub["failed"]
        for name, value in sub["per_layer"].items():
            res["metrics"][f"{workload}.{name}"] = value
    res["numpy"] = sub["numpy"]
    return res


def measure(workload: str, seed: int, seconds: float, trace: bool,
            shots: int | None = None) -> dict:
    """Run one benchmark invocation; the full record, metrics with units."""
    os.makedirs(RESULTS, exist_ok=True)
    spawn(["-c", "import dnaswap.cli"])  # writes bytecode caches before any timing
    if trace:
        res = traced(seed, seconds, shots)
        metrics = res.pop("metrics")
    else:
        res = end_to_end(workload, seed, seconds, shots)
        metrics = {name: res[name] for name in END_TO_END}
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "env": {**environment(seed), "numpy": res.get("numpy")},
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in metrics.items()},
        "detail": res,
    }
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def report(record: dict) -> None:
    """Human-readable lines: environment, metrics, and what backs each one."""
    env, detail = record["env"], record["detail"]
    print(f"# env python {env['python']} numpy {env['numpy']} cpu {env['cpu']!r} "
          f"nproc {env['nproc']} affinity {env['affinity']} seed {env['seed']} "
          f"pinned {','.join(env['pinned'])}=1")
    if not record["trace"]:
        print(f"# {record['workload']}: ops_per_s and op_p50_ms over {detail['ops']} timed ops; "
              f"setup_s median of {len(detail['setup_samples_s'])} spawns")
        if detail["op_tail_pct"]:
            print(f"{record['workload']} op_p{detail['op_tail_pct']}_ms "
                  f"{detail['op_tail_ms']:.6g} ms (over {detail['ops']} ops, at least 10 beyond)")
        if "shots_per_s" in detail:
            print(f"{record['workload']} shots_per_s {detail['shots_per_s']:.6g} 1/s")
    fail_ratio = record["failed"] / max(1, record["attempted"])
    print(f"{record['workload']} fail_ratio {fail_ratio:.6g} "
          f"({record['failed']} of {record['attempted']} ops)")
    for name, m in record["metrics"].items():
        print(f"{record['workload']} {name} {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dnaswap benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dnaswap", "__init__.py")):
        print(f"error: no dnaswap sources under {SRC}", file=sys.stderr)
        return 2
    # A traced run already covers every workload.
    names = WORKLOAD_NAMES if args.workload == "all" and not args.trace else (args.workload,)
    correct = True
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(record)
        correct = correct and record["correct"]
        print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                       "metrics")}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The stdlens benchmark: one closed-loop workload per run.

Usage, from the root of a checkout (no install needed; ``src`` is put on
the import path here):

    python3 perfbench/run.py --workload fed-defended --seed 1 --seconds 15 --trace 0

A run sets the workload up several times (``setup_s`` is the import time
plus the median set-up), then runs ops back to back, in whole cycles of
the workload's distinct inputs, for about ``--seconds`` seconds, checking
every op's output. With ``--trace 1`` it afterwards runs one traced op per
distinct input and reports the per-layer metrics; ``trace_overhead_ratio``
compares each traced op with the median untraced op on the same input.
The spans go to ``perfbench/out/``.

Standard output ends with two JSON lines: a full report (environment,
every metric with its unit, op counts, revocation quality, failures), and
last the result record ``{"correct", "attempted", "failed", "metrics"}``
whose metrics are those listed in BENCHMARK.json for the trace mode.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 3
WORKLOAD_NAMES = ("fed-defended", "fed-undefended", "stream-replay", "synthetic-streams")

E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "rounds_per_s": "1/s",
             "peak_rss_mb": "MB"}


def tail(values):
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it, never below the median; the median when there are too few."""
    xs = sorted(values)
    n = len(xs)
    k = n - 11                          # 0-based order statistic, 10 samples above it
    if k < (n - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / n


def quality(outcomes) -> dict:
    """Revocation quality of the stdlens verdicts and the source-class AP,
    over the first op on each distinct input (so independent of op count)."""
    verdicts = [v for o in outcomes for v in o.stdlens]
    aps = [a for o in outcomes for a in o.final_ap_src if a is not None]
    out = {}
    if verdicts:
        tp = sum(len(rev & mal) for rev, mal in verdicts)
        revoked = sum(len(rev) for rev, _ in verdicts)
        malicious = sum(len(mal) for _, mal in verdicts)
        out["perfect_purge_ratio"] = sum(rev == mal for rev, mal in verdicts) / len(verdicts)
        out["revocation_precision"] = tp / revoked if revoked else None
        out["revocation_recall"] = tp / malicious if malicious else None
        out["stdlens_verdict_sets"] = len(verdicts)
    if aps:
        out["final_ap_src"] = statistics.fmean(aps)
    return out


def blas_info() -> dict:
    import numpy as np
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment(seed: int) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stdlens").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas_info(),
        "workload_seed": seed,
    }


class Ledger:
    """Counts ops and checks each against the first op on the same input."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict = {}           # input index -> Outcome

    def run(self, i: int):
        """Run op i; returns (seconds, Outcome or None if it failed)."""
        from workloads import CheckFailed
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = self.workload.op(i)
            dt = time.perf_counter() - t0
            j = i % self.workload.cycle
            ref = self.first.setdefault(j, outcome)
            if outcome.digest != ref.digest:
                raise CheckFailed(f"input {j}: digest differs from the first op on it")
        except Exception as exc:      # any op failure is counted, not fatal
            dt = time.perf_counter() - t0
            if not isinstance(exc, CheckFailed):
                exc = f"{type(exc).__name__}: {exc}"
            self.failures.append(f"op {i}: {exc}")
            return dt, None
        return dt, outcome


def measure(workload, seconds: float, trace: bool, import_s: float) -> dict:
    ledger = Ledger(workload)
    cycle = workload.cycle

    # set-up: make the inputs and run one warm-up op, several times
    setup_times, prepared = [], set()
    for r in range(SETUP_REPS):
        t0 = time.perf_counter()
        prepared.add(workload.prepare())
        ledger.run(r % cycle)
        setup_times.append(time.perf_counter() - t0)
    if len(prepared) != 1:
        ledger.failures.append("set-up made different inputs from the same seed")

    # closed loop over whole cycles of the distinct inputs, so every run
    # weighs the inputs alike; a cycle starts only while it is expected to
    # end closer to the deadline than the cycle before it
    op_times, per_input, rounds = [], {}, 0
    t_start = time.perf_counter()
    i = 0
    while True:
        dt, outcome = ledger.run(i)
        op_times.append(dt)
        per_input.setdefault(i % cycle, []).append(dt)
        rounds += outcome.rounds if outcome else 0
        i += 1
        elapsed = time.perf_counter() - t_start
        if i % cycle == 0 and (i >= 3 and elapsed + elapsed / (i // cycle) / 2 >= seconds):
            break
    loop_s = time.perf_counter() - t_start

    p_tail, tail_pct = tail(op_times)
    e2e = {
        "setup_s": import_s + statistics.median(setup_times),
        "op_s_p50": statistics.median(op_times),
        "op_s_tail": p_tail,
        "rounds_per_s": rounds / sum(op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "workload": workload.name,
        "timed_ops": len(op_times),
        "op_times_s": op_times,
        "tail_percentile": tail_pct,
        "loop_s": loop_s,
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "quality": quality([ledger.first[j] for j in sorted(ledger.first)]),
    }

    if trace:
        import tracing
        tracer = tracing.Tracer()
        traced_times = []
        tracer.install()
        try:
            for j in range(cycle):
                tracer.op = j
                dt, _ = ledger.run(j)
                traced_times.append(dt)
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer.spans, sum(traced_times))
        # each traced op against the median untraced op on the same input
        untraced = sum(statistics.median(per_input[j]) for j in range(cycle))
        layers["trace_overhead_ratio"] = sum(traced_times) / untraced - 1.0
        units = tracing.metric_units()
        report["per_layer"] = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
        report["traced_ops"] = cycle
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-seed{workload.seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))

    report["attempted"] = ledger.attempted
    report["failed"] = len(ledger.failures)
    report["error_rate"] = len(ledger.failures) / ledger.attempted
    report["failures"] = ledger.failures[:20]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stdlens" / "__init__.py").is_file():
        print(f"stdlens sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        report = measure(workload, args.seconds, bool(args.trace), import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"env": environment(args.seed), "trace": args.trace, **report}
    section = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": section}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

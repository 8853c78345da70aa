"""jwcat benchmark runner.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20      # every workload, one table

Run from the repository root (or anywhere: paths are taken from this file).
The library is imported from ``src/`` of the same checkout; no install step.

``--trace 0`` measures the end-to-end metrics: it times ``setup_s`` in fresh
child processes, then runs passes over the workload's job set, one closed-loop
client and no threads, until ``--seconds`` have elapsed (at least one pass).
Its times are read from a clock scaled to a reference machine speed (see
probe.py); the raw wall-clock times are printed on a comment line.

``--trace 1`` runs one untraced pass and one traced pass of the same job set,
checks that both produce byte-identical outputs, and reports the per-layer
metrics of the traced pass plus the tracing overhead, in raw seconds. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from probe import ScaledClock  # noqa: E402
from workloads import WORKLOADS, VerifyWorkload, make_workload  # noqa: E402

# Fresh processes timed for setup_s, after one untimed process that leaves
# the bytecode cache warm (a user pays compilation once, not per command).
# Each child imports the whole package as the CLI does and builds the Setup.
SETUP_RUNS = 15
SETUP_CHILD = ("import sys, time\n"
               "sys.path.insert(0, sys.argv[1])\n"
               "from probe import ScaledClock\n"
               "with ScaledClock() as clock:\n"
               "    t, s = time.perf_counter(), clock.now()\n"
               "    import jwcat.cli, jwcat.functors\n"
               "    jwcat.functors.Setup.create()\n"
               "    print(time.perf_counter() - t, clock.now() - s)\n")

UNITS = {"setup_s": "s", "wall_s": "s", "job_s.p50": "s", "job_s.p90": "s",
         "peak_rss_mb": "MB", "conclusive_ratio": "ratio"}


def setup_seconds() -> tuple[float, float]:
    """Median raw and scaled set-up seconds over fresh child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE)], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=60,
                             check=True)
        if i:
            t, s = map(float, out.stdout.split())
            raw.append(t)
            scaled.append(s)
    return statistics.median(raw), statistics.median(scaled)


def run_pass(wl, tracer=None, clock=None):
    """Run every job once. Returns per-job raw seconds, per-job scaled seconds
    (empty without a running ``ScaledClock``), outputs and the failure count."""
    seconds, scaled, outputs, failed = [], [], [], 0
    for i, job in enumerate(wl.jobs):
        if tracer is not None:
            tracer.job = i
        s0 = clock.now() if clock is not None else 0.0
        t0 = time.perf_counter()
        out = wl.run(job)
        seconds.append(time.perf_counter() - t0)
        if clock is not None:
            scaled.append(clock.now() - s0)
        outputs.append(out)
        if wl.failed(job, out):
            failed += 1
            print(f"FAILED job {job!r}: {out.outcome}", file=sys.stderr)
    return seconds, scaled, outputs, failed


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def measure(wl, seconds: float) -> dict:
    raw_setup_s, setup_s = setup_seconds()
    raw_s, job_s, pass_s, attempted, failed, conclusive = [], [], [], 0, 0, 0
    start = time.perf_counter()
    with ScaledClock() as clock:
        while not pass_s or time.perf_counter() - start < seconds:
            times, scaled, outputs, nfail = run_pass(wl, clock=clock)
            raw_s += times
            job_s += scaled
            pass_s.append(sum(scaled))
            attempted += len(outputs)
            failed += nfail
            conclusive += sum(o.outcome != "inconclusive" for o in outputs)
    print(f"# {len(pass_s)} passes of {len(wl.jobs)} jobs; "
          f"job_s over {len(job_s)} samples")
    print(f"# raw seconds: setup_s {raw_setup_s:.6g} total {sum(raw_s):.6g} "
          f"job_s.p50 {statistics.median(raw_s):.6g} job_s.p90 {p90(raw_s):.6g}")
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(pass_s),
        "job_s.p50": statistics.median(job_s),
        "job_s.p90": p90(job_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "conclusive_ratio": conclusive / attempted,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


def check_names() -> list[str]:
    ref = json.loads((HERE / "reference" / "verify-N16.json").read_text())
    return [c["name"] for c in ref["checks"]]


def measure_traced(wl) -> dict:
    from spans import Tracer
    plain_s, _, plain, failed_plain = run_pass(wl)
    tracer = Tracer()
    tracer.install()
    try:
        leaks = tracer.leaks()
        traced_s, _, traced, failed_traced = run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    for name, where in tracer.rebound.items():
        print(f"# rebound {name} in {', '.join(where)}")
    for leak in leaks:
        print(f"LEAK {leak}", file=sys.stderr)
    identical = [(o.outcome, o.text) for o in plain] == [(o.outcome, o.text) for o in traced]
    if not identical:
        print("traced outputs differ from untraced outputs", file=sys.stderr)
    metrics = {f"trace.{k}": {"value": v, "unit": "s"} for k, v in (
        ("untraced_wall_s", sum(plain_s)), ("traced_wall_s", sum(traced_s)),
        ("overhead_s", sum(traced_s) - sum(plain_s)))}
    for name, value in tracer.summary().items():
        metrics[name] = {"value": value, "unit": "s" if name.endswith("_s") else "count"}
    # Per-check seconds come from the untraced pass's report.
    seconds = plain[0].check_seconds if isinstance(wl, VerifyWorkload) else {}
    for name in check_names():
        metrics[f"verify.check.{name}.s"] = {"value": seconds.get(name, 0.0), "unit": "s"}
    attempted = 2 * len(wl.jobs)
    failed = failed_plain + failed_traced
    return {"correct": failed == 0 and identical and not leaks,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    results, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = res
        ok = ok and res["correct"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} fail_ratio={res['failed'] / res['attempted']:.4g}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:58} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; omitted, every workload runs in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "jwcat" / "__init__.py").is_file():
        print(f"error: jwcat sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    wl = make_workload(args.workload, args.seed)
    result = measure_traced(wl) if args.trace else measure(wl, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

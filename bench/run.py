"""rankfair benchmark: one workload, one client, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Steps:

1. `inputs.py` (child process) writes the seeded inputs and their exact
   references under `.bench_work/NAME/`.  Not timed.
2. `probe.py` runs SETUP_SAMPLES times in fresh processes; the median is
   `setup_s`.
3. This process imports rankfair, runs the warm-ups, then issues the
   request list in whole passes for about S seconds.  Each answer is
   checked against its reference outside the timed region.

End-to-end times are scaled to a fixed machine speed (REFERENCE_LOOP_S).

With `--trace 1` the loop runs twice for S/2 seconds each, untraced and
then traced, and the per-layer metrics are reported instead.  The last
line of standard output is the JSON result.
"""

import os

# numpy here links a multi-threaded OpenBLAS; pin it before numpy loads,
# in this process and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workload import Caller, calibration_loop_s  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("aggregate_small", "exact_search", "worst_case_lp")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
# Timings are scaled to a fixed machine speed: the speed at which
# `calibration_loop_s` takes REFERENCE_LOOP_S.  The shared 2-vCPU VM this
# benchmark was built on drifts by 30% and more over minutes, for any code,
# so no run length averages the drift out; the loop, run every
# CALIBRATE_EVERY_S between requests, tracks it.  Unscaled figures are in
# the report line and `result.json`.
REFERENCE_LOOP_S = 1.25e-3
CALIBRATE_EVERY_S = 0.2

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child(script: str, *args) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(BENCH / script), *map(str, args)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{script} exited with code {done.returncode}")
    return done.stdout


def run_loop(prepared, caller, seconds: float, tracer=None) -> dict:
    """Issue whole passes of the request list for about `seconds`.

    Every pass sends the same requests, so the mix never depends on where
    a deadline falls.  A further pass starts only while it would end
    nearer to `seconds` than stopping now; there is always one pass.
    Between requests, at most every CALIBRATE_EVERY_S, the calibration
    loop is timed; `scales` holds each request's factor to the
    reference speed.
    """
    latencies, scales, errors, gaps = [], [], [], []
    loops: list[float] = []
    clock = time.perf_counter
    start = clock()
    last_loop = -CALIBRATE_EVERY_S
    passes = 0
    while passes == 0 or (clock() - start) * (1 + 0.5 / passes) < seconds:
        for rid, (req, call) in enumerate(prepared):
            if clock() - last_loop >= CALIBRATE_EVERY_S:
                loops.append(calibration_loop_s())
                last_loop = clock()
            scales.append(REFERENCE_LOOP_S / statistics.median(loops[-3:]))
            t0 = clock()
            try:
                out = call() if tracer is None else tracer.request(rid, call)
            except Exception as e:  # a raising request is a failed request
                latencies.append(clock() - t0)
                errors.append(f"{req['shape']}: {e!r}")
                continue
            latencies.append(clock() - t0)
            try:
                ok = caller.check(req, out)
            except Exception as e:  # so is an answer the check cannot read
                ok = False
                errors.append(f"{req['shape']}: unreadable answer: {e!r}")
            else:
                if not ok:
                    errors.append(f"{req['shape']}: differs from its reference")
            if ok and req["kind"] == "bnb_budget":
                gaps.append(float((out.cost - out.lower_bound) / out.cost))
        passes += 1
    return {"wall_s": clock() - start, "latencies": latencies, "scales": scales,
            "failed": len(errors), "errors": errors, "passes": passes, "gaps": gaps}


def raw_summary(run, probes) -> dict:
    """The unscaled figures, for reading next to the scaled metrics."""
    lat_ms = [1000 * x for x in run["latencies"]]
    return {
        "requests_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[-1],
        "setup_s": statistics.median(float(t) for t, _ in probes),
        "median_scale": statistics.median(run["scales"]),
    }


def shape_summary(prepared, latencies) -> dict:
    """Count, median and total latency of each request shape in the first loop."""
    by_shape: dict[str, list] = {}
    for i, lat in enumerate(latencies):
        by_shape.setdefault(prepared[i % len(prepared)][0]["shape"], []).append(lat)
    return {k: {"count": len(v), "median_ms": 1000 * statistics.median(v), "total_s": sum(v)}
            for k, v in sorted(by_shape.items())}


def machine() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "rankfair" / "__init__.py").is_file():
        print(f"error: no rankfair package under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan_path = workdir / "plan.json"
    child("inputs.py", args.workload, args.seed, workdir)
    # each probe prints its set-up seconds and the calibration loop's time
    probes = [child("probe.py", plan_path).split()[-2:] for _ in range(SETUP_SAMPLES)]
    setup = [float(t) * REFERENCE_LOOP_S / float(loop) for t, loop in probes]

    sys.path.insert(0, str(SRC))
    import rankfair

    if Path(rankfair.__file__).resolve().parent != SRC / "rankfair":
        print(f"error: imported rankfair from {rankfair.__file__}", file=sys.stderr)
        return 2
    plan = json.loads(plan_path.read_text())
    caller = Caller()
    for req in plan["warmups"]:
        caller.prepare(req)()
    prepared = [(req, caller.prepare(req)) for req in plan["requests"]]

    if args.trace:
        from spans import Tracer

        plain = run_loop(prepared, caller, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(prepared, caller, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(workdir / "spans.jsonl")
        rps = {k: len(r["latencies"]) / sum(r["latencies"])
               for k, r in (("plain", plain), ("traced", traced))}
        metrics = tracer.layer_metrics(traced["wall_s"], rps["traced"], rps["plain"])
        runs = (plain, traced)
    else:
        res = run_loop(prepared, caller, args.seconds)
        lat_ms = [1000 * x * k for x, k in zip(res["latencies"], res["scales"])]
        values = {
            "requests_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[-1],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        runs = (res,)

    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "requests_per_pass": len(prepared), "passes": [r["passes"] for r in runs],
        "samples": attempted, "error_rate": failed / attempted,
        "setup_samples_s": setup, "raw": raw_summary(runs[0], probes), "machine": machine(),
        "shapes": shape_summary(prepared, runs[0]["latencies"]),
        "errors": [e for r in runs for e in r["errors"]][:20],
    }
    gaps = runs[0]["gaps"]
    if gaps:
        report["anytime_gap_rel"] = gaps[0]
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':34s} {report['error_rate']:.6g} fraction")
    if gaps:
        print(f"{'anytime_gap_rel':34s} {gaps[0]:.6g} fraction")
    print(json.dumps(report))
    (workdir / "result.json").write_text(json.dumps({**report, "metrics": metrics}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

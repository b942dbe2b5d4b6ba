"""Run one benchmark workload against the widthlab sources in this checkout.

    python3 perfbench/run.py --workload tighten-coarse --seed 0 --seconds 20 --trace 0

Everything runs in this process, in one thread, with BLAS threads pinned to
one.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run first runs the
workload untraced for the tracing overhead, unless an untraced run of the
same workload and seed has left its result in perfbench/results/.  Results,
with an environment stamp and the output digest, go to that directory; a
run whose digest differs from the one stored there for its workload and seed,
traced or not, fails.  A failed correctness gate prints its reasons on
standard error and exits with code 1.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:          # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers  # noqa: E402
from perfbench.trace import Tracer, instrument  # noqa: E402
from perfbench.workloads import FOUR_PI, WORKLOADS  # noqa: E402
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# set-up is repeated at least this often and for at least this long, and its
# median reported, so that millisecond set-ups still give a steady figure
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 0.5


def load_widthlab():
    """Import widthlab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "widthlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no widthlab sources under {src}")
    import widthlab
    if Path(widthlab.__file__).resolve().parent != (src / "widthlab").resolve():
        raise SystemExit(f"perfbench: imported widthlab from {widthlab.__file__}")


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {"cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "tighten_jobs": 1,
            "git_commit": git_commit()}


def run_units(wl, inputs, seed, seconds, probes):
    """Run whole workload units until the next one would end after `seconds`
    (at least one).  Returns (durations, outcomes, tracers)."""
    durations, outcomes, tracers = [], [], []
    t_begin = time.perf_counter()
    while True:
        tracer = Tracer()
        with instrument(tracer, probes):
            with tracer.span("run") as run:
                outcomes.append(wl.run(inputs, seed, tracer))
        durations.append(run.duration)
        tracers.append(tracer)
        elapsed = time.perf_counter() - t_begin
        if elapsed + durations[-1] > seconds:
            return durations, outcomes, tracers


def check_digest(key, value):
    """Compare with the digest stored for this workload and seed by earlier
    runs in this checkout; store it when there is none."""
    path = RESULTS / "digests.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    if key in stored and stored[key] != value:
        return [f"output digest {value[:12]} differs from the stored {stored[key][:12]}"]
    if key not in stored:
        stored[key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    return []


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_widthlab()
    wl = WORKLOADS[args.workload]

    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    untraced = RESULTS / f"{wl.name}-seed{args.seed}-trace0.json"
    if args.trace and untraced.is_file():
        durations, outcomes = [], []
        plain = json.loads(untraced.read_text())["untraced"]
        run_s, time_to_1pct_s = plain["run_s"], plain["time_to_1pct_s"]
    else:
        durations, outcomes, tracers = run_units(wl, inputs, args.seed, args.seconds,
                                                 layers.probes(traced=False))
        run_s = statistics.median(durations)
        time_to_1pct_s = layers.time_to_width(
            tracers[0].spans, tracers[0].spans[0].start, 1.01 * FOUR_PI)
    if args.trace:
        _, t_outcomes, t_tracers = run_units(wl, inputs, args.seed, 0.0,
                                             layers.probes(traced=True))
        outcomes += t_outcomes
        metrics = layers.per_layer_metrics(t_tracers[0].spans, 0, run_s)
        metrics.update(t_outcomes[0].report)
        metrics["sweepout.time_to_1pct_s"] = time_to_1pct_s
        metrics = {k: metrics.get(k, 0) for k, _, _ in layers.PER_LAYER}
        units = layers.UNITS
    else:
        metrics = {"setup_s": statistics.median(setup_times), "run_s": run_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END_UNITS

    failures = list(outcomes[0].failures)
    digests = {o.digest() for o in outcomes}
    if len(digests) > 1:
        failures.append(f"runs of one seed gave {len(digests)} different output digests")
    RESULTS.mkdir(exist_ok=True)
    failures += check_digest(f"{wl.name}/seed{args.seed}", outcomes[0].digest())

    result = {"correct": not failures,
              "attempted": outcomes[0].attempted,
              "failed": outcomes[0].failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "digest": outcomes[0].digest(),
              "failures": failures, "setup_times_s": setup_times,
              "unit_durations_s": durations, "environment": environment(),
              "untraced": {"run_s": run_s, "time_to_1pct_s": time_to_1pct_s},
              "report": outcomes[0].report,
              **result}
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for f in failures:
        print(f"perfbench: FAILED {wl.name} seed {args.seed}: {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

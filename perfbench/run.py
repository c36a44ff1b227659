"""wallforms benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE NEW

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` a run sets up its workload three times, then repeats
passes of fixed work for ``--seconds`` seconds and prints the end-to-end
metrics; times are in calibrated seconds (see ``stats.calibrated``), the
raw ones are in the record.  With ``--trace 1`` it runs one set-up and a fixed number of
passes three times (a warm-up, then plain, then with every layer wrapped)
and prints the per-layer metrics.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record of the run (``{"record": ...}``), which ``--compare``
reads back from saved output.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARIABLES:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import stats  # noqa: E402

WORKLOAD_NAMES = ("unipotent-sweep", "involution-sweep", "cli-requests")
SETUP_REPS = 3
TRACE_SUM_FLOOR = 0.02
WINDOW_CAP = 1.5  # the measuring window ends after this many times --seconds

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def import_library():
    """Import wallforms from the checkout's src/; (None, None) if it is not
    there, else the package and the (raw, calibrated) import time."""
    if not (ROOT / "src" / "wallforms" / "__init__.py").is_file():
        return None, None
    sys.path.insert(0, str(ROOT / "src"))
    timer = stats.Stopwatch()
    wallforms = timer(importlib.import_module, "wallforms")
    if Path(wallforms.__file__).resolve().parent != ROOT / "src" / "wallforms":
        return None, None
    return wallforms, (timer.raw, timer.calibrated)


def environment(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit,
        "threads": {v: os.environ[v] for v in THREAD_VARIABLES},
        "seed": seed,
        "cache_state": "algebra_for_space cleared before every set-up, before the measured "
                       "passes and before every cli-requests pass",
        "first_pass": "timed like every other pass; wall_s is the median pass, "
                      "so the slower first pass does not set it",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(workloads, ref, name, seed, seconds, workdir):
    """Set up SETUP_REPS times, then run whole passes for `seconds` of
    calibrated pass time.

    Set-up times, pass times and latencies are reported in calibrated
    seconds (``stats.calibrated``); the raw ones go into the record.  The
    window is calibrated too, so that a run does the same passes whatever
    the machine's speed and the latency tail is taken over the same calls;
    WINDOW_CAP bounds its wall-clock length when the machine is slow."""
    work = workloads.WORKLOADS[name](ref, seed, workdir)
    setups = []
    for _ in range(SETUP_REPS):
        workloads.clear_caches()
        gc.collect()
        timer = stats.Stopwatch()
        work.setup(timer)
        setups.append((timer.raw, timer.calibrated))
    check = workloads.Tally()  # checked apart, so the first calibrated segment starts now
    work.check_setup(check)
    workloads.clear_caches()
    gc.collect()
    tally = workloads.Tally(calibrate=True)
    tally.failed, tally.failures = check.failed, check.failures
    calibrated_passes = []
    start = time.perf_counter()
    while True:  # whole passes, stopping before one that would overrun the window
        first = len(tally.latencies)
        tally.pass_times.append(work.run_pass(tally))
        tally.close_segment()
        calibrated_passes.append(sum(tally.calibrated[first:]))
        measured = sum(calibrated_passes)
        if (measured + measured / len(calibrated_passes) > seconds
                or time.perf_counter() - start > WINDOW_CAP * seconds):
            break
    timing = {"window_s": time.perf_counter() - start, "setups": setups,
              "passes": calibrated_passes}
    return work, tally, timing


def run_traced(workloads, tracing, ref, name, seed, workdir, spans_path):
    """The same fixed work three times: a warm-up, then plain and traced.
    Returns the last work object, both tallies, the tracer, the plain and
    traced times of the work in calibrated seconds, the raw traced time and
    the algebra cache's (hits, misses)."""
    cls = workloads.WORKLOADS[name]

    def fixed_work(tally, tracer):
        work = cls(ref, seed, workdir)
        workloads.clear_caches()
        gc.collect()
        timer = stats.Stopwatch()
        if tracer is None:
            work.setup(timer)
        else:  # root spans around the library calls only, not the calibrations
            work.setup(lambda fn, *args: timer(tracer.span("bench.setup", fn), *args))
        setup_s, setup_raw = timer.calibrated, timer.raw
        work.check_setup(tally)
        workloads.clear_caches()
        gc.collect()
        for _ in range(cls.traced_passes):
            tally.pass_times.append(work.run_pass(tally))
        tally.close_segment()
        return work, setup_s + sum(tally.calibrated), setup_raw + sum(tally.latencies)

    fixed_work(workloads.Tally(calibrate=True), None)  # warm-up, so neither copy runs cold
    plain = workloads.Tally(calibrate=True)
    _, untraced_s, _ = fixed_work(plain, None)
    tracer = tracing.Tracer()
    traced = workloads.Tally(tracer, calibrate=True)
    tracer.install()
    try:
        work, traced_s, traced_raw_s = fixed_work(traced, tracer)
        cache = workloads.ALGEBRA_CACHE.cache_info()
    finally:
        tracer.restore()
    tracer.write(spans_path)
    return (work, plain, traced, tracer, untraced_s, traced_s, traced_raw_s,
            (cache.hits, cache.misses))


def main_run(args) -> int:
    wallforms, import_s = import_library()
    if wallforms is None:
        print(f"perfbench: no wallforms package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    with open(HERE / "data" / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    out_dir = HERE / "out"
    workdir = str(out_dir / f"work-{os.getpid()}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed)}
    try:
        if args.trace:
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
            work, plain, tally, tracer, untraced_s, traced_s, traced_raw_s, cache = run_traced(
                workloads, tracing, ref, args.workload, args.seed, workdir, str(spans_path))
            # span times are raw; the factor that took the traced work's raw
            # time (measured outside the spans) to calibrated time does the same
            # to them, so what no layer owns is traced_s minus the layer times
            agg = tracer.aggregate(scale=traced_s / traced_raw_s)
            metrics = tracing.per_layer_metrics(agg, {
                "items": tally.items, "traced_s": traced_s, "untraced_s": untraced_s,
                "algebra_cache": cache})
            overhead = metrics["trace.overhead_s"]["value"]
            unattributed = metrics["trace.unattributed_s"]["value"]
            # the benchmark's own code inside the timed calls (stdout capture,
            # the root spans) is the only time no layer owns; the overhead is
            # a difference of two noisy times, hence the floor of 2% of the
            # traced time
            within = 0.0 <= unattributed <= max(overhead, TRACE_SUM_FLOOR * traced_s)
            record["trace_check"] = {
                "layer_self_s": agg.layer_self_s(), "traced_s": traced_s,
                "root_spans_s": tracer.root_s() * traced_s / traced_raw_s,
                "overhead_s": overhead, "unattributed_s": unattributed,
                "self_times_sum_within_overhead": within}
            record["spans_file"] = str(spans_path.relative_to(ROOT))
            # the check is one more operation: a traced run that fails it fails
            attempted = plain.attempted + tally.attempted + 1
            failed = plain.failed + tally.failed + (not within)
            failures = plain.failures + tally.failures
            if not within:
                failures.append(f"trace check: {unattributed:.4f} s unattributed, more than "
                                f"the overhead {overhead:.4f} s or {TRACE_SUM_FLOOR:.0%} of "
                                f"{traced_s:.4f} s")
        else:
            work, tally, timing = run_timed(
                workloads, ref, args.workload, args.seed, args.seconds, workdir)
            lat = stats.latency_summary(tally.calibrated)
            raw = stats.latency_summary(tally.latencies)
            metrics = {
                "setup_s": import_s[1] + statistics.median(c for _, c in timing["setups"]),
                "wall_s": statistics.median(timing["passes"]),
                "items_per_s": tally.items / sum(timing["passes"]),
                "latency_p50_ms": 1000.0 * lat["p50"],
                "latency_tail_ms": 1000.0 * lat["tail"],
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit, _ in END_TO_END}
            record.update({
                "import_s": import_s, "setup_reps_s": timing["setups"],
                "window_s": timing["window_s"], "passes": len(tally.pass_times),
                "pass_times_s": tally.pass_times, "calibrated_pass_times_s": timing["passes"],
                "calibration_s": tally.calibrations,
                "calibration_nominal_s": stats.CALIBRATION_NOMINAL_S,
                "raw": {"setup_s": import_s[0] + statistics.median(r for r, _ in timing["setups"]),
                        "wall_s": statistics.median(tally.pass_times),
                        "items_per_s": tally.items / sum(tally.pass_times),
                        "latency_p50_ms": 1000.0 * raw["p50"],
                        "latency_tail_ms": 1000.0 * raw["tail"]},
                "latency": {"of": work.latency_of, "samples": lat["samples"],
                            "tail_percentile": lat["tail_percentile"]},
                "items": {"of": work.item, "count": tally.items},
            })
            if hasattr(work, "latency_by_path"):
                record["latency"]["by_path_ms"] = {
                    path: {k: 1000.0 * v if k in ("p50", "tail") else v
                           for k, v in stats.latency_summary(lats).items()}
                    for path, lats in work.latency_by_path(tally.calibrated).items()}
            attempted, failed, failures = tally.attempted, tally.failed, tally.failures
        if hasattr(work, "shares"):
            record["inputs"] = work.shares()
        record["counts"] = tally.counts
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0
    record.update({"metrics": metrics, "attempted": attempted, "failed": failed,
                   "failed_frac": failed / attempted if attempted else 1.0,
                   "failures": failures, "correct": correct})
    if "known_defect" in tally.counts:
        record["known_defect_frac"] = tally.counts["known_defect"] / tally.attempted
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main_all(args) -> int:
    """Every workload in its own process, then one table of the metrics."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows.append((name, json.loads(lines[-1])))
    print(f"\n{'workload':18s} {'metric':36s} {'value':>14s}  unit")
    for name, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:36s} {m['value']:14.6g}  {m['unit']}")
        print(f"{name:18s} {'correct':36s} {str(result['correct']):>14s}  "
              f"({result['failed']} of {result['attempted']} failed)")
    return 0


def read_records(path: Path) -> list[dict]:
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    out = []
    for f in files:
        for line in f.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith('{"record"'):
                out.append(json.loads(line)["record"])
    return out


def main_compare(base_path: str, new_path: str) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    base = [r for r in read_records(Path(base_path)) if not r["trace"]]
    new = [r for r in read_records(Path(new_path)) if not r["trace"]]
    for workload in WORKLOAD_NAMES:
        b = sorted((r for r in base if r["workload"] == workload), key=lambda r: r["seed"])
        n = sorted((r for r in new if r["workload"] == workload), key=lambda r: r["seed"])
        if not b or not n:
            continue
        if [r["seed"] for r in b] != [r["seed"] for r in n]:
            print(f"{workload}: the two sides ran different seeds; pairing runs in seed order")
        print(f"\n{workload}: {len(b)} base runs, {len(n)} new runs")
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            nv = [r["metrics"][m["name"]]["value"] for r in n]
            v = stats.verdict(bv, nv, m["bound"], m["better"])
            print(f"  {m['name']:16s} base {v['base']['median']:.6g} {m['unit']} "
                  f"[{v['base']['q1']:.6g}, {v['base']['q3']:.6g}]  "
                  f"new {v['new']['median']:.6g} [{v['new']['q1']:.6g}, {v['new']['q3']:.6g}]  "
                  f"new/base = {v['ratio']:.4f} (base {v['base']['median']:.6g} {m['unit']})  "
                  f"wins {v['wins']}/{v['pairs']}  {v['verdict']}: {v['why']}")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="wallforms benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measuring window; defaults to run_seconds "
                             "of BENCHMARK.json, the one value the benchmark is run with")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two saved sets of runs (files or directories)")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.compare is None):
        parser.error("give either --workload or --compare")
    if args.seconds is None and args.workload is not None:
        try:
            with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
                args.seconds = float(json.load(fh)["run_seconds"])
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"no --seconds and no run_seconds in BENCHMARK.json: {exc}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return main_compare(*args.compare)
    if args.workload == "all":
        return main_all(args)
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, run timed passes, check statuses.

Run from the root of a statgeom checkout (``perfbench/run.py`` starts it in a
fresh process with BLAS pinned to one thread)::

    python3 perfbench/worker.py setup --workload curvature --seed 0
    python3 perfbench/worker.py run   --workload curvature --seed 0 --seconds 30
    python3 perfbench/worker.py trace --workload curvature --seed 0 --seconds 30

``setup`` times importing statgeom plus generating, loading and validating
every manifest.  ``run`` then runs untraced passes for ``--seconds`` (at least
one); a pass is ``run_suite`` plus ``render_report`` over every manifest.
``trace`` runs untraced passes for the first 40% of the time and traced
cycles (load every manifest, then one pass) for the rest, at least two;
before the untraced passes and after the tracer is removed it asserts that
statgeom holds its original, unwrapped objects.  The last line of stdout is
one JSON object.

Before set-up and before each manifest run the worker pins itself to the
allowed CPU that runs a short probe fastest.  On a shared host other tenants
slow one core at a time for seconds; the probe steers the single measuring
thread away from the core that is slow at that moment.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

EXPECTED_TABLE = os.path.join(HERE, "expected_status.tsv")
OUT_DIR = os.path.join(HERE, "out")
TRACE_SHARE = 0.4  # share of --seconds that a trace run spends untraced
ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - start


def pin_fastest_cpu() -> None:
    """Pin this process to the allowed CPU on which the probe runs fastest."""
    if len(ALLOWED_CPUS) < 2:
        return
    timings = []
    for cpu in ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_probe() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def _thread_count() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading
    return threading.active_count()


def _blas_version() -> str:
    import numpy
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def machine_record() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


class Workload:
    """The loaded manifests of one workload plus its expected statuses."""

    def __init__(self, name, seed, points):
        import statgeom
        self.statgeom = statgeom
        self.name = name
        self.cases = workloads.build_cases(name, seed, points)
        self.manifests = self.load()
        self.points = sum(case.points for case in self.cases)
        self.expected = {}  # manifest -> {outcome: status}, filled after set-up is timed

    def load_expected(self):
        for (workload, manifest, outcome), status in workloads.load_expected(
                EXPECTED_TABLE).items():
            if workload == self.name:
                self.expected.setdefault(manifest, {})[outcome] = status

    def load(self):
        return [case.load(self.statgeom) for case in self.cases]

    def run_case(self, index, manifest):
        """``run_suite`` plus ``render_report`` on one manifest; (wall seconds, report)."""
        case = self.cases[index]
        start = time.perf_counter()
        report = self.statgeom.run_suite(manifest, seed=case.seed, points=case.points)
        self.statgeom.report.render_report(report)
        return time.perf_counter() - start, report

    def score(self, index, report, tally, strict):
        """Count one report's outcomes, and those it lacks, against the expected table."""
        name = self.cases[index].name
        got = {check.name: check.status for check in report.checks}
        expected = self.expected.get(name, {}) if strict else {}
        error = self.statgeom.geometry.STATUS_ERROR
        for outcome in sorted(set(got) | set(expected)):
            tally["attempted"] += 1
            status = got.get(outcome)
            if status == error or (strict and status != expected.get(outcome)):
                tally["failed"] += 1
                if len(tally["mismatches"]) < 10:
                    tally["mismatches"].append([name, outcome, status, expected.get(outcome)])
        tally["statuses"][name] = sorted(got.items())


class Timing:
    """Closed-loop timings of one workload: per-manifest samples and whole passes."""

    def __init__(self, size):
        self.samples = [[] for _ in range(size)]
        self.passes = []

    def best_pass_s(self):
        """Sum over manifests of the fastest observed run: one pass at the machine's best."""
        return sum(min(samples) for samples in self.samples)


def timed_passes(workload, manifests, deadline, min_passes, tally, strict, timing=None):
    """Run the manifests round-robin until ``deadline``, at least ``min_passes`` whole passes.

    The deadline is checked between manifests, so a run overshoots it by at most one
    manifest; the runs of a final partial pass count as samples, not as a pass.
    """
    timing = timing or Timing(len(manifests))
    while True:
        total = 0.0
        for index, manifest in enumerate(manifests):
            if len(timing.passes) >= min_passes and time.perf_counter() >= deadline:
                return timing
            pin_fastest_cpu()
            elapsed, report = workload.run_case(index, manifest)
            workload.score(index, report, tally, strict)
            timing.samples[index].append(elapsed)
            total += elapsed
        timing.passes.append(total)


def _per_layer(tr, workload, cycles, untraced, traced):
    """Per-layer metrics from the traced cycles; counts must repeat exactly."""
    counts = []
    for cycle in cycles:
        row = {name: sum(cycle["calls"][span] for span in spans)
               for name, spans in tr.COUNTERS.items()}
        row["special.calls"] = sum(n for span, n in cycle["calls"].items()
                                   if tr.layer_of(span) == "special")
        row["linalg.calls"] = sum(cycle["linalg"].values())
        counts.append(row)
    if any(row != counts[0] for row in counts[1:]):
        raise AssertionError(f"traced call counts differ between cycles: {counts}")

    def median_over_cycles(value):
        return statistics.median(value(cycle) for cycle in cycles)

    metrics = {}
    for layer in ("expr", "special", "geometry", "product", "expfam", "submersion"):
        metrics[f"{layer}.self_s"] = median_over_cycles(
            lambda c, layer=layer: sum(t for span, t in c["self_s"].items()
                                       if tr.layer_of(span) == layer))
    metrics.update(counts[0])
    metrics["expr.jets_per_point"] = counts[0]["expr.eval2_calls"] / workload.points
    metrics["manifest.load_s"] = median_over_cycles(lambda c: c["load_s"])
    for check in sorted(workload.statgeom.CHECKS):
        metrics[f"suite.check_s.{check}"] = median_over_cycles(
            lambda c, check=check: c["total_s"][f"suite.check.{check}"])
    metrics["report.render_s"] = median_over_cycles(
        lambda c: c["total_s"]["report.render_report"])
    metrics["trace.overhead_s"] = traced.best_pass_s() - untraced.best_pass_s()
    return metrics, dict(cycles[0]["linalg"])


def trace_run(tr, workload, statgeom, args, begin, tally, strict):
    """Untraced passes, then traced cycles (load every manifest, then one pass)."""
    tracer = tr.Tracer(statgeom)
    tracer.assert_pristine()
    untraced = timed_passes(workload, workload.manifests, begin + TRACE_SHARE * args.seconds,
                            1, tally, strict)
    tracer.assert_pristine()
    tracer.install()
    traced = Timing(len(workload.manifests))
    cycles = []
    try:
        while len(cycles) < 2 or time.perf_counter() < begin + args.seconds:
            pin_fastest_cpu()
            load_start = time.perf_counter()
            manifests = workload.load()
            load_s = time.perf_counter() - load_start
            timed_passes(workload, manifests, 0.0, len(traced.passes) + 1, tally, strict, traced)
            cycles.append(dict(tracer.collect(), load_s=load_s))
    finally:
        tracer.restore()
    tracer.assert_pristine()
    metrics, linalg_by_layer = _per_layer(tr, workload, cycles, untraced, traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
    tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                             "cycle": len(cycles) - 1})
    return {"untraced_pass_s": untraced.passes, "traced_pass_s": traced.passes,
            "per_layer": metrics, "linalg_by_layer": linalg_by_layer,
            "wrapped_names": len(tracer.names),
            "trace_file": os.path.relpath(trace_path, ROOT)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--points", type=int, default=None,
                        help="shrink every manifest to this many points (self-test)")
    args = parser.parse_args(argv)
    strict = args.points is None  # the expected table holds for full-size workloads

    pin_fastest_cpu()
    start = time.perf_counter()
    workload = Workload(args.workload, args.seed, args.points)
    setup_s = time.perf_counter() - start
    statgeom = workload.statgeom
    if not os.path.abspath(statgeom.__file__).startswith(os.path.join(ROOT, "src", "")):
        raise SystemExit(f"statgeom imported from {statgeom.__file__}, not this checkout")
    result = {"mode": args.mode, "workload": args.workload, "seed": args.seed,
              "setup_s": setup_s, "points": workload.points}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    # imported only now: the tracer imports numpy, which set-up must time
    import tracer as tr

    workload.load_expected()
    tally = {"attempted": 0, "failed": 0, "mismatches": [], "statuses": {}}
    begin = time.perf_counter()
    if args.mode == "run":
        tr.Tracer(statgeom).assert_pristine()
        timing = timed_passes(workload, workload.manifests, begin + args.seconds, 1, tally, strict)
        result.update({"best_pass_s": timing.best_pass_s(), "pass_s": timing.passes,
                       "samples": timing.samples})
    else:
        result.update(trace_run(tr, workload, statgeom, args, begin, tally, strict))
    result.update({
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "mismatches": tally["mismatches"],
        "statuses": tally["statuses"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _thread_count(),
        "machine": machine_record(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

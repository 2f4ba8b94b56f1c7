"""statgeom benchmark: one workload, one seed, one measured run.

Run from the root of a statgeom checkout::

    python3 perfbench/run.py --workload curvature --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``submersion``, ``curvature`` and ``models``.
One client runs them in a closed loop: the next pass starts only after the
previous one finished.  With ``--trace 0`` the run reports the end-to-end
metrics: ``verify_s`` from a fresh worker process that runs passes for
``--seconds`` (the sum over manifests of each one's fastest run, see
README.md for why), ``setup_s`` as the median over several fresh processes,
and ``peak_rss_mb`` of the measuring process.  With ``--trace 1`` a fresh worker
runs untraced passes, then traced cycles, and reports the per-layer metrics.
Every pass is checked against ``expected_status.tsv``; an ERROR or a status
that differs from the table is a failed outcome, and any failed outcome makes
the command exit with code 1.

Each worker is a single fresh process with BLAS and OpenMP pinned to one
thread.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the benchmark could not run (for instance outside a statgeom checkout) and
prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # every worker of one run must end within this
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# name -> (unit, better); the same lists as BENCHMARK.json.
END_TO_END = {
    "verify_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "expr.self_s": ("s", "lower"),
    "expr.eval2_calls": ("count", "lower"),
    "expr.eval_value_calls": ("count", "lower"),
    "expr.jets_per_point": ("calls/point", "lower"),
    "special.self_s": ("s", "lower"),
    "special.calls": ("count", "lower"),
    "geometry.self_s": ("s", "lower"),
    "geometry.field_jet_calls": ("count", "lower"),
    "geometry.derived_jet_calls": ("count", "lower"),
    "geometry.curvature_calls": ("count", "lower"),
    "linalg.calls": ("count", "lower"),
    "product.self_s": ("s", "lower"),
    "expfam.self_s": ("s", "lower"),
    "expfam.fisher_builds": ("count", "lower"),
    "submersion.self_s": ("s", "lower"),
    "submersion.oneill_calls": ("count", "lower"),
    "submersion.projector_calls": ("count", "lower"),
    "manifest.load_s": ("s", "lower"),
    "manifest.build_context_calls": ("count", "lower"),
    **{f"suite.check_s.{check}": ("s", "lower") for check in (
        "statistical_structure", "conjugate_involution", "levi_civita_average",
        "dual_curvature_identity", "flatness", "kurose_constant_curvature",
        "almost_product", "pairing_identities", "product_parallelism",
        "para_kahler_like", "conjugate_parallelism", "space_form", "flatness_theorem",
        "alpha_family", "exp_para_certifications", "semi_riemannian_submersion",
        "statistical_submersion", "para_holomorphic", "isometric_fibers",
        "oneill_identities", "fiber_para_kahler_like", "submersion_theorems")},
    "report.render_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker(mode, args, deadline, seconds=0.0):
    command = [sys.executable, WORKER, mode, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds)]
    if args.points is not None:
        command += ["--points", str(args.points)]
    env = dict(os.environ, **PINNED_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"{mode} worker exceeded the run limit") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile_with_tail(values, tail=10):
    """(percent, value) of the highest nearest-rank percentile with ``tail`` samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= tail:
        return None
    rank = n - tail  # 1-based rank of the value with exactly ``tail`` samples beyond it
    return 100.0 * rank / n, ordered[rank - 1]


def _measure(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        result = _worker("trace", args, deadline, args.seconds)
        metrics = result["per_layer"]
        units = PER_LAYER
    else:
        # set-up samples come from both ends of the run, to see more than one moment
        before = SETUP_REPEATS // 2 + 1
        setups = [_worker("setup", args, deadline)["setup_s"] for _ in range(before)]
        result = _worker("run", args, deadline, args.seconds)
        setups += [_worker("setup", args, deadline)["setup_s"]
                   for _ in range(SETUP_REPEATS - before)]
        metrics = {
            "verify_s": result["best_pass_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
        result["setup_samples"] = setups
    missing = set(units) - set(metrics)
    if missing:
        raise BenchmarkError(f"worker did not report {sorted(missing)}")
    return result, {name: {"value": metrics[name], "unit": units[name][0]} for name in units}


def _print_summary(args, result, metrics):
    machine = result["machine"]
    print(f"statgeom benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"machine: nproc {machine['nproc']}, Python {machine['python']}, "
          f"numpy {machine['numpy']}, BLAS {machine['blas']} "
          f"({machine['blas_threads']} thread), worker threads {result['threads']}")
    if args.trace:
        print(f"traced cycles {len(result['traced_pass_s'])}, untraced passes "
              f"{len(result['untraced_pass_s'])}, {result['wrapped_names']} wrapped names")
        print(f"linalg calls by layer: {json.dumps(result['linalg_by_layer'], sort_keys=True)}")
        print(f"spans of the last cycle: {result['trace_file']}")
    else:
        passes = result["pass_s"]
        tail = percentile_with_tail(passes)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s with 10 passes beyond it" if tail
                     else "no percentile has 10 passes beyond it")
        runs = "; ".join(" ".join(f"{t:.3f}" for t in samples) for samples in result["samples"])
        print(f"whole passes {len(passes)} (closed loop, 1 client): median "
              f"{statistics.median(passes):.4f} s, {tail_text}, min {min(passes):.4f} s, "
              f"max {max(passes):.4f} s")
        print(f"verify_s sums each manifest's fastest run; runs per manifest (s): {runs}")
        print("setup samples (fresh processes): "
              + ", ".join(f"{s:.4f}" for s in result["setup_samples"]))
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} outcomes failed)")
    for row in result["mismatches"]:
        print(f"  mismatch: {row[0]} {row[1]}: got {row[2]}, expected {row[3]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="statgeom benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, default=None,
                        help="shrink every manifest to this many points (self-test only; "
                             "statuses are then checked for ERROR only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "statgeom", "__init__.py")):
        print("error: run from the root of a statgeom checkout (src/statgeom not found)",
              file=sys.stderr)
        return 2
    try:
        result, metrics = _measure(args)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    nproc = result["machine"]["nproc"] or 1
    correct = (result["failed"] == 0 and result["attempted"] > 0
               and result["threads"] <= nproc)
    _print_summary(args, result, metrics)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Self-test of the benchmark.  Run from the root of a statgeom checkout::

    python3 perfbench/selftest.py

1. Every workload at a tiny size (3 points per manifest, one pass), untraced
   and traced: the command exits 0, its last line has exactly the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``, and it emits every
   metric that BENCHMARK.json names, with that unit.
2. Two traced runs of each tiny workload give exactly equal call counts.
3. Seed independence: every full-size workload, regenerated from seeds 0, 7
   and 12345, matches the expected-status table and gives identical statuses.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import PINNED_ENV  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 7, 12345)
TINY_POINTS = 3
COUNT_UNITS = ("count", "calls/point")


def _last_json(command):
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600,
                          env=dict(os.environ, **PINNED_ENV))
    if proc.returncode != 0:
        raise AssertionError(f"{command} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _bench(workload, trace, seed=1):
    return _last_json([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                       "--points", str(TINY_POINTS)])


def check_tiny_runs(spec):
    for workload in WORKLOADS:
        counts = []
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"]),
                                (1, spec["per_layer"])):
            result = _bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            expected = {entry["name"]: entry["unit"] for entry in declared}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert got == expected, f"{workload} trace {trace}: {got} != {expected}"
            for name, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), (name, entry)
            if trace:
                counts.append({name: entry["value"] for name, entry in result["metrics"].items()
                               if entry["unit"] in COUNT_UNITS})
        assert counts[0] == counts[1], f"{workload}: traced counts differ: {counts}"
        print(f"ok  tiny {workload}: metrics and units match; traced counts repeat exactly")


def check_seed_independence():
    for workload in WORKLOADS:
        statuses = []
        for seed in SEEDS:
            result = _last_json([sys.executable, os.path.join(HERE, "worker.py"), "run",
                                 "--workload", workload, "--seed", str(seed)])
            assert result["failed"] == 0, (workload, seed, result["mismatches"])
            statuses.append(result["statuses"])
        assert all(s == statuses[0] for s in statuses), f"{workload}: statuses depend on seed"
        count = sum(len(outcomes) for outcomes in statuses[0].values())
        print(f"ok  {workload}: {count} statuses match the table for seeds {SEEDS}")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    check_tiny_runs(spec)
    check_seed_independence()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

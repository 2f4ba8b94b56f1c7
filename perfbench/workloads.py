"""The benchmark's three workloads, generated from one seed.

Every chart seed is derived from the benchmark seed.  Shipped fixtures keep
their JSON and receive the derived seed through ``run_suite(seed=...)``, the
same path as ``statgeom verify --seed``; generated manifests carry it in
their chart (or model) block and get the same value through ``run_suite``.

Nothing here imports ``statgeom`` at module level, so a caller can time the
package import as part of set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CURVATURE_CHECKS = (
    "statistical_structure",
    "conjugate_involution",
    "levi_civita_average",
    "dual_curvature_identity",
    "flatness",
    "kurose_constant_curvature",
    "almost_product",
    "pairing_identities",
    "product_parallelism",
    "para_kahler_like",
    "conjugate_parallelism",
    "space_form",
    "flatness_theorem",
)

# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = ("submersion", "curvature", "models")

# Sample counts given to the manifests at full size.
_SUBMERSION_POINTS = 25
_CURVATURE_POINTS = 100
_SHIPPED_MODEL_POINTS = 25
_GENERATED_MODEL_POINTS = 100


@dataclass(frozen=True)
class Case:
    """One manifest of a workload: how to load it and the seed to run it with."""

    name: str
    seed: int
    points: int
    fixture: str | None = None  # shipped fixture id, or None for generated data
    data: dict | None = None  # generated manifest tree

    def load(self, statgeom):
        """Load and validate the manifest through the package's public path."""
        known = set(statgeom.CHECKS)
        if self.fixture is not None:
            return statgeom.load_fixture(self.fixture, known_checks=known)
        return statgeom.parse_manifest(self.data, name=self.name, known_checks=known)


def _derived_seeds(seed: int, names):
    rng = random.Random(int(seed))
    return {name: rng.randrange(2**31) for name in names}


def build_cases(workload: str, seed: int, points: int | None = None):
    """The workload's cases; ``points`` shrinks every manifest (self-test only)."""
    from statgeom import fixtures  # only used to generate inputs

    if workload == "submersion":
        specs = [
            ("example_5_6_k1_l1", _SUBMERSION_POINTS, None),
            ("example_5_6_k1_l2", _SUBMERSION_POINTS, None),
            ("curved_submersion_3to1", _SUBMERSION_POINTS,
             lambda s: fixtures.submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0), seed=s)),
        ]
    elif workload == "curvature":
        specs = [
            (f"curved_product_{pairs}pair", _CURVATURE_POINTS,
             lambda s, pairs=pairs: fixtures.curved_product_manifest(
                 pairs, 1.0, 2.0, [1.0] * pairs, seed=s, checks=CURVATURE_CHECKS))
            for pairs in (1, 2, 3, 4)
        ]
    elif workload == "models":
        specs = [
            ("example_5_5_normal", _SHIPPED_MODEL_POINTS, None),
            ("example_5_5_multinomial", _SHIPPED_MODEL_POINTS, None),
            ("example_5_5_dirichlet", _SHIPPED_MODEL_POINTS, None),
            ("model_poisson", _GENERATED_MODEL_POINTS,
             lambda s: fixtures.model_manifest("poisson", seed=s)),
            ("model_multinomial5", _GENERATED_MODEL_POINTS,
             lambda s: fixtures.model_manifest("multinomial", {"categories": 5}, seed=s)),
            ("model_dirichlet4", _GENERATED_MODEL_POINTS,
             lambda s: fixtures.model_manifest("dirichlet", {"dim": 4}, seed=s)),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")

    seeds = _derived_seeds(seed, [name for name, _, _ in specs])
    cases = []
    for name, default_points, generate in specs:
        count = default_points if points is None else points
        if generate is None:
            cases.append(Case(name=name, seed=seeds[name], points=count, fixture=name))
            continue
        data = generate(seeds[name])
        data["name"] = name
        data["points"] = count
        cases.append(Case(name=name, seed=seeds[name], points=count, data=data))
    return cases


def load_expected(path):
    """Expected statuses: {(workload, manifest, outcome): status} from the TSV table."""
    table = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            workload, manifest, outcome, status = line.split("\t")[:4]
            if workload == "workload":  # header row
                continue
            key = (workload, manifest, outcome)
            if key in table:
                raise ValueError(f"duplicate expected-status row {key}")
            table[key] = status
    return table

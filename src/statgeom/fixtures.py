"""Built-in fixture registry and manifest builders.

The builders produce manifest dictionaries for the parameterized families the
verifier ships with; the registry maps each fixture id to one builder call,
and :func:`load_fixture` parses what that call returns.  Coordinates
are interleaved as (x1, y1, x2, y2, ...) so that the trailing pairs form the
fibers of the coordinate-projection submersions.
"""

from __future__ import annotations

from typing import Sequence

from .manifest import Manifest, ManifestError, parse_manifest


def _pair_coords(pairs: int) -> list[str]:
    return [name for i in range(pairs) for name in (f"x{i + 1}", f"y{i + 1}")]


def _zeros(n: int) -> list[list[str]]:
    return [["0"] * n for _ in range(n)]


def flat_product_manifest(
    pairs: int,
    k: float,
    epsilons: Sequence[float],
    seed: int = 0,
    checks: Sequence[str] | None = None,
) -> dict:
    """Flat manifold with metric sum_i eps_i (k dx_i² − dy_i²), flat connection, pair-swap P."""
    if len(epsilons) != pairs:
        raise ValueError(f"need {pairs} epsilon signs, got {len(epsilons)}")
    if k == 0.0:
        raise ValueError("k must be non-zero")
    n = 2 * pairs
    coords = _pair_coords(pairs)
    params = {"k": float(k)}
    params.update({f"e{i + 1}": float(epsilons[i]) for i in range(pairs)})
    metric = _zeros(n)
    product = _zeros(n)
    connection = [_zeros(n) for _ in range(n)]
    for i in range(pairs):
        x, y = 2 * i, 2 * i + 1
        metric[x][x] = f"e{i + 1}*k"
        metric[y][y] = f"-e{i + 1}"
        product[x][y] = "1"
        product[y][x] = "1"
    return {
        "name": f"flat_product_{pairs}pair",
        "chart": {
            "coords": coords,
            "box": [[-1.0, 1.0]] * n,
            "seed": int(seed),
        },
        "params": params,
        "metric": metric,
        "connection": connection,
        "product": product,
        "checks": list(checks) if checks is not None else [
            "para_kahler_like",
            "flatness",
            "kurose_constant_curvature",
            "flatness_theorem",
        ],
        "points": 25,
    }


def curved_product_manifest(
    pairs: int,
    k: float,
    l: float,
    epsilons: Sequence[float],
    seed: int = 0,
    checks: Sequence[str] | None = None,
) -> dict:
    """Half-plane-power manifold: metric sum_i eps_i/y_i² (k dx_i² − l dy_i²) with its
    non-metric statistical connection and the pair-swap product structure."""
    if len(epsilons) != pairs:
        raise ValueError(f"need {pairs} epsilon signs, got {len(epsilons)}")
    if k == 0.0 or l == 0.0 or k + l == 0.0:
        raise ValueError("k, l and k + l must all be non-zero")
    n = 2 * pairs
    coords = _pair_coords(pairs)
    params = {"k": float(k), "l": float(l)}
    params.update({f"e{i + 1}": float(epsilons[i]) for i in range(pairs)})
    metric = _zeros(n)
    product = _zeros(n)
    connection = [_zeros(n) for _ in range(n)]
    for i in range(pairs):
        x, y = 2 * i, 2 * i + 1
        metric[x][x] = f"e{i + 1}*k/(y{i + 1}*y{i + 1})"
        metric[y][y] = f"-e{i + 1}*l/(y{i + 1}*y{i + 1})"
        product[x][y] = "1"
        product[y][x] = "1"
        coefficient = f"-2*k/((k+l)*y{i + 1})"
        connection[y][x][x] = coefficient
        connection[y][y][y] = coefficient
        connection[x][x][y] = coefficient
        connection[x][y][x] = coefficient
    box = []
    for i in range(pairs):
        box.append([-1.0, 1.0])
        box.append([0.5, 2.0])
    return {
        "name": f"curved_product_{pairs}pair",
        "chart": {"coords": coords, "box": box, "seed": int(seed)},
        "params": params,
        "metric": metric,
        "connection": connection,
        "product": product,
        "checks": list(checks) if checks is not None else [
            "statistical_structure",
            "almost_product",
            "product_parallelism",
            "pairing_identities",
        ],
        "points": 25,
    }


def model_manifest(
    name: str,
    hyperparams: dict | None = None,
    alphas: Sequence[float] = (-1.0, 0.0, 1.0),
    involution: Sequence[Sequence[float]] | None = None,
    seed: int = 0,
    checks: Sequence[str] | None = None,
) -> dict:
    """Manifest for a built-in exponential-family model."""
    block = {"name": name, "hyperparams": dict(hyperparams or {}), "alpha": list(alphas)}
    if involution is not None:
        block["involution"] = [list(row) for row in involution]
    default_checks = ["alpha_family"]
    if involution is not None:
        default_checks.append("exp_para_certifications")
    return {
        "name": f"model_{name}",
        "seed": int(seed),
        "model": block,
        "checks": list(checks) if checks is not None else default_checks,
        "points": 25,
    }


def submersion_manifest(
    total_pairs: int,
    base_pairs: int,
    k: float,
    l: float,
    epsilons: Sequence[float],
    seed: int = 0,
    checks: Sequence[str] | None = None,
) -> dict:
    """Projection of the curved product family onto its leading pairs."""
    if not 1 <= base_pairs < total_pairs:
        raise ValueError("base must keep at least one pair and drop at least one")
    total = curved_product_manifest(total_pairs, k, l, epsilons, seed=seed)
    base = curved_product_manifest(base_pairs, k, l, epsilons[:base_pairs])
    manifest = {
        "name": f"curved_submersion_{total_pairs}to{base_pairs}",
        "chart": total["chart"],
        "params": total["params"],
        "metric": total["metric"],
        "connection": total["connection"],
        "product": total["product"],
        "submersion": {
            "base": {
                "chart": base["chart"],
                "params": base["params"],
                "metric": base["metric"],
                "connection": base["connection"],
                "product": base["product"],
            }
        },
        "checks": list(checks) if checks is not None else [
            "semi_riemannian_submersion",
            "statistical_submersion",
            "para_holomorphic",
            "isometric_fibers",
            "oneill_identities",
            "fiber_para_kahler_like",
            "submersion_theorems",
        ],
        "points": 25,
    }
    return manifest


def registry_manifests() -> dict[str, dict]:
    """The shipped fixtures, the paper's Examples 5.2–5.6, each one builder call."""
    entries = {
        "example_5_2_n1": flat_product_manifest(1, 2.0, (1.0,), seed=21),
        "example_5_2_n2": flat_product_manifest(2, -3.0, (1.0, -1.0), seed=22),
        "example_5_3_k1_l1": curved_product_manifest(1, 1.0, 1.0, (1.0,), seed=31),
        "example_5_3_k1_l2": curved_product_manifest(1, 1.0, 2.0, (1.0,), seed=32),
        "example_5_5_normal": model_manifest(
            "normal", involution=[[0.0, 1.0], [1.0, 0.0]], seed=51),
        "example_5_5_multinomial": model_manifest(
            "multinomial", {"categories": 3}, involution=[[1.0, 0.0], [0.0, -1.0]], seed=52),
        "example_5_5_dirichlet": model_manifest(
            "dirichlet", {"dim": 2}, involution=[[1.0, 0.0], [0.0, -1.0]], seed=53),
        "example_5_6_k1_l1": submersion_manifest(2, 1, 1.0, 1.0, (1.0, 1.0), seed=61),
        "example_5_6_k1_l2": submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0), seed=62),
    }
    for fixture_id, data in entries.items():
        data["name"] = fixture_id
    return entries


def fixture_ids() -> list[str]:
    return sorted(registry_manifests())


def load_fixture(fixture_id: str, known_checks=None) -> Manifest:
    """Parse a shipped fixture, as its builder makes it, into a validated manifest."""
    manifests = registry_manifests()
    if fixture_id not in manifests:
        raise ManifestError(f"unknown fixture {fixture_id!r}; known: {', '.join(sorted(manifests))}")
    return parse_manifest(manifests[fixture_id], name=fixture_id, known_checks=known_checks)

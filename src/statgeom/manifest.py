"""Structured manifests describing a fixture and the checks to run on it.

A manifest is a JSON object.  Metric fixtures carry a chart plus expression
grids; model fixtures name a built-in exponential family instead.  Exactly
one of the two must be present.  All expressions are parsed against the
declared coordinates while loading, so a returned manifest is fully
validated.

What is kept per manifest and what is built per run:

* :func:`parse_manifest` parses and validates every block once and keeps the
  results as fields of the :class:`Manifest`: ``total`` and a submersion's
  ``base`` (each a chart with the :class:`geometry.ComponentGrid` of its
  metric, connection and product blocks), or the ``model`` (its potential ψ
  and the Fisher grid ∂_i ∂_j ψ, derived once) with its ``alphas`` and
  ``involution``; and ``space_form_c``.  These are inputs only: trees,
  layouts, walk plans and numbers, never a field or a computed array.  The declared seed is the one parsed: a metric
  manifest's comes from its ``chart`` block, a model manifest's from its top
  level.
* :func:`build_context`, called once per run, builds everything else from
  them without parsing, differentiating or planning a walk: charts sampled
  with the run's seed, and fresh fields over the kept grids, the model's
  Fisher metric among them, each an empty store plus its template of the
  grid's constants.  A grid's walk plan is made at its first batch and then
  serves every run; no numeric result of one run serves another.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
import numpy as np

from . import expr as ex
from .expfam import ExpFamilyModel, builtin_model
from .geometry import (
    DEFAULT_POINT_COUNT,
    DEFAULT_TOLERANCE,
    ChartSpec,
    ComponentGrid,
    ExpressionField,
    ManifoldSpec,
    MetricField,
    sample_points,
)
from .submersion import SubmersionSpec, check_dimensions


class ManifestError(ValueError):
    """Malformed or semantically invalid manifest data."""


# The most work one manifest may ask for (stored jets grow as n^4 per point, derived
# ones take O(n^5)), checked while parsing and for ``statgeom verify --points``.
LIMITS = {"dimension": 12, "points": 1000}

_TOP_KEYS = {"name", "chart", "params", "metric", "connection", "product",
             "submersion", "model", "checks", "points", "tolerances",
             "space_form_c", "seed"}
_BASE_KEYS = {"chart", "params", "metric", "connection", "product"}
_MODEL_KEYS = {"name", "hyperparams", "alpha", "involution"}


@dataclass(frozen=True)
class _ParsedManifold:
    """A manifold block as parsed: its chart, with the declared seed, and its component grids."""

    chart: ChartSpec
    metric: ComponentGrid
    connection: ComponentGrid | None = None
    product: ComponentGrid | None = None

    def build(self, where: str, seed=None) -> ManifoldSpec:
        """A spec with fresh fields over the kept grids, its chart sampled with ``seed`` if given."""
        return ManifoldSpec(
            chart=_reseeded(self.chart, seed, f"{where}: "),
            metric=MetricField(self.metric),
            connection=None if self.connection is None else ExpressionField(self.connection),
            product=None if self.product is None else ExpressionField(self.product),
        )


def _reseeded(chart: ChartSpec, seed, prefix: str) -> ChartSpec:
    """``chart`` sampled with ``seed``, or ``chart`` itself when ``seed`` is None."""
    if seed is None:
        return chart
    try:
        return dataclasses.replace(chart, seed=int(seed))
    except ValueError as err:
        raise ManifestError(f"{prefix}{err}") from err


@dataclass(frozen=True)
class Manifest:
    """A validated manifest; ``data`` is the raw JSON tree it came from.

    The parse that every run builds its context from is kept here: ``total``
    (and a submersion's ``base``), each a chart with its component grids, or
    the ``model`` with its ``alphas`` and ``involution``; and ``space_form_c``.
    """

    name: str
    data: dict
    checks: tuple[str, ...]
    points: int
    tolerances: dict
    total: _ParsedManifold | None = dataclasses.field(default=None, repr=False, compare=False)
    base: _ParsedManifold | None = dataclasses.field(default=None, repr=False, compare=False)
    model: ExpFamilyModel | None = dataclasses.field(default=None, repr=False, compare=False)
    alphas: tuple[float, ...] = ()
    involution: np.ndarray | None = dataclasses.field(default=None, repr=False, compare=False)
    space_form_c: float | None = None

    @property
    def seed(self) -> int:
        """The declared seed: that of the model's chart, or of the manifold's."""
        return (self.total if self.model is None else self.model).chart.seed


@dataclass(frozen=True)
class VerificationContext:
    """The objects of one run, built from a manifest by :func:`build_context`.

    Each call builds new ones, so the stores of one run serve no other.
    """

    chart: ChartSpec
    manifold: ManifoldSpec | None = None
    submersion: SubmersionSpec | None = None
    model: ExpFamilyModel | None = None
    alphas: tuple[float, ...] = ()
    involution: np.ndarray | None = None
    space_form_c: float | None = None


def _integer(value, what: str) -> int:
    """A JSON integer; booleans and floats are rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ManifestError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A finite JSON number; booleans are rejected rather than read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ManifestError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def load_manifest(path, known_checks=None) -> Manifest:
    """Read and fully validate a manifest file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise ManifestError(f"cannot read manifest {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ManifestError(
            f"manifest {path} is not valid JSON: {err.msg} at line {err.lineno} column {err.colno}"
        ) from err
    except ValueError as err:  # bytes that are not UTF-8, or an integer too long to convert
        raise ManifestError(f"manifest {path} cannot be read: {err}") from err
    name = (data.get("name") if isinstance(data, dict) else None) or _stem(path)
    return parse_manifest(data, name=name, known_checks=known_checks)


def _stem(path) -> str:
    text = str(path)
    base = text.rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0]


def parse_manifest(data, name: str = "manifest", known_checks=None) -> Manifest:
    """Validate a manifest tree, parsing every expression once; the result keeps the parse."""
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ManifestError(f"unknown manifest keys: {sorted(unknown)}")

    has_metric = "metric" in data
    has_model = "model" in data
    if has_metric == has_model:
        raise ManifestError("manifest must contain exactly one of 'metric' or 'model'")

    checks = data.get("checks")
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks) or not checks:
        raise ManifestError("'checks' must be a non-empty list of check names")
    if len(set(checks)) < len(checks):  # each check's rows would appear twice in the report
        raise ManifestError(f"'checks' lists a check more than once: {checks}")
    if known_checks is not None:
        bad = [c for c in checks if c not in known_checks]
        if bad:
            raise ManifestError(f"unknown checks: {bad}; known: {sorted(known_checks)}")

    points = _integer(data.get("points", 25), "'points'")
    if points < 1:
        raise ManifestError(f"'points' must be a positive integer, got {points!r}")
    if points > LIMITS["points"]:
        raise ManifestError(f"'points' must be at most {LIMITS['points']}, got {points}")

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ManifestError("'tolerances' must be an object")
    for key, value in tolerances.items():
        if key not in checks:
            raise ManifestError(f"tolerance override for undeclared check {key!r}")
        if _number(value, f"tolerance for {key!r}") <= 0:
            raise ManifestError(f"tolerance for {key!r} must be a positive number")

    return Manifest(
        name=str(name),
        data=data,
        checks=tuple(checks),
        points=points,
        tolerances={k: float(v) for k, v in tolerances.items()},
        **_parse_subject(data),
    )


def _parse_chart(data, where: str) -> ChartSpec:
    if not isinstance(data, dict):
        raise ManifestError(f"{where}: chart must be an object")
    unknown = set(data) - {"coords", "box", "seed", "dim"}
    if unknown:
        raise ManifestError(f"{where}: unknown chart keys: {sorted(unknown)}")
    coords = data.get("coords")
    if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
        raise ManifestError(f"{where}: 'coords' must be a list of names")
    if len(coords) > LIMITS["dimension"]:
        raise ManifestError(f"{where}: {len(coords)} coordinates, above the limit of {LIMITS['dimension']}")
    if len(set(coords)) != len(coords):
        raise ManifestError(f"{where}: duplicate coordinate names in {coords}")
    box = data.get("box")
    if (not isinstance(box, list) or len(box) != len(coords)
            or not all(isinstance(iv, list) and len(iv) == 2 for iv in box)):
        raise ManifestError(f"{where}: 'box' must list one [low, high] pair per coordinate")
    if "dim" in data and data["dim"] != len(coords):
        raise ManifestError(f"{where}: declared dim {data['dim']} != {len(coords)} coordinates")
    seed = _integer(data.get("seed", 0), f"{where}: chart 'seed'")
    domain = tuple(tuple(_number(bound, f"{where}: box bound") for bound in interval)
                   for interval in box)
    try:
        return ChartSpec(coord_names=tuple(coords), domain=domain, seed=int(seed))
    except ValueError as err:
        raise ManifestError(f"{where}: {err}") from err


def _parse_field_grid(entries, coords, params, where: str, depth: int):
    n = len(coords)

    def walk(node, label, rank):
        """The fields under ``node``, a grid of rank ``rank`` (0: one string), checked depth first."""
        if rank == 0:
            if not isinstance(node, str):
                raise ManifestError(f"{where}{label}: expected an expression string, got {node!r}")
            try:
                return ex.parse_expression(node, coords, params)
            except ex.ParseError as err:
                raise ManifestError(f"{where}{label}: {err}") from err
        if not isinstance(node, list) or len(node) != n:
            raise ManifestError(f"{where}{label}: expected {n} entries")
        return [walk(item, f"{label}[{i}]", rank - 1) for i, item in enumerate(node)]

    return walk(entries, "", depth)


def _defined_values(field: ex.ScalarField, points: np.ndarray) -> np.ndarray:
    """Values of ``field`` at ``points``, NaN where it cannot be evaluated."""
    try:
        return ex.eval_points(field, points)
    except ex.EvaluationError:
        if len(points) == 1:
            return np.array([np.nan])
        return np.concatenate([_defined_values(field, p[None]) for p in points])


def _check_symmetric(grid, entries, chart: ChartSpec, where: str) -> None:
    """Refuse a grid whose two triangles differ as functions.

    Only the upper triangle is read, so the lower one must agree with it.
    Entries written alike agree; others are compared by value at the box
    center and the sample points, within the default tolerance scaled by
    one plus their magnitude, and must fail to evaluate at the same points.
    """
    points = None
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            if entries[i][j] == entries[j][i]:
                continue
            if points is None:
                points = np.vstack([chart.center, sample_points(chart, DEFAULT_POINT_COUNT)])
            upper = _defined_values(grid[i][j], points)
            lower = _defined_values(grid[j][i], points)
            scale = 1.0 + np.maximum(np.abs(upper), np.abs(lower))
            agree = (np.isnan(upper) & np.isnan(lower)) | (
                np.abs(upper - lower) <= DEFAULT_TOLERANCE * scale)
            if not np.all(agree):
                raise ManifestError(
                    f"{where} must be symmetric: [{i}][{j}] is {entries[i][j]!r} but "
                    f"[{j}][{i}] is {entries[j][i]!r}, which differ at "
                    f"{points[np.argmin(agree)].tolist()}"
                )


def _parse_manifold(data, where: str) -> _ParsedManifold:
    if "chart" not in data:
        raise ManifestError(f"{where}: missing 'chart'")
    if "metric" not in data:
        raise ManifestError(f"{where}: missing 'metric'")
    chart = _parse_chart(data["chart"], where)
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ManifestError(f"{where}: 'params' must be an object")
    params = {key: _number(value, f"{where}: parameter {key!r}") for key, value in params.items()}
    coords = chart.coord_names
    for key in params:
        if key in coords:  # the expression parser would read the coordinate and drop the value
            raise ManifestError(f"{where}: parameter {key!r} has the name of a coordinate")
    entries = data["metric"]
    grid = _parse_field_grid(entries, coords, params, f"{where}.metric", 2)
    _check_symmetric(grid, entries, chart, f"{where}.metric")
    grids = {key: ComponentGrid(_parse_field_grid(data[key], coords, params, f"{where}.{key}", rank))
             for key, rank in (("connection", 3), ("product", 2)) if key in data}
    return _ParsedManifold(chart=chart, metric=ComponentGrid(grid, symmetric=True), **grids)


def _parse_subject(data: dict) -> dict:
    """The subject's blocks parsed, as :class:`Manifest` fields: a model, or a manifold and its base."""
    space_form_c = data.get("space_form_c")
    if space_form_c is not None:
        space_form_c = _number(space_form_c, "'space_form_c'")

    if "model" in data:
        block = data["model"]
        if not isinstance(block, dict):
            raise ManifestError("'model' must be an object")
        unknown = set(block) - _MODEL_KEYS
        if unknown:
            raise ManifestError(f"unknown model keys: {sorted(unknown)}")
        for key in ("chart", "params", "connection", "product", "submersion"):
            if key in data:
                raise ManifestError(f"model manifests must not carry {key!r}")
        model_name = block.get("name")
        if not isinstance(model_name, str):
            raise ManifestError("model block needs a 'name'")
        hyper = block.get("hyperparams", {})
        if not isinstance(hyper, dict) or {"name", "seed"} & set(hyper):
            raise ManifestError("model 'hyperparams' must be an object of the model's own parameters")
        for key, extra in (("dim", 0), ("categories", 1)):  # a model's chart dimension + extra
            value = hyper.get(key)
            if type(value) is int and value - extra > LIMITS["dimension"]:
                raise ManifestError(f"model {key!r} {value} asks for {value - extra} coordinates, "
                                    f"above the limit of {LIMITS['dimension']}")
        seed = _integer(data.get("seed", 0), "'seed'")
        try:
            model = builtin_model(model_name, seed=seed, **hyper)
        except ValueError as err:
            raise ManifestError(str(err)) from err
        alphas = block.get("alpha", [-1.0, 0.0, 1.0])
        if not isinstance(alphas, list):
            raise ManifestError("model 'alpha' must be a list of numbers")
        alphas = tuple(_number(a, "model 'alpha' entry") for a in alphas)
        labels = [f"{a:g}" for a in alphas]  # the names of the alpha_family[...] rows
        if len(set(labels)) < len(labels):
            raise ManifestError(f"model 'alpha' values name one report row twice: {labels}")
        involution = block.get("involution")
        if involution is not None:
            n = model.dim
            if (not isinstance(involution, list) or len(involution) != n
                    or not all(isinstance(row, list) and len(row) == n for row in involution)):
                raise ManifestError(f"involution must be a {n}x{n} list of rows")
            involution = np.array([[_number(x, "involution entry") for x in row] for row in involution])
            involution.flags.writeable = False
        return {"model": model, "alphas": alphas, "involution": involution,
                "space_form_c": space_form_c}

    if "seed" in data:  # the chart's seed is the one read
        raise ManifestError("a metric manifest's 'seed' goes in its 'chart' block")
    total = _parse_manifold(data, "manifest")
    base = None
    if "submersion" in data:
        block = data["submersion"]
        if not isinstance(block, dict) or "base" not in block:
            raise ManifestError("'submersion' must be an object with a 'base' manifold")
        unknown = set(block) - {"base"}
        if unknown:
            raise ManifestError(f"unknown submersion keys: {sorted(unknown)}")
        base_data = block["base"]
        if not isinstance(base_data, dict):
            raise ManifestError("submersion 'base' must be an object")
        unknown = set(base_data) - _BASE_KEYS
        if unknown:
            raise ManifestError(f"unknown base keys: {sorted(unknown)}")
        base = _parse_manifold(base_data, "submersion.base")
        try:
            check_dimensions(base.chart.dim, total.chart.dim)
        except ValueError as err:
            raise ManifestError(str(err)) from err
    return {"total": total, "base": base, "space_form_c": space_form_c}


def build_context(manifest: Manifest, seed=None) -> VerificationContext:
    """A fresh context for one run from the parsed blocks, sampled with ``seed`` if given.

    Nothing is parsed, differentiated, checked or planned again: the fields, a
    model's Fisher metric among them, are new stores over the kept grids,
    which they share with every other run, so their stores start empty and
    their walks use the plans the grids keep.
    """
    if manifest.model is not None:
        model = dataclasses.replace(manifest.model, chart=_reseeded(manifest.model.chart, seed, ""))
        return VerificationContext(chart=model.chart, model=model, alphas=manifest.alphas,
                                   involution=manifest.involution,
                                   space_form_c=manifest.space_form_c)
    total = manifest.total.build("manifest", seed)
    submersion = None
    if manifest.base is not None:
        submersion = SubmersionSpec(total=total, base=manifest.base.build("submersion.base"))
    return VerificationContext(chart=total.chart, manifold=total, submersion=submersion,
                               space_form_c=manifest.space_form_c)

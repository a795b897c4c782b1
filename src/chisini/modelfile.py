"""Model files: a single JSON document describing a space, named
utilities, partitions, acts, functionals and audit settings.

Schema version "chisini-model/1".  Validation is strict: unknown fields
are rejected with the JSON path of the offense, every cross-reference must
resolve, and weights may be given as decimal strings where exactness
matters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from .curves import (
    Curve,
    ExponentialCurve,
    LinearCurve,
    PiecewiseLinearCurve,
    PowerCurve,
)
from .errors import ModelFileError
from .spaces import Act, FiniteSpace, PartitionAlgebra
from .utility import AdditiveRepresentation, PreferenceFunctional, StateUtility

SCHEMA_VERSION = "chisini-model/1"

_TOP_KEYS = {
    "version",
    "space",
    "utilities",
    "partitions",
    "acts",
    "functionals",
    "settings",
}
_SETTINGS_KEYS = {"grid", "tolerance", "cap", "repair_epsilon", "repair_bound"}
_FUNCTIONAL_KEYS = {"kind", "utility", "exponent", "values", "expect"}
_EXPECT_KEYS = {"sure_thing", "conditionable"}
_CURVE_KEYS = {
    "family",
    "scale",
    "gamma",
    "exponent",
    "knots",
    "slope_left",
    "slope_right",
}


@dataclass(frozen=True)
class Settings:
    grid: tuple[float, ...] = (-1.0, 0.0, 1.0)
    tolerance: float = 1e-9
    cap: int = 20
    repair_epsilon: float = 0.5
    repair_bound: float = 4.0


@dataclass(frozen=True)
class ModelFile:
    space: FiniteSpace
    utilities: dict[str, StateUtility]
    partitions: dict[str, PartitionAlgebra]
    acts: dict[str, Act]
    functionals: dict[str, dict]
    settings: Settings
    raw: dict = field(repr=False, default_factory=dict)

    def utility(self, name: str) -> StateUtility:
        return _resolve(self.utilities, name, "utilities")

    def representation(self, name: str) -> AdditiveRepresentation:
        return AdditiveRepresentation(self.utility(name))

    def partition(self, name: str) -> PartitionAlgebra:
        return _resolve(self.partitions, name, "partitions")

    def act(self, name: str) -> Act:
        return _resolve(self.acts, name, "acts")

    def functional(self, name: str) -> PreferenceFunctional:
        from .audit import (
            choquet_functional,
            expected_utility_functional,
            grid_table_functional,
        )

        spec = _resolve(self.functionals, name, "functionals")
        kind = spec["kind"]
        grid = self.settings.grid
        if kind == "expected-utility":
            rep = AdditiveRepresentation(self.utilities[spec["utility"]])
            return expected_utility_functional(rep, grid, name=name)
        if kind == "choquet":
            return choquet_functional(self.space, spec["exponent"], grid, name=name)
        return grid_table_functional(self.space, grid, spec["values"], name=name)

    def expected_profile(self, name: str) -> dict | None:
        return _resolve(self.functionals, name, "functionals").get("expect")


def _resolve(table: dict, name: str, section: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "none defined"
        raise ModelFileError(f"{section}.{name}", f"unknown name (have: {known})")
    return table[name]


def _require_keys(mapping: dict, allowed: set, required: set, path: str) -> None:
    if not isinstance(mapping, dict):
        raise ModelFileError(path, "expected an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ModelFileError(
            f"{path}.{sorted(unknown)[0]}", "unknown field (schema is strict)"
        )
    missing = required - set(mapping)
    if missing:
        raise ModelFileError(f"{path}.{sorted(missing)[0]}", "required field missing")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ModelFileError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except ValueError:
        raise ModelFileError(path, f"not a number: {value!r}") from None
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ModelFileError(path, f"expected a finite number, got {value!r}")
    return number


def _number_list(values, path: str) -> list[float]:
    if not isinstance(values, list):
        raise ModelFileError(path, "expected a list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _parse_curve(spec: dict, path: str) -> Curve:
    _require_keys(spec, _CURVE_KEYS, set(), path)
    if "knots" in spec:
        for key in ("family", "scale", "gamma", "exponent"):
            if key in spec:
                raise ModelFileError(
                    f"{path}.{key}", "knot tables take only slopes"
                )
        knots = spec["knots"]
        _require_keys(knots, {"x", "u"}, {"x", "u"}, f"{path}.knots")
        xs = _number_list(knots["x"], f"{path}.knots.x")
        us = _number_list(knots["u"], f"{path}.knots.u")
        try:
            return PiecewiseLinearCurve(
                tuple(xs),
                tuple(us),
                _number(spec.get("slope_left", 1.0), f"{path}.slope_left"),
                _number(spec.get("slope_right", 1.0), f"{path}.slope_right"),
            )
        except ValueError as exc:
            raise ModelFileError(path, str(exc)) from None
    family = spec.get("family")
    if family == "linear":
        return LinearCurve(_number(spec.get("scale", 1.0), f"{path}.scale"))
    if family == "exponential":
        if "gamma" not in spec:
            raise ModelFileError(f"{path}.gamma", "required field missing")
        return ExponentialCurve(_number(spec["gamma"], f"{path}.gamma"))
    if family == "power":
        if "exponent" not in spec:
            raise ModelFileError(f"{path}.exponent", "required field missing")
        return PowerCurve(_number(spec["exponent"], f"{path}.exponent"))
    raise ModelFileError(
        f"{path}.family",
        f"unknown family {family!r} (linear | exponential | power, or knots)",
    )


def _parse_utility(spec, space: FiniteSpace, path: str) -> StateUtility:
    if not isinstance(spec, dict):
        raise ModelFileError(path, "expected an object")
    if "per_outcome" in spec:
        extra = set(spec) - {"per_outcome"}
        if extra:
            raise ModelFileError(
                f"{path}.{sorted(extra)[0]}",
                "per_outcome utilities take no other fields",
            )
        curves = spec["per_outcome"]
        if not isinstance(curves, list) or len(curves) != space.size:
            raise ModelFileError(
                f"{path}.per_outcome", f"expected {space.size} curve objects"
            )
        return StateUtility(
            space,
            tuple(
                _parse_curve(c, f"{path}.per_outcome[{i}]")
                for i, c in enumerate(curves)
            ),
        )
    return StateUtility.state_independent(space, _parse_curve(spec, path))


def parse_model(doc: dict) -> ModelFile:
    _require_keys(doc, _TOP_KEYS, {"version", "space"}, "$")
    if doc["version"] != SCHEMA_VERSION:
        raise ModelFileError(
            "$.version", f"expected {SCHEMA_VERSION!r}, got {doc['version']!r}"
        )
    space_spec = doc["space"]
    _require_keys(space_spec, {"outcomes", "weights"}, {"outcomes", "weights"}, "$.space")
    outcomes = space_spec["outcomes"]
    if not isinstance(outcomes, list) or not all(
        isinstance(o, str) for o in outcomes
    ):
        raise ModelFileError("$.space.outcomes", "expected a list of strings")
    weights = _number_list(space_spec["weights"], "$.space.weights")
    try:
        space = FiniteSpace(tuple(outcomes), tuple(weights))
    except ValueError as exc:
        raise ModelFileError("$.space", str(exc)) from None

    utilities = {}
    for name, spec in (doc.get("utilities") or {}).items():
        utilities[name] = _parse_utility(spec, space, f"$.utilities.{name}")

    partitions = {}
    for name, blocks in (doc.get("partitions") or {}).items():
        path = f"$.partitions.{name}"
        if not isinstance(blocks, list):
            raise ModelFileError(path, "expected a list of outcome lists")
        try:
            partitions[name] = PartitionAlgebra.from_labels(space, blocks)
        except (ValueError, KeyError) as exc:
            raise ModelFileError(path, str(exc)) from None

    acts = {}
    for name, values in (doc.get("acts") or {}).items():
        path = f"$.acts.{name}"
        parsed = _number_list(values, path)
        if len(parsed) != space.size:
            raise ModelFileError(path, f"expected {space.size} values")
        acts[name] = Act(space, tuple(parsed))

    settings = _parse_settings(doc.get("settings") or {}, "$.settings")

    functionals = {}
    for name, spec in (doc.get("functionals") or {}).items():
        path = f"$.functionals.{name}"
        _require_keys(spec, _FUNCTIONAL_KEYS, {"kind"}, path)
        kind = spec["kind"]
        if kind == "expected-utility":
            if "utility" not in spec:
                raise ModelFileError(f"{path}.utility", "required field missing")
            if spec["utility"] not in utilities:
                raise ModelFileError(
                    f"{path}.utility", f"unknown utility {spec['utility']!r}"
                )
        elif kind == "choquet":
            if "exponent" not in spec:
                raise ModelFileError(f"{path}.exponent", "required field missing")
            spec = dict(spec, exponent=_number(spec["exponent"], f"{path}.exponent"))
        elif kind == "grid-table":
            if "values" not in spec:
                raise ModelFileError(f"{path}.values", "required field missing")
            values = _number_list(spec["values"], f"{path}.values")
            want = len(settings.grid) ** space.size
            if len(values) != want:
                raise ModelFileError(
                    f"{path}.values", f"expected {want} entries for the grid"
                )
            spec = dict(spec, values=values)
        else:
            raise ModelFileError(
                f"{path}.kind",
                f"unknown kind {kind!r} "
                "(expected-utility | choquet | grid-table)",
            )
        if "expect" in spec:
            _require_keys(spec["expect"], _EXPECT_KEYS, set(), f"{path}.expect")
            for key, value in spec["expect"].items():
                if not isinstance(value, bool):
                    raise ModelFileError(
                        f"{path}.expect.{key}", "expected true or false"
                    )
        functionals[name] = spec

    return ModelFile(
        space=space,
        utilities=utilities,
        partitions=partitions,
        acts=acts,
        functionals=functionals,
        settings=settings,
        raw=doc,
    )


def _parse_settings(spec: dict, path: str) -> Settings:
    _require_keys(spec, _SETTINGS_KEYS, set(), path)
    kwargs: dict[str, Any] = {}
    if "grid" in spec:
        grid = tuple(sorted(_number_list(spec["grid"], f"{path}.grid")))
        if len(set(grid)) != len(grid):
            raise ModelFileError(f"{path}.grid", "grid values must be distinct")
        if len(grid) < 2:
            raise ModelFileError(f"{path}.grid", "expected at least two grid values")
        kwargs["grid"] = grid
    if "tolerance" in spec:
        kwargs["tolerance"] = _number(spec["tolerance"], f"{path}.tolerance")
    if "cap" in spec:
        cap = spec["cap"]
        if isinstance(cap, bool) or not isinstance(cap, int):
            raise ModelFileError(f"{path}.cap", "expected an integer")
        kwargs["cap"] = cap
    if "repair_epsilon" in spec:
        kwargs["repair_epsilon"] = _number(
            spec["repair_epsilon"], f"{path}.repair_epsilon"
        )
    if "repair_bound" in spec:
        kwargs["repair_bound"] = _number(
            spec["repair_bound"], f"{path}.repair_bound"
        )
    return Settings(**kwargs)


def load_model(path: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ModelFileError("$", f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ModelFileError("$", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFileError("$", "top level must be an object")
    return parse_model(doc)


def curve_to_spec(curve: Curve) -> dict:
    """Serialize a curve back into the model-file schema."""
    if isinstance(curve, LinearCurve):
        return {"family": "linear", "scale": curve.scale}
    if isinstance(curve, ExponentialCurve):
        return {"family": "exponential", "gamma": curve.gamma}
    if isinstance(curve, PowerCurve):
        return {"family": "power", "exponent": curve.exponent}
    if isinstance(curve, PiecewiseLinearCurve):
        return {
            "knots": {"x": list(curve.xs), "u": list(curve.us)},
            "slope_left": curve.slope_left,
            "slope_right": curve.slope_right,
        }
    raise ModelFileError("$", f"curve {type(curve).__name__} is not serializable")


def utility_to_spec(utility: StateUtility) -> dict:
    curves = utility.curves
    if all(c == curves[0] for c in curves[1:]):
        return curve_to_spec(curves[0])
    return {"per_outcome": [curve_to_spec(c) for c in curves]}

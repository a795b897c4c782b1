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

from .curves import (
    Curve,
    ExponentialCurve,
    LinearCurve,
    PiecewiseLinearCurve,
    PowerCurve,
)
from .errors import ModelFileError
from .spaces import Act, FiniteSpace, PartitionAlgebra
from .utility import (
    AdditiveRepresentation,
    PreferenceFunctional,
    StateUtility,
    ensure_regular,
)

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
_EXPECT_KEYS = {"sure_thing", "conditionable"}

#: Curve family -> (curve class, its one parameter, the parameter's
#: default, or None where the parameter is required).  Knot tables are not
#: a family: they are recognized by their "knots" field.
_FAMILIES = {
    "linear": (LinearCurve, "scale", 1.0),
    "exponential": (ExponentialCurve, "gamma", None),
    "power": (PowerCurve, "exponent", None),
}
_KNOT_KEYS = {"knots", "slope_left", "slope_right"}

#: Functional kind -> the one field it requires besides "kind"; "expect"
#: is allowed for every kind.
_KINDS = {
    "expected-utility": "utility",
    "choquet": "exponent",
    "grid-table": "values",
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
            ensure_regular(rep.utility)  # as compute does, before any evaluation
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


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ModelFileError(path, "expected an object")
    return value


def _section(doc: dict, name: str) -> dict:
    """A top-level section; absent or null is empty."""
    value = doc.get(name)
    return _object({} if value is None else value, f"$.{name}")


def _require_keys(mapping: dict, allowed, required: set, path: str) -> None:
    unknown = set(_object(mapping, path)).difference(allowed)
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


def _entry(table: dict, key, path: str, what: str, other: str = ""):
    if isinstance(key, str) and key in table:
        return table[key]
    raise ModelFileError(path, f"unknown {what} {key!r} ({' | '.join(table)}{other})")


def _parse_curve(spec, path: str) -> Curve:
    if "knots" in _object(spec, path):
        stray = sorted(set(spec) - _KNOT_KEYS)
        if stray:
            raise ModelFileError(f"{path}.{stray[0]}", "knot tables take only slopes")
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
    cls, param, default = _entry(
        _FAMILIES, spec.get("family"), f"{path}.family", "family", ", or knots"
    )
    _require_keys(spec, {"family", param}, {param} if default is None else set(), path)
    return cls(_number(spec.get(param, default), f"{path}.{param}"))


def _parse_utility(spec, space: FiniteSpace, path: str) -> StateUtility:
    if "per_outcome" in _object(spec, path):
        _require_keys(spec, {"per_outcome"}, set(), path)
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
    for name, spec in _section(doc, "utilities").items():
        utilities[name] = _parse_utility(spec, space, f"$.utilities.{name}")

    partitions = {}
    for name, blocks in _section(doc, "partitions").items():
        path = f"$.partitions.{name}"
        if not isinstance(blocks, list):
            raise ModelFileError(path, "expected a list of outcome lists")
        for i, block in enumerate(blocks):
            if not isinstance(block, list):
                raise ModelFileError(f"{path}[{i}]", "expected a list of outcomes")
        try:
            partitions[name] = PartitionAlgebra.from_labels(space, blocks)
        except (ValueError, KeyError, IndexError) as exc:
            raise ModelFileError(path, str(exc)) from None

    acts = {}
    for name, values in _section(doc, "acts").items():
        path = f"$.acts.{name}"
        parsed = _number_list(values, path)
        if len(parsed) != space.size:
            raise ModelFileError(path, f"expected {space.size} values")
        acts[name] = Act(space, tuple(parsed))

    settings = _parse_settings(_section(doc, "settings"), "$.settings")

    functionals = {}
    for name, spec in _section(doc, "functionals").items():
        path = f"$.functionals.{name}"
        kind = _object(spec, path).get("kind")
        key = _entry(_KINDS, kind, f"{path}.kind", "kind")
        _require_keys(spec, {"kind", key, "expect"}, {key}, path)
        value, value_path = spec[key], f"{path}.{key}"
        if kind == "expected-utility":
            if not isinstance(value, str) or value not in utilities:
                raise ModelFileError(value_path, f"unknown utility {value!r}")
        elif kind == "choquet":  # P(A)**p is a capacity only for p > 0
            value = _positive(value, value_path)
        else:
            value = _number_list(value, value_path)
            want = len(settings.grid) ** space.size
            if len(value) != want:
                raise ModelFileError(
                    value_path, f"expected {want} entries for the grid"
                )
        spec = {**spec, key: value}
        if "expect" in spec:
            _require_keys(spec["expect"], _EXPECT_KEYS, set(), f"{path}.expect")
            for verdict, flag in spec["expect"].items():
                if not isinstance(flag, bool):
                    raise ModelFileError(
                        f"{path}.expect.{verdict}", "expected true or false"
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


def _grid(values, path: str) -> tuple[float, ...]:
    grid = tuple(sorted(_number_list(values, path)))
    if len(set(grid)) != len(grid):
        raise ModelFileError(path, "grid values must be distinct")
    if len(grid) < 2:
        raise ModelFileError(path, "expected at least two grid values")
    return grid


def _positive(value, path: str) -> float:
    number = _number(value, path)
    if number <= 0.0:
        raise ModelFileError(path, f"expected a number > 0, got {value!r}")
    return number


def _cap(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ModelFileError(path, f"expected an integer >= 1, got {value!r}")
    return value


#: Setting -> its parser, which checks the setting's domain; the defaults
#: live in ``Settings``.  The CLI flags and CHISINI_CAP parse through it too.
_SETTINGS = {
    "grid": _grid,
    "tolerance": _positive,
    "cap": _cap,
    "repair_epsilon": _positive,
    "repair_bound": _positive,
}


def _parse_settings(spec: dict, path: str) -> Settings:
    _require_keys(spec, _SETTINGS, set(), path)
    return Settings(
        **{
            key: parse(spec[key], f"{path}.{key}")
            for key, parse in _SETTINGS.items()
            if key in spec
        }
    )


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
    if isinstance(curve, PiecewiseLinearCurve):
        return {
            "knots": {"x": list(curve.xs), "u": list(curve.us)},
            "slope_left": curve.slope_left,
            "slope_right": curve.slope_right,
        }
    for family, (cls, param, _) in _FAMILIES.items():
        if type(curve) is cls:
            return {"family": family, param: getattr(curve, param)}
    raise ModelFileError("$", f"curve {type(curve).__name__} is not serializable")


def utility_to_spec(utility: StateUtility) -> dict:
    curves = utility.curves
    if all(c == curves[0] for c in curves[1:]):
        return curve_to_spec(curves[0])
    return {"per_outcome": [curve_to_spec(c) for c in curves]}

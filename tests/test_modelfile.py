"""Model-file schema: every invalid document is refused with a
``ModelFileError`` naming the JSON path of the offense, and the
serializers used by ``chisini repair`` round-trip through the parser."""

import copy
import dataclasses
import json

import pytest

from chisini.curves import (
    ExponentialCurve,
    LinearCurve,
    PiecewiseLinearCurve,
    PowerCurve,
)
from chisini.errors import ModelFileError
from chisini.modelfile import (
    _SETTINGS,
    Settings,
    _parse_curve,
    _parse_utility,
    curve_to_spec,
    load_model,
    parse_model,
    utility_to_spec,
)
from chisini.spaces import FiniteSpace
from chisini.utility import StateUtility

BASE = {
    "version": "chisini-model/1",
    "space": {"outcomes": ["a", "b"], "weights": [0.5, 0.5]},
    "utilities": {"u": {"family": "linear"}},
    "partitions": {"p": [["a"], ["b"]]},
    "acts": {"x": [1.0, 2.0]},
    "functionals": {"f": {"kind": "expected-utility", "utility": "u"}},
    "settings": {"grid": [0.0, 1.0]},
}
KNOTS = {"x": [-1.0, 0.0, 1.0], "u": [-2.0, 0.0, 1.0]}
# grid [0, 1] on 2 outcomes: 2**2 entries
TABLE = [0.0, 1.0, 2.0, 3.0]


def with_entry(section, name, value):
    doc = copy.deepcopy(BASE)
    doc[section][name] = value
    return doc


INVALID = [
    # (id, section, name, value, path of the offense)
    ("missing-gamma", "utilities", "u", {"family": "exponential"},
     "$.utilities.u.gamma"),
    ("missing-exponent", "utilities", "u", {"family": "power"},
     "$.utilities.u.exponent"),
    ("missing-utility", "functionals", "f", {"kind": "expected-utility"},
     "$.functionals.f.utility"),
    ("missing-choquet-exponent", "functionals", "f", {"kind": "choquet"},
     "$.functionals.f.exponent"),
    ("missing-values", "functionals", "f", {"kind": "grid-table"},
     "$.functionals.f.values"),
    ("zero-choquet-exponent", "functionals", "f",
     {"kind": "choquet", "exponent": 0}, "$.functionals.f.exponent"),
    ("negative-choquet-exponent", "functionals", "f",
     {"kind": "choquet", "exponent": -0.5}, "$.functionals.f.exponent"),
    ("unknown-family", "utilities", "u", {"family": "cubic"},
     "$.utilities.u.family"),
    ("no-family", "utilities", "u", {"scale": 2.0}, "$.utilities.u.family"),
    ("list-family", "utilities", "u", {"family": ["linear"]},
     "$.utilities.u.family"),
    ("unknown-kind", "functionals", "f", {"kind": "median"},
     "$.functionals.f.kind"),
    ("list-kind", "functionals", "f", {"kind": ["choquet"]},
     "$.functionals.f.kind"),
    ("unknown-utility", "functionals", "f",
     {"kind": "expected-utility", "utility": "v"}, "$.functionals.f.utility"),
    ("list-utility", "functionals", "f",
     {"kind": "expected-utility", "utility": ["u"]}, "$.functionals.f.utility"),
    ("non-object-utility", "utilities", "u", 3, "$.utilities.u"),
    ("non-object-curve", "utilities", "u",
     {"per_outcome": [3, {"family": "linear"}]}, "$.utilities.u.per_outcome[0]"),
    ("per-outcome-with-family", "utilities", "u",
     {"per_outcome": [{"family": "linear"}] * 2, "family": "linear"},
     "$.utilities.u.family"),
    ("non-object-functional", "functionals", "f", "eu", "$.functionals.f"),
    ("non-list-partition", "partitions", "p", "a", "$.partitions.p"),
    ("non-list-block", "partitions", "p", [1.5], "$.partitions.p[0]"),
    ("string-block", "partitions", "p", [["a"], "b"], "$.partitions.p[1]"),
    ("out-of-range-index", "partitions", "p", [[0], [1, 7]], "$.partitions.p"),
    ("short-act", "acts", "x", [1.0], "$.acts.x"),
    ("duplicate-grid", "settings", "grid", [0.0, 0.0, 1.0], "$.settings.grid"),
    ("fractional-cap", "settings", "cap", 2.5, "$.settings.cap"),
    ("boolean-cap", "settings", "cap", True, "$.settings.cap"),
    ("zero-cap", "settings", "cap", 0, "$.settings.cap"),
    ("negative-cap", "settings", "cap", -3, "$.settings.cap"),
    ("zero-tolerance", "settings", "tolerance", 0, "$.settings.tolerance"),
    ("negative-tolerance", "settings", "tolerance", -1, "$.settings.tolerance"),
    ("zero-repair-epsilon", "settings", "repair_epsilon", 0,
     "$.settings.repair_epsilon"),
    ("negative-repair-bound", "settings", "repair_bound", -1,
     "$.settings.repair_bound"),
    ("unknown-setting", "settings", "seed", 1, "$.settings.seed"),
    ("short-table", "functionals", "f", {"kind": "grid-table", "values": [1.0]},
     "$.functionals.f.values"),
    ("knots-with-family", "utilities", "u",
     {"knots": KNOTS, "family": "linear"}, "$.utilities.u.family"),
    ("knots-with-scale", "utilities", "u", {"knots": KNOTS, "scale": 2.0},
     "$.utilities.u.scale"),
    ("non-boolean-expect", "functionals", "f",
     {"kind": "expected-utility", "utility": "u", "expect": {"sure_thing": 1}},
     "$.functionals.f.expect.sure_thing"),
]

STRAY = [
    # each entity takes only its own fields
    ("linear-exponent", "utilities", "u", {"family": "linear", "exponent": 2},
     "$.utilities.u.exponent"),
    ("power-gamma", "utilities", "u",
     {"family": "power", "exponent": 3, "gamma": 0.5}, "$.utilities.u.gamma"),
    ("grid-table-utility", "functionals", "f",
     {"kind": "grid-table", "values": TABLE, "utility": "nope"},
     "$.functionals.f.utility"),
    ("choquet-values", "functionals", "f",
     {"kind": "choquet", "exponent": 2, "values": TABLE},
     "$.functionals.f.values"),
    ("expected-utility-exponent", "functionals", "f",
     {"kind": "expected-utility", "utility": "u", "exponent": 2},
     "$.functionals.f.exponent"),
]


def assert_refused(doc, path):
    with pytest.raises(ModelFileError) as info:
        parse_model(doc)
    assert info.value.path == path
    return str(info.value)


@pytest.mark.parametrize(
    "section, name, value, path",
    [case[1:] for case in INVALID],
    ids=[case[0] for case in INVALID],
)
def test_invalid_document_names_its_path(section, name, value, path):
    assert_refused(with_entry(section, name, value), path)


@pytest.mark.parametrize(
    "section, name, value, path",
    [case[1:] for case in STRAY],
    ids=[case[0] for case in STRAY],
)
def test_stray_field_is_refused(section, name, value, path):
    message = assert_refused(with_entry(section, name, value), path)
    assert "unknown field" in message


SECTIONS = ["utilities", "partitions", "acts", "functionals", "settings"]


@pytest.mark.parametrize("section", SECTIONS)
def test_non_object_section_is_refused(section):
    # only an absent or null section is empty: a falsy value is refused too
    for value in ([1], False, 0, [], ""):
        doc = copy.deepcopy(BASE)
        doc[section] = value
        message = assert_refused(doc, f"$.{section}")
        assert message == f"$.{section}: expected an object"


@pytest.mark.parametrize("how", ["absent", "null"])
def test_absent_or_null_section_is_empty(how):
    doc = {"version": BASE["version"], "space": copy.deepcopy(BASE["space"])}
    if how == "null":
        doc.update(dict.fromkeys(SECTIONS))
    model = parse_model(doc)
    assert (model.utilities, model.partitions, model.acts, model.functionals) == (
        {}, {}, {}, {}
    )
    assert model.settings == Settings()


def test_settings_table_matches_the_dataclass():
    # a setting missing from the table would skip the shared domain check
    assert set(_SETTINGS) == {f.name for f in dataclasses.fields(Settings)}
    for key, parse in _SETTINGS.items():
        default = getattr(Settings(), key)
        raw = list(default) if isinstance(default, tuple) else default
        assert parse(raw, f"$.settings.{key}") == default


def test_base_document_parses():
    model = parse_model(copy.deepcopy(BASE))
    assert model.settings.grid == (0.0, 1.0)
    assert model.settings.cap == 20


@pytest.mark.parametrize(
    "text", ["{not json", "[1, 2]"], ids=["invalid-json", "non-object"]
)
def test_unreadable_document_is_refused_at_the_root(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ModelFileError) as info:
        load_model(str(path))
    assert info.value.path == "$"


@pytest.mark.parametrize(
    "curve",
    [
        LinearCurve(),
        LinearCurve(2.0),
        ExponentialCurve(0.5),
        PowerCurve(3.0),
        PiecewiseLinearCurve((-1.0, 0.0, 1.0), (-2.0, 0.0, 1.0), 2.0, 0.5),
    ],
    ids=["linear", "linear-scaled", "exponential", "power", "knots"],
)
def test_curve_round_trip(curve):
    spec = curve_to_spec(curve)
    assert _parse_curve(json.loads(json.dumps(spec)), "$") == curve


def test_per_outcome_utility_round_trip():
    space = FiniteSpace(("a", "b", "c"), (0.25, 0.25, 0.5))
    utility = StateUtility(
        space, (LinearCurve(), PowerCurve(3.0), ExponentialCurve(1.0))
    )
    spec = utility_to_spec(utility)
    assert sorted(spec) == ["per_outcome"]
    assert _parse_utility(spec, space, "$") == utility
    same = StateUtility.state_independent(space, PowerCurve(3.0))
    assert utility_to_spec(same) == {"family": "power", "exponent": 3.0}

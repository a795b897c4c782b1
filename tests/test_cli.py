"""End-to-end CLI tests: subcommands, exit codes, determinism."""

import argparse
import hashlib
import json
import math
import os
import random
import shutil

import pytest

from chisini import AdditiveRepresentation, conditional_expectation
from chisini.cli import cmd_compute, main
from chisini.errors import NumericRangeError
from chisini.modelfile import parse_model

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MODELS = os.path.join(ROOT, "models")


def model(name):
    return os.path.join(MODELS, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "--model", model("partition.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["utilities"] == ["entropic", "linear", "mixed", "table"]

    def test_unknown_field_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "version": "chisini-model/1",
                    "space": {"outcomes": ["a"], "weights": [1.0]},
                    "surprise": 1,
                }
            )
        )
        code, _, err = run(capsys, "validate", "--model", str(bad))
        assert code == 2
        assert "surprise" in err

    def test_wrong_version(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"version": "nope/9", "space": {"outcomes": ["a"], "weights": [1.0]}}
            )
        )
        code, _, err = run(capsys, "validate", "--model", str(bad))
        assert code == 2
        assert "version" in err

    def test_nan_weight_exits_2(self, capsys, tmp_path):
        with open(model("partition.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["space"]["weights"][0] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--model", str(path))
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "where, value",
        [
            (("utilities", "entropic", "gamma"), math.nan),
            (("acts", "swing", 1), math.inf),
            (("settings", "tolerance"), -math.inf),
            (("space", "weights", 0), "Infinity"),
            (("acts", "log-two", 0), 10**400),
        ],
        ids=["nan-gamma", "inf-act", "-inf-tolerance", "inf-weight", "huge-int"],
    )
    def test_non_finite_number_exits_2(self, capsys, tmp_path, where, value):
        with open(model("entropic.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(doc))
        for argv in (
            ("validate",),
            ("compute", "--utility", "entropic", "--act", "log-two",
             "--partition", "trivial"),
        ):
            code, out, err = run(capsys, *argv, "--model", str(path))
            assert code == 2
            assert out == ""
            assert "finite" in err
            assert where[0] in err

    @pytest.mark.parametrize("grid", [[1.0], []])
    def test_short_grid_exits_2(self, capsys, tmp_path, grid):
        with open(model("audit_zoo.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["settings"]["grid"] = grid
        path = tmp_path / "short_grid.json"
        path.write_text(json.dumps(doc))
        for argv in (
            ("validate",),
            ("audit", "--functional", "eu-linear"),
        ):
            code, out, err = run(capsys, *argv, "--model", str(path))
            assert code == 2
            assert out == ""
            assert "$.settings.grid" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "--model", "/nonexistent.json")
        assert code == 2


class TestCompute:
    def test_entropic_log_ratio(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--model", model("entropic.json"),
            "--utility", "entropic",
            "--act", "log-two",
            "--partition", "trivial",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["chisini_mean"][0] == pytest.approx(
            math.log(4.0 / 3.0), abs=1e-11
        )

    def test_linear_is_conditional_mean(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--model", model("partition.json"),
            "--utility", "linear",
            "--act", "payoff",
            "--partition", "weather",
        )
        assert code == 0
        doc = json.loads(out)
        # atom means under weights (.2,.3 | .1,.4)
        want_a = (0.2 * 1.0 + 0.3 * -0.5) / 0.5
        want_b = (0.1 * 2.0 + 0.4 * 0.25) / 0.5
        assert doc["atom_values"] == pytest.approx([want_a, want_b], abs=1e-12)

    def test_each_utility_is_read_once(self, capsys, monkeypatch):
        calls = []
        utilities = AdditiveRepresentation._utilities

        def counted(rep, f):
            calls.append(f)
            return utilities(rep, f)

        monkeypatch.setattr(AdditiveRepresentation, "_utilities", counted)
        code, out, _ = run(
            capsys,
            "compute",
            "--model", model("partition.json"),
            "--utility", "mixed",
            "--act", "payoff",
            "--partition", "weather",
        )
        assert code == 0 and json.loads(out)["ok"] is True
        assert len(calls) == 1

    def test_conditional_utility_matches_the_linear_oracle(self):
        """``conditional_utility`` comes from the solve's V_A(f); on random
        models, null outcomes and null atoms included, it is the float-hex
        conditional expectation of the utility act."""
        rng = random.Random(21)
        families = (
            lambda: {
                "family": "exponential",
                "gamma": rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0),
            },
            lambda: {"family": "power", "exponent": rng.uniform(0.5, 3.0)},
            lambda: {"family": "linear", "scale": rng.uniform(0.5, 2.0)},
        )
        seen = {"solved": 0, "range": 0}
        for case in range(400):
            n = rng.randint(1, 6)
            raw = [rng.random() if rng.random() > 0.25 else 0.0 for _ in range(n)]
            raw[rng.randrange(n)] += 1e-3
            outcomes = [f"w{i}" for i in range(n)]
            blocks = {}
            for name in outcomes:
                blocks.setdefault(rng.randrange(n), []).append(name)
            scale = rng.choice((2.0, 2.0, 900.0))
            curves = [rng.choice(families)() for _ in outcomes]
            doc = {
                "version": "chisini-model/1",
                "space": {"outcomes": outcomes, "weights": [w / sum(raw) for w in raw]},
                "utilities": {"u": {"per_outcome": curves}},
                "partitions": {"p": list(blocks.values())},
                "acts": {"f": [rng.uniform(-scale, scale) for _ in outcomes]},
            }
            parsed = parse_model(doc)
            solver = ("auto", "bisect")[case % 2]
            args = argparse.Namespace(
                utility="u", act="f", partition="p", solver=solver
            )
            try:
                report, _ = cmd_compute(parsed, args)
            except NumericRangeError:
                seen["range"] += 1
                continue
            seen["solved"] += 1
            rep, f = parsed.representation("u"), parsed.act("f")
            want = conditional_expectation(rep.utility_act(f), parsed.partition("p"))
            assert [v.hex() for v in report["conditional_utility"]] == [
                v.hex() for v in want.values
            ], (case, doc)
        assert seen["solved"] > 250 and seen["range"] > 10

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "compute",
            "--model", model("entropic.json"),
            "--utility", "nope",
            "--act", "log-two",
            "--partition", "trivial",
        )
        assert code == 2
        assert "nope" in err

    def test_irregular_utility_exits_3(self, capsys, tmp_path):
        doc = {
            "version": "chisini-model/1",
            "space": {"outcomes": ["a", "b"], "weights": [0.5, 0.5]},
            "utilities": {
                "flat": {"knots": {"x": [0.0, 1.0, 2.0], "u": [0.0, 1.0, 1.0]}}
            },
            "partitions": {"trivial": [["a", "b"]]},
            "acts": {"f": [0.5, 1.5]},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys,
            "compute",
            "--model", str(path),
            "--utility", "flat",
            "--act", "f",
            "--partition", "trivial",
        )
        assert code == 3
        assert "regular" in err

    def test_impossible_tolerance_exits_4(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--model", model("entropic.json"),
            "--utility", "entropic",
            "--act", "log-two",
            "--partition", "trivial",
            "--tol", "1e-30",
        )
        assert code == 4
        assert json.loads(out)["ok"] is False

    def test_cap_env_exits_5(self, capsys, monkeypatch):
        monkeypatch.setenv("CHISINI_CAP", "2")
        code, _, err = run(
            capsys,
            "compute",
            "--model", model("partition.json"),
            "--utility", "linear",
            "--act", "payoff",
            "--partition", "fine",
        )
        assert code == 5


class TestAudit:
    def test_expected_utility_profile(self, capsys):
        code, out, _ = run(
            capsys,
            "audit",
            "--model", model("audit_zoo.json"),
            "--functional", "eu-entropic",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"] == {
            "strict_monotonicity": True,
            "sure_thing": True,
            "conditionable": True,
            "agreement": True,
        }

    def test_choquet_profile(self, capsys):
        code, out, _ = run(
            capsys,
            "audit",
            "--model", model("audit_zoo.json"),
            "--functional", "choquet-squared",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["sure_thing"] is False
        assert doc["verdicts"]["conditionable"] is False
        assert doc["verdicts"]["agreement"] is True
        assert doc["checks"]["sure-thing"]["witness"]["margin"] > 1e-9

    def test_wrong_declared_profile_fails(self, capsys, tmp_path):
        doc = json.loads(
            open(model("audit_zoo.json"), encoding="utf-8").read()
        )
        doc["functionals"]["choquet-squared"]["expect"] = {
            "sure_thing": True,
            "conditionable": True,
        }
        path = tmp_path / "zoo.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "audit", "--model", str(path), "--functional", "choquet-squared"
        )
        assert code == 4
        assert json.loads(out)["profile_matches"] is False


    def test_non_monotone_functional_exits_4(self, capsys, tmp_path):
        path = tmp_path / "decreasing.json"
        path.write_text(
            json.dumps(
                {
                    "version": "chisini-model/1",
                    "space": {"outcomes": ["a", "b"], "weights": [0.5, 0.5]},
                    "functionals": {
                        "down": {"kind": "grid-table", "values": [3, 2, 1, 0]}
                    },
                    "settings": {"grid": [0.0, 1.0]},
                }
            )
        )
        code, out, err = run(
            capsys, "audit", "--model", str(path), "--functional", "down"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error: ")
        assert "not strictly monotone" in err

    def test_overflowing_utility_exits_4(self, capsys, tmp_path):
        # 2 * 1e308 is inf: the additivity spot check must not read it
        doc = json.loads(open(model("partition.json"), encoding="utf-8").read())
        doc["utilities"]["double"] = {"family": "linear", "scale": 2.0}
        doc["functionals"]["eu-double"] = {
            "kind": "expected-utility",
            "utility": "double",
        }
        doc["settings"]["grid"] = [0.0, 1.0, 1e308]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "audit", "--model", str(path), "--functional", "eu-double"
        )
        assert code == 4
        assert out == ""
        assert err == (
            "error: outside the float range: utility of outcome 'sun' at "
            "x=1e+308 is inf, not a finite float\n"
        )

    def test_irregular_utility_exits_3(self, capsys, tmp_path):
        # gamma -0.0 is irregular: refused, as compute refuses it, before
        # the value table divides by it
        doc = json.loads(open(model("audit_zoo.json"), encoding="utf-8").read())
        doc["utilities"]["entropic"]["gamma"] = -0.0
        path = tmp_path / "zoo.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "audit", "--model", str(path), "--functional", "eu-entropic"
        )
        assert code == 3
        assert out == ""
        assert err == (
            "error: utility not regular: outcome 'low' at x=0.0: "
            "exponential-normalized curve requires gamma != 0\n"
        )


class TestTower:
    def test_nested_chain_ok(self, capsys):
        code, out, _ = run(
            capsys,
            "tower",
            "--model", model("partition.json"),
            "--utility", "mixed",
            "--chain", "fine", "weather", "coarse",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        for act in doc["acts"]:
            assert act["composed_defect"] <= act["tolerance"]

    def test_tower_solves_each_act_once(self, capsys, monkeypatch):
        # every link's defect and the composed one share one E_0(X); neither
        # act is measurable on a partition of the chain, so no E_G(X) is X
        from chisini.family import ExpectationFamily

        solved = []
        plain = ExpectationFamily.certainty_equivalent

        def counted(fam, x):
            solved.append(x.values)
            return plain(fam, x)

        monkeypatch.setattr(ExpectationFamily, "certainty_equivalent", counted)
        code, out, _ = run(
            capsys,
            "tower", "--model", model("partition.json"), "--utility", "mixed",
            "--chain", "weather", "coarse",
        )
        assert code == 0
        assert [len(a["links"]) for a in json.loads(out)["acts"]] == [2, 2]
        assert solved.count((1.0, -0.5, 2.0, 0.25)) == 1  # payoff
        assert solved.count((-1.0, 1.0, -1.0, 1.0)) == 1  # spread

    def test_non_nested_chain_exits_6(self, capsys):
        code, _, err = run(
            capsys,
            "tower",
            "--model", model("partition.json"),
            "--utility", "linear",
            "--chain", "coarse", "fine",
        )
        assert code == 6
        assert "coarsening" in err

    def test_non_nested_chain_names_the_offending_entry(self, capsys, tmp_path):
        with open(model("partition.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["partitions"]["weather2"] = doc["partitions"]["weather"]
        path = tmp_path / "alias.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys,
            "tower",
            "--model", str(path),
            "--utility", "linear",
            "--chain", "weather", "coarse", "weather2",
        )
        assert code == 6
        assert "'weather2'" in err


def entropic_variant(tmp_path, act=None, grid=None):
    """models/entropic.json with its acts replaced by ``act`` (named "f")
    or its audit grid replaced by ``grid``."""
    with open(model("entropic.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if act is not None:
        doc["acts"] = {"f": act}
    if grid is not None:
        doc["settings"]["grid"] = grid
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestOutsideFloatRange:
    """Saturation (exp(-40) below half an ulp of 1) and overflow
    (exp(800)) exit 4 with one error line instead of a traceback."""

    @pytest.mark.parametrize(
        "act, argv",
        [
            ([40.0, 40.0], ["compute", "--partition", "trivial", "--act", "f"]),
            ([-800.0, 0.0], ["compute", "--partition", "trivial", "--act", "f"]),
            ([40.0, 40.0], ["tower", "--chain", "full", "trivial"]),
            ([-800.0, 0.0], ["tower", "--chain", "full", "trivial"]),
        ],
        ids=["compute-saturates", "compute-overflows", "tower-saturates",
             "tower-overflows"],
    )
    def test_entropic_extremes_exit_4(self, capsys, tmp_path, act, argv):
        path = entropic_variant(tmp_path, act=act)
        code, out, err = run(
            capsys, argv[0], "--model", path, "--utility", "entropic", *argv[1:]
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error: outside the float range: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, atom",
        [
            (["compute", "--partition", "trivial", "--act", "f"], "[0, 1]"),
            (["tower", "--chain", "full", "trivial"], "[0]"),
        ],
        ids=["compute", "tower"],
    )
    def test_saturation_names_the_rounded_bound(self, capsys, tmp_path, argv, atom):
        # the Chisini mean of (40, 40) is 40, but 1 - exp(-40) rounds onto
        # the entropic image's bound 1: the inputs are consistent
        path = entropic_variant(tmp_path, act=[40.0, 40.0])
        code, out, err = run(
            capsys, argv[0], "--model", path, "--utility", "entropic", *argv[1:]
        )
        assert code == 4
        assert err == (
            "error: outside the float range: conditional expected utility 1.0 "
            f"on atom {atom} rounded onto the upper bound of the projected "
            "image, where the inverse is not a finite float\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--partition", "weather", "--act", "huge"],
            ["compute", "--partition", "fine", "--act", "huge"],
            ["tower", "--chain", "fine", "weather", "coarse"],
        ],
        ids=["compute-weather", "compute-fine", "tower"],
    )
    def test_overflowing_linear_utility_exits_4(self, capsys, tmp_path, argv):
        # 2 * 1e308 is inf without an OverflowError: the utility act is
        # refused before any solve
        with open(model("partition.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["utilities"]["steep"] = {"family": "linear", "scale": 2.0}
        doc["acts"]["huge"] = [1e308, 1e308, 1e308, 1e308]
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, argv[0], "--model", str(path), "--utility", "steep", *argv[1:]
        )
        assert code == 4
        assert out == ""
        assert err == (
            "error: outside the float range: utility of outcome 'rain' at "
            "x=1e+308 is inf, not a finite float\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--partition", "trivial", "--act", "top"],
            ["tower", "--chain", "trivial"],
        ],
        ids=["compute", "tower"],
    )
    def test_overflowing_conditional_expected_utility_exits_4(
        self, capsys, tmp_path, argv
    ):
        # every utility is finite, but their weighted sum overflows to inf
        doc = {
            "version": "chisini-model/1",
            "space": {
                "outcomes": ["a", "b", "c"],
                "weights": [
                    0.5848312771401049, 0.10113387810352666, 0.31403484475636856
                ],
            },
            "utilities": {"linear": {"family": "linear"}},
            "partitions": {"trivial": [["a", "b", "c"]]},
            "acts": {"top": [1.7976931348623157e308] * 3},
        }
        path = tmp_path / "top.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, argv[0], "--model", str(path), "--utility", "linear", *argv[1:]
        )
        assert code == 4
        assert out == ""
        assert err == (
            "error: outside the float range: conditional expected utility inf "
            "on atom [0, 1, 2] rounded onto the upper bound of the projected "
            "image, where the inverse is not a finite float\n"
        )

    def test_audit_grid_overflow_exits_4(self, capsys, tmp_path):
        path = entropic_variant(tmp_path, grid=[-800.0, 0.0, 1.0])
        code, out, err = run(capsys, "audit", "--model", path, "--functional", "eu")
        assert code == 4
        assert out == ""
        assert err == (
            "error: outside the float range: exponential curve with gamma=1 "
            "overflows at x=-800\n"
        )

    @pytest.mark.parametrize("functional", ["choquet-root", "choquet-squared"])
    def test_audit_bracket_beyond_half_the_float_range_exits_4(
        self, capsys, tmp_path, functional
    ):
        # a solve's bracket +-(1e308 + 1) would overflow at its midpoints
        doc = json.loads(open(model("audit_zoo.json"), encoding="utf-8").read())
        doc["settings"]["grid"] = [1e308, 1.0, 2.0]
        path = tmp_path / "zoo.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "audit", "--model", str(path), "--functional", functional
        )
        assert code == 4
        assert out == ""
        assert err == (
            "error: outside the float range: bracket +-1e+308 exceeds half the "
            "float range, where its midpoints overflow\n"
        )

    def test_audit_far_grid_under_a_curved_utility_exits_4(self, capsys, tmp_path):
        # u(-39.93) is about -2.2e17, beside which u(1) / 3 is absorbed in
        # floats: the additivity spot check measures in utility units and
        # passes, and the audit reports the absorbed payoff as verdicts
        doc = json.loads(open(model("audit_zoo.json"), encoding="utf-8").read())
        doc["settings"]["grid"] = [0.0, 1.0, -39.93]
        path = tmp_path / "zoo.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "audit", "--model", str(path), "--functional", "eu-entropic"
        )
        assert code == 4
        assert err == ""
        report = json.loads(out)
        assert report["verdicts"] == {
            "agreement": True,
            "conditionable": False,
            "strict_monotonicity": False,
            "sure_thing": False,
        }
        assert report["profile_matches"] is False


class TestRepair:
    def test_null_jump_repaired(self, capsys, tmp_path):
        out_model = tmp_path / "repaired.json"
        code, out, _ = run(
            capsys,
            "repair",
            "--model", model("repair.json"),
            "--utility", "haunted",
            "--out", str(out_model),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["changed"] == ["ghost"]
        emitted = json.loads(out_model.read_text())
        assert "haunted-repaired" in emitted["utilities"]
        # the emitted model file is itself loadable
        code2, _, _ = run(capsys, "validate", "--model", str(out_model))
        assert code2 == 0

    def test_positive_weight_jump_exits_7(self, capsys, tmp_path):
        doc = json.loads(open(model("repair.json"), encoding="utf-8").read())
        doc["space"]["weights"] = ["0.5", "0.5"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys,
            "repair",
            "--model", str(path),
            "--utility", "haunted",
            "--out", str(tmp_path / "out.json"),
        )
        assert code == 7
        assert "ghost" in err


class TestNonFiniteFlags:
    """The flags that override model settings are held to the model file's
    rule: a number that is not finite is refused with exit 2."""

    COMPUTE = (
        "compute", "--model", model("entropic.json"), "--utility", "entropic",
        "--act", "log-two", "--partition", "trivial",
    )
    REPAIR = ("repair", "--model", model("repair.json"), "--utility", "haunted")

    @pytest.mark.parametrize(
        "argv",
        [
            REPAIR + ("--epsilon", "nan"),
            REPAIR + ("--bound", "nan"),
            REPAIR + ("--bound", "inf"),
            COMPUTE + ("--tol", "inf"),
            COMPUTE + ("--tol", "nan"),
            COMPUTE + ("--tol=-inf",),
        ],
        ids=["nan-epsilon", "nan-bound", "inf-bound", "inf-tol", "nan-tol", "-inf-tol"],
    )
    def test_exits_2(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out.json")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err
        assert not (tmp_path / "out.json").exists()


class TestSettingDomains:
    """The flags, CHISINI_CAP and the model file's settings are parsed by
    one parser per setting, which checks its domain: a tolerance, epsilon
    or bound must be > 0 and a cap an integer >= 1, else the run exits 2."""

    COMPUTE = TestNonFiniteFlags.COMPUTE
    CAPPED = (
        "compute", "--model", model("partition.json"), "--utility", "linear",
        "--act", "payoff", "--partition", "fine",
    )
    REPAIR = TestNonFiniteFlags.REPAIR

    @pytest.mark.parametrize(
        "argv, settings, cap, named",
        [
            (REPAIR + ("--epsilon", "0"), {}, None, "--epsilon"),
            (COMPUTE + ("--tol", "0"), {}, None, "--tol"),
            (COMPUTE + ("--tol=-1",), {}, None, "--tol"),
            (REPAIR + ("--bound=-1",), {}, None, "--bound"),
            (REPAIR + ("--bound=0",), {}, None, "--bound"),
            (CAPPED, {}, "-3", "CHISINI_CAP"),
            (CAPPED, {}, "0", "CHISINI_CAP"),
            (REPAIR, {"repair_epsilon": 0}, None, "$.settings.repair_epsilon"),
            (COMPUTE, {"tolerance": -1}, None, "$.settings.tolerance"),
            (CAPPED, {"cap": -3}, None, "$.settings.cap"),
            (CAPPED, {"cap": 0}, None, "$.settings.cap"),
            (REPAIR, {"repair_bound": -1}, None, "$.settings.repair_bound"),
        ],
        ids=[
            "epsilon-0", "tol-0", "tol-negative", "bound-negative", "bound-0",
            "env-cap-negative", "env-cap-0", "file-epsilon-0",
            "file-tolerance-negative", "file-cap-negative", "file-cap-0",
            "file-bound-negative",
        ],
    )
    def test_exits_2(self, capsys, tmp_path, monkeypatch, argv, settings, cap, named):
        argv = list(argv)
        if settings:
            where = argv.index("--model") + 1
            doc = json.loads(open(argv[where], encoding="utf-8").read())
            doc.setdefault("settings", {}).update(settings)
            argv[where] = str(tmp_path / "model.json")
            (tmp_path / "model.json").write_text(json.dumps(doc))
        if cap is None:
            monkeypatch.delenv("CHISINI_CAP", raising=False)
        else:
            monkeypatch.setenv("CHISINI_CAP", cap)
        out = tmp_path / "out.json"
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # a bad flag is a usage error
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert named in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "--model", model("partition.json")),
            ("audit", "--model", model("audit_zoo.json"), "--functional", "choquet-squared"),
            REPAIR,
        ],
        ids=["validate", "audit", "repair"],
    )
    def test_tol_is_refused_where_unread(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: chisini ")
        assert "unrecognized arguments: --tol 5" in captured.err

    def test_tol_overrides_the_tower_budget(self, capsys):
        code, out, _ = run(
            capsys,
            "tower", "--model", model("partition.json"), "--utility", "mixed",
            "--chain", "fine", "weather", "coarse", "--tol", "0.5",
        )
        assert code == 0
        payoff = json.loads(out)["acts"][0]
        assert payoff["act"] == "payoff"
        assert payoff["tolerance"] == 0.5 * (1.0 + 2.0)  # sup|payoff| = 2

    def test_bad_cap_env_is_read_by_compute_only(self, capsys, monkeypatch):
        monkeypatch.setenv("CHISINI_CAP", "abc")
        code, out, _ = run(capsys, "validate", "--model", model("partition.json"))
        assert code == 0
        assert json.loads(out)["command"] == "validate"

    def test_flag_override_leaves_the_written_settings(self, capsys, tmp_path):
        written = tmp_path / "repaired.json"
        code, out, _ = run(
            capsys, *self.REPAIR, "--epsilon", "0.3", "--out", str(written)
        )
        assert code == 0
        assert json.loads(out)["epsilon"] == 0.3
        source = json.loads(open(model("repair.json"), encoding="utf-8").read())
        assert json.loads(written.read_text())["settings"] == source["settings"]


class TestOutputPaths:
    COMPUTE = (
        "compute",
        "--model", model("entropic.json"),
        "--utility", "entropic",
        "--act", "log-two",
        "--partition", "trivial",
    )

    def test_table_prints_one_line_per_leaf(self, capsys):
        code, out, _ = run(capsys, *self.COMPUTE)
        assert code == 0
        leaves = {}

        def flatten(value, prefix):
            if isinstance(value, dict):
                for key, item in value.items():
                    flatten(item, f"{prefix}{key}.")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    flatten(item, f"{prefix}{i}.")
            else:
                leaves[prefix[:-1]] = value

        flatten(json.loads(out), "")
        code, table, _ = run(capsys, *self.COMPUTE, "--table")
        assert code == 0
        lines = table.splitlines()
        assert len(lines) == len(leaves)
        rows = dict(line.split(" = ", 1) for line in lines)
        assert sorted(rows) == sorted(leaves)
        for key, rendered in rows.items():
            assert json.loads(rendered) == leaves[key]
            if isinstance(leaves[key], float):
                assert rendered == format(leaves[key], ".12g")
        assert rows["command"] == '"compute"'
        assert rows["ok"] == "true"

    def test_out_writes_the_printed_bytes(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, *self.COMPUTE, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")

    def test_repair_writes_next_to_the_model_by_default(self, capsys, tmp_path):
        source = tmp_path / "repair.json"
        shutil.copy(model("repair.json"), source)
        code, out, _ = run(
            capsys, "repair", "--model", str(source), "--utility", "haunted"
        )
        assert code == 0
        written = tmp_path / "repair.repaired.json"
        assert json.loads(out)["output_model"] == str(written)
        assert "haunted-repaired" in json.loads(written.read_text())["utilities"]


class TestDeterminism:
    COMMANDS = [
        ("validate", "--model", "partition.json"),
        (
            "compute",
            "--model", "entropic.json",
            "--utility", "entropic",
            "--act", "log-two",
            "--partition", "trivial",
        ),
        ("audit", "--model", "audit_zoo.json", "--functional", "choquet-squared"),
        (
            "tower",
            "--model", "partition.json",
            "--utility", "entropic",
            "--chain", "fine", "weather",
        ),
        ("repair", "--model", "repair.json", "--utility", "haunted"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_byte_identical_reruns(self, capsys, tmp_path, argv, monkeypatch):
        monkeypatch.chdir(tmp_path)
        full = []
        for token in argv:
            if token.endswith(".json"):
                full.append(model(token))
            else:
                full.append(token)
        if argv[0] == "repair":
            full += ["--out", str(tmp_path / "r.json")]
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, *full)
            outputs.append((code, out))
        assert outputs[0] == outputs[1]


class TestRecordedDigests:
    """The criterion-11 command lines reproduce the exit codes and output
    digests recorded in ``bench/cli_digests.json``."""

    COMMANDS = {
        "validate-partition": ["validate", "--model", "models/partition.json"],
        "validate-zoo": ["validate", "--model", "models/audit_zoo.json"],
        "compute-entropic": [
            "compute", "--model", "models/entropic.json", "--utility", "entropic",
            "--act", "log-two", "--partition", "trivial",
        ],
        "compute-partition": [
            "compute", "--model", "models/partition.json", "--utility", "mixed",
            "--act", "payoff", "--partition", "weather",
        ],
        "audit-eu-linear": [
            "audit", "--model", "models/audit_zoo.json", "--functional", "eu-linear",
        ],
        "audit-choquet-squared": [
            "audit", "--model", "models/audit_zoo.json",
            "--functional", "choquet-squared",
        ],
        "tower": [
            "tower", "--model", "models/partition.json", "--utility", "mixed",
            "--chain", "fine", "weather", "coarse",
        ],
        "repair": [
            "repair", "--model", "models/repair.json", "--utility", "haunted",
        ],
    }

    def test_outputs_match_recorded_digests(self, capsys, tmp_path, monkeypatch):
        with open(
            os.path.join(ROOT, "bench", "cli_digests.json"), encoding="utf-8"
        ) as fh:
            expected = json.load(fh)
        assert sorted(expected) == sorted(self.COMMANDS)
        monkeypatch.chdir(ROOT)
        out_path = str(tmp_path / "repaired.json")
        for name, argv in self.COMMANDS.items():
            if name == "repair":
                argv = argv + ["--out", out_path]
            code, out, _ = run(capsys, *argv)
            written = None
            if name == "repair":
                with open(out_path, "rb") as fh:
                    written = hashlib.sha256(fh.read()).hexdigest()
            stdout = out.replace(out_path, "<OUT>").encode()
            observed = {
                "exit": code,
                "file_sha256": written,
                "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            }
            assert observed == expected[name], name

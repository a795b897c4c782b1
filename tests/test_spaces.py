"""Tests for finite spaces, partitions, acts and conditional expectation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chisini import (
    Act,
    EventSet,
    FiniteSpace,
    PartitionAlgebra,
    conditional_expectation,
    is_null_event,
    paste,
    refine,
)
from chisini.errors import ComplexityCapExceeded, SpaceMismatchError


def uniform4():
    return FiniteSpace.uniform(["w1", "w2", "w3", "w4"])


class TestFiniteSpace:
    def test_weights_renormalized(self):
        sp = FiniteSpace(("a", "b"), (0.5, 0.5 + 5e-13))
        assert abs(sum(sp.weights) - 1.0) < 1e-15

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a", "b"), (0.5, 0.6))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a", "b"), (1.1, -0.1))

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="finite"):
            FiniteSpace(("a", "b"), (float("nan"), 1.0))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a", "a"), (0.5, 0.5))

    def test_zero_weights_allowed(self):
        sp = FiniteSpace(("a", "b"), (1.0, 0.0))
        assert sp.weights == (1.0, 0.0)

    def test_index_of_label_and_int(self):
        sp = uniform4()
        assert sp.index_of("w3") == 2
        assert sp.index_of(2) == 2
        with pytest.raises(KeyError):
            sp.index_of("nope")


class TestOutcomeIndices:
    """Events and atoms hold outcome indices by ``operator.index``, the rule
    of ``FiniteSpace.index_of``: a float or a string is not truncated or
    parsed into an index."""

    @pytest.mark.parametrize("bad", [1.9, 1.0, "2", None])
    def test_event_refuses_a_non_integer_member(self, bad):
        with pytest.raises(TypeError):
            EventSet(uniform4(), {0, bad})

    @pytest.mark.parametrize(
        "atoms", [({0.5, 1.2}, {2}), ({0, 1}, {2.0}), ({"2", 1}, {0})]
    )
    def test_algebra_refuses_a_non_integer_atom_member(self, atoms):
        sp = FiniteSpace.uniform(["a", "b", "c"])
        with pytest.raises(TypeError):
            PartitionAlgebra(sp, atoms)

    def test_integers_numpy_integers_and_bools_are_indices(self):
        sp = uniform4()
        members = {np.int64(3), True, 0}
        assert EventSet(sp, members).members == frozenset({0, 1, 3})
        assert all(type(i) is int for i in EventSet(sp, members).members)
        alg = PartitionAlgebra(sp, ({np.int32(0), True}, {np.int8(2), 3}))
        assert alg == PartitionAlgebra.from_labels(sp, [["w1", "w2"], ["w3", "w4"]])
        assert all(type(i) is int for atom in alg.atoms for i in atom)


class TestAct:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_value(self, bad):
        with pytest.raises(ValueError, match="act values must be finite"):
            Act(uniform4(), (0.0, bad, 1.0, 2.0))

    @pytest.mark.parametrize("values", [(0.0, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0, 4.0)])
    def test_rejects_wrong_length(self, values):
        with pytest.raises(ValueError, match="one value per outcome"):
            Act(uniform4(), values)

    @given(st.lists(st.integers(0, 3), min_size=0, max_size=4, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_masked_and_paste_equal_checked_acts(self, members):
        # both build their result unchecked from values of checked acts
        sp = uniform4()
        f, g = Act(sp, (1, -2.5, 3, 0)), Act(sp, (9, 8, -7, 6.25))
        event = EventSet(sp, frozenset(members))
        for act in (f.masked(event), paste(f, g, event)):
            checked = Act(sp, act.values)
            assert type(act) is Act
            assert act == checked and hash(act) == hash(checked)
            assert all(type(v) is float for v in act.values)

    def test_trusted_constructor_is_private(self):
        import chisini

        assert "_trusted" not in chisini._EXPORTS
        assert not hasattr(chisini, "_trusted")


class TestConditionalExpectation:
    def test_atom_means(self):
        sp = uniform4()
        alg = PartitionAlgebra.from_labels(sp, [["w1", "w2"], ["w3", "w4"]])
        f = Act(sp, (1, 3, 2, 6))
        assert conditional_expectation(f, alg).values == (2.0, 2.0, 4.0, 4.0)

    def test_finest_partition_is_identity(self):
        sp = uniform4()
        f = Act(sp, (0.3, -1.2, 5.0, 2.2))
        out = conditional_expectation(f, PartitionAlgebra.finest(sp))
        assert out.values == f.values

    def test_trivial_partition_is_global_mean(self):
        sp = uniform4()
        f = Act(sp, (1, 3, 2, 6))
        out = conditional_expectation(f, PartitionAlgebra.trivial(sp))
        assert out.values == (3.0, 3.0, 3.0, 3.0)

    def test_null_atom_gets_zero(self):
        sp = FiniteSpace(("a", "b", "c"), (0.5, 0.5, 0.0))
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c"]])
        out = conditional_expectation(Act(sp, (1, 3, 9)), alg)
        assert out.values == (2.0, 2.0, 0.0)

    def test_space_mismatch(self):
        f = Act(uniform4(), (1, 2, 3, 4))
        other = PartitionAlgebra.trivial(FiniteSpace.uniform(["x", "y"]))
        with pytest.raises(SpaceMismatchError):
            conditional_expectation(f, other)

    def test_defining_property_on_unions(self):
        # E[result * 1_A] = E[f * 1_A] for every union of positive atoms
        rng = np.random.default_rng(7)
        sp = FiniteSpace(("a", "b", "c", "d", "e"), (0.1, 0.3, 0.2, 0.25, 0.15))
        alg = PartitionAlgebra.from_labels(sp, [["a", "c"], ["b"], ["d", "e"]])
        f = Act(sp, tuple(rng.uniform(-5, 5, size=5)))
        g = conditional_expectation(f, alg)
        w = np.asarray(sp.weights, dtype=float)
        for members in alg.events():
            mask = np.array([i in members for i in range(5)])
            lhs = float(np.sum(w[mask] * np.array(g.values)[mask]))
            rhs = float(np.sum(w[mask] * np.array(f.values)[mask]))
            assert abs(lhs - rhs) <= 1e-12

    def test_projection_idempotent(self):
        rng = np.random.default_rng(11)
        sp = uniform4()
        alg = PartitionAlgebra.from_labels(sp, [["w1", "w3"], ["w2", "w4"]])
        f = Act(sp, tuple(rng.uniform(-2, 2, size=4)))
        once = conditional_expectation(f, alg)
        twice = conditional_expectation(once, alg)
        assert once.values == twice.values

    def test_tower_on_nested_partitions(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            raw = rng.uniform(0.05, 1.0, size=n)
            sp = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(raw / raw.sum())
            )
            fine_atoms = _random_partition(rng, n, int(rng.integers(2, n + 1)))
            fine = PartitionAlgebra(sp, fine_atoms)
            coarse = PartitionAlgebra(sp, _merge(rng, fine_atoms))
            f = Act(sp, tuple(rng.uniform(-4, 4, size=n)))
            direct = conditional_expectation(f, coarse)
            nested = conditional_expectation(
                conditional_expectation(f, fine), coarse
            )
            assert max(
                abs(a - b) for a, b in zip(direct.values, nested.values)
            ) <= 1e-10


def _random_partition(rng, n, k):
    order = list(rng.permutation(n))
    cuts = sorted(rng.choice(range(1, n), size=k - 1, replace=False)) if k > 1 else []
    atoms, start = [], 0
    for cut in list(cuts) + [n]:
        atoms.append(frozenset(order[start:cut]))
        start = cut
    return tuple(a for a in atoms if a)


def _merge(rng, atoms):
    if len(atoms) == 1:
        return atoms
    k = int(rng.integers(1, len(atoms)))
    groups = rng.integers(0, k, size=len(atoms))
    merged = {}
    for g, atom in zip(groups, atoms):
        merged.setdefault(int(g), frozenset())
        merged[int(g)] |= atom
    return tuple(merged.values())


class TestNullEvents:
    def test_zero_weight_outcome(self):
        sp = FiniteSpace(("a", "b"), (1.0, 0.0))
        assert is_null_event(EventSet.from_labels(sp, ["b"]))

    def test_empty_event(self):
        assert is_null_event(EventSet.empty(uniform4()))

    def test_positive_event(self):
        sp = FiniteSpace.uniform(["a", "b"])
        assert not is_null_event(EventSet.from_labels(sp, ["a"]))

    def test_union_of_nulls_is_null(self):
        sp = FiniteSpace(("a", "b", "c"), (1.0, 0.0, 0.0))
        u = EventSet(sp, frozenset({1}) | frozenset({2}))
        assert is_null_event(u)


class TestRefine:
    def test_crossing_blocks(self):
        sp = uniform4()
        g1 = PartitionAlgebra.from_labels(sp, [["w1", "w2"], ["w3", "w4"]])
        g2 = PartitionAlgebra.from_labels(sp, [["w1", "w3"], ["w2", "w4"]])
        assert refine(g1, g2).atoms == PartitionAlgebra.finest(sp).atoms

    def test_trivial_is_identity(self):
        sp = uniform4()
        g = PartitionAlgebra.from_labels(sp, [["w1"], ["w2", "w3", "w4"]])
        assert refine(g, PartitionAlgebra.trivial(sp)).atoms == g.atoms

    def test_idempotent(self):
        sp = uniform4()
        g = PartitionAlgebra.from_labels(sp, [["w1", "w4"], ["w2", "w3"]])
        assert refine(g, g).atoms == g.atoms

    def test_result_refines_both(self):
        rng = np.random.default_rng(5)
        sp = FiniteSpace.uniform([f"w{i}" for i in range(6)])
        for _ in range(20):
            g1 = PartitionAlgebra(sp, _random_partition(rng, 6, 3))
            g2 = PartitionAlgebra(sp, _random_partition(rng, 6, 2))
            both = refine(g1, g2)
            assert both.refines(g1) and both.refines(g2)


class TestPaste:
    def test_basic(self):
        sp = FiniteSpace.uniform(["a", "b"])
        f, g = Act(sp, (1, 1)), Act(sp, (9, 9))
        assert paste(f, g, EventSet.from_labels(sp, ["a"])).values == (1.0, 9.0)

    def test_full_event_gives_f(self):
        sp = uniform4()
        f, g = Act(sp, (1, 2, 3, 4)), Act(sp, (9, 9, 9, 9))
        assert paste(f, g, EventSet.full(sp)).values == f.values

    def test_empty_event_gives_g(self):
        sp = uniform4()
        f, g = Act(sp, (1, 2, 3, 4)), Act(sp, (9, 8, 7, 6))
        assert paste(f, g, EventSet.empty(sp)).values == g.values

    @given(st.lists(st.integers(0, 3), min_size=0, max_size=4, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_paste_self_is_identity(self, members):
        sp = uniform4()
        f = Act(sp, (0.5, -1.0, 2.0, 0.0))
        event = EventSet(sp, frozenset(members))
        assert paste(f, f, event).values == f.values


class TestAlgebra:
    def test_masses_are_the_atom_probabilities(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            weights = rng.dirichlet(np.ones(n))
            weights[rng.random(n) < 0.3] = 0.0
            if weights.sum() == 0.0:
                weights[0] = 1.0
            sp = FiniteSpace(
                tuple(f"w{i}" for i in range(n)), tuple(weights / weights.sum())
            )
            k = int(rng.integers(1, n + 1))
            alg = PartitionAlgebra(sp, _random_partition(rng, n, k))
            want = [sp.probability(atom).hex() for atom in alg.atoms]
            assert [m.hex() for m in alg.masses] == want
            twin = PartitionAlgebra(sp, tuple(reversed(alg.atoms)))
            assert twin == alg and twin is not alg
            assert [m.hex() for m in twin.masses] == want

    def test_masses_are_outside_eq_hash_and_repr(self):
        sp = FiniteSpace(("a", "b", "c"), (0.2, 0.0, 0.8))
        alg = PartitionAlgebra.from_labels(sp, [["a", "b"], ["c"]])
        cold = PartitionAlgebra.from_labels(sp, [["c"], ["a", "b"]])
        before = (hash(alg), repr(alg))
        assert alg.masses == (sp.probability({0, 1}), 0.8)
        assert alg == cold and (hash(alg), repr(alg)) == before
        assert (hash(cold), repr(cold)) == before
        assert "masses" not in repr(alg)

    def test_events_enumeration_count(self):
        sp = uniform4()
        alg = PartitionAlgebra.from_labels(sp, [["w1"], ["w2"], ["w3", "w4"]])
        assert sum(1 for _ in alg.events()) == 8

    def test_events_cap(self):
        sp = FiniteSpace.uniform([f"w{i}" for i in range(4)])
        alg = PartitionAlgebra.finest(sp)
        with pytest.raises(ComplexityCapExceeded):
            list(alg.events(cap=3))

    def test_measurability(self):
        sp = uniform4()
        alg = PartitionAlgebra.from_labels(sp, [["w1", "w2"], ["w3", "w4"]])
        assert Act(sp, (1, 1, 2, 2)).is_measurable(alg)
        assert not Act(sp, (1, 2, 2, 2)).is_measurable(alg)

    def test_contains_event(self):
        sp = uniform4()
        alg = PartitionAlgebra.from_labels(sp, [["w1", "w2"], ["w3", "w4"]])
        assert alg.contains_event(EventSet.from_labels(sp, ["w1", "w2"]))
        assert not alg.contains_event(EventSet.from_labels(sp, ["w1"]))

    def test_rejects_non_cover(self):
        sp = uniform4()
        with pytest.raises(ValueError):
            PartitionAlgebra(sp, (frozenset({0, 1}), frozenset({2})))

    def test_rejects_overlap(self):
        sp = uniform4()
        with pytest.raises(ValueError):
            PartitionAlgebra(
                sp, (frozenset({0, 1}), frozenset({1, 2}), frozenset({3}))
            )

"""Finite probability spaces, partition algebras, acts and events.

This is the measurable substrate: outcomes with probability weights, the
sigma-algebras generated by finite partitions, bounded random variables
(acts) and the handful of operations everything else is built from:
conditional expectation, null-event tests, partition refinement and
pasting of acts along an event.

All objects are immutable after construction and every operation is pure,
so concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .curves import _lsum
from .errors import ComplexityCapExceeded, SpaceMismatchError

#: Absolute tolerance for the weight-sum check at construction.
WEIGHT_SUM_TOL = 1e-12

#: Largest atom count for which all 2**k unions are enumerated.
DEFAULT_UNION_CAP = 20


@dataclass(frozen=True)
class FiniteSpace:
    """Ordered outcome labels together with their probability weights.

    Weights must be finite, nonnegative and sum to one within ``WEIGHT_SUM_TOL``;
    they are renormalized exactly at construction so downstream products
    do not drift.  Zero weights are allowed and model null outcomes.
    """

    outcomes: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        outcomes = tuple(str(o) for o in self.outcomes)
        weights = tuple(float(w) for w in self.weights)
        if len(outcomes) == 0:
            raise ValueError("a finite space needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be distinct")
        if len(weights) != len(outcomes):
            raise ValueError("weights and outcomes must align")
        if any(not math.isfinite(w) for w in weights):
            raise ValueError("weights must be finite")
        if any(w < 0.0 for w in weights):
            raise ValueError("weights must be nonnegative")
        total = _lsum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights sum to {total!r}, not 1 within {WEIGHT_SUM_TOL}"
            )
        weights = tuple(w / total for w in weights)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, labels: Sequence[str]) -> "FiniteSpace":
        n = len(labels)
        return cls(tuple(labels), tuple(1.0 / n for _ in range(n)))

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index_of(self, outcome) -> int:
        """Accepts an outcome label or an integer index."""
        try:
            idx = operator.index(outcome)
        except TypeError:
            try:
                return self.outcomes.index(str(outcome))
            except ValueError:
                raise KeyError(f"unknown outcome {outcome!r}") from None
        if not 0 <= idx < self.size:
            raise IndexError(f"outcome index {idx} out of range")
        return idx

    def probability(self, members: Iterable[int]) -> float:
        return _lsum(self.weights[i] for i in members)


@dataclass(frozen=True)
class EventSet:
    """A subset of outcomes of a finite space."""

    space: FiniteSpace
    members: frozenset[int]

    def __post_init__(self):
        members = frozenset(map(operator.index, self.members))
        if any(not 0 <= i < self.space.size for i in members):
            raise ValueError("event members must be valid outcome indices")
        object.__setattr__(self, "members", members)

    @classmethod
    def from_labels(cls, space: FiniteSpace, labels: Iterable) -> "EventSet":
        return cls(space, frozenset(space.index_of(o) for o in labels))

    @classmethod
    def full(cls, space: FiniteSpace) -> "EventSet":
        return cls(space, frozenset(range(space.size)))

    @classmethod
    def empty(cls, space: FiniteSpace) -> "EventSet":
        return cls(space, frozenset())

    def probability(self) -> float:
        return self.space.probability(self.members)


@dataclass(frozen=True)
class Act:
    """A bounded real-valued function on the outcomes (a random variable)."""

    space: FiniteSpace
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if len(values) != self.space.size:
            raise ValueError("one value per outcome required")
        if not all(map(math.isfinite, values)):
            raise ValueError("act values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, space: FiniteSpace, c: float) -> "Act":
        return cls(space, tuple(float(c) for _ in range(space.size)))

    @classmethod
    def _trusted(cls, space: FiniteSpace, values: tuple[float, ...]) -> "Act":
        """An act built without the checks, for a tuple of finite floats, one
        per outcome, that the caller guarantees (values selected from
        checked acts, or finite search points)."""
        act = object.__new__(cls)
        object.__setattr__(act, "space", space)
        object.__setattr__(act, "values", values)
        return act

    @property
    def sup_norm(self) -> float:
        return float(max(abs(v) for v in self.values))

    def masked(self, event: EventSet) -> "Act":
        """The act f*1_A: agrees with f on the event, 0 elsewhere."""
        _require_same_space(self.space, event.space)
        values = tuple(
            v if i in event.members else 0.0 for i, v in enumerate(self.values)
        )
        return Act._trusted(self.space, values)

    def is_measurable(self, algebra: "PartitionAlgebra") -> bool:
        """True iff the act is constant on every atom of the partition."""
        _require_same_space(self.space, algebra.space)
        for atom in algebra.atoms:
            vals = {self.values[i] for i in atom}
            if len(vals) > 1:
                return False
        return True

    def __add__(self, other):
        if isinstance(other, Act):
            _require_same_space(self.space, other.space)
            return Act(
                self.space,
                tuple(a + b for a, b in zip(self.values, other.values)),
            )
        return Act(self.space, tuple(v + float(other) for v in self.values))

    def __mul__(self, scalar):
        return Act(self.space, tuple(v * float(scalar) for v in self.values))

    __rmul__ = __mul__


@dataclass(frozen=True)
class PartitionAlgebra:
    """A finite sub-sigma-algebra encoded by its partition into atoms.

    Atoms hold outcome indices internally; labels appear only at the I/O
    boundary.  The generated algebra consists of all unions of atoms.
    """

    space: FiniteSpace
    atoms: tuple[frozenset[int], ...]

    def __post_init__(self):
        atoms = tuple(frozenset(map(operator.index, atom)) for atom in self.atoms)
        atoms = tuple(sorted(atoms, key=min))
        seen: set[int] = set()
        for atom in atoms:
            if not atom:
                raise ValueError("atoms must be nonempty")
            if atom & seen:
                raise ValueError("atoms must be pairwise disjoint")
            seen |= atom
        if seen != set(range(self.space.size)):
            raise ValueError("atoms must cover every outcome")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def trivial(cls, space: FiniteSpace) -> "PartitionAlgebra":
        return cls(space, (frozenset(range(space.size)),))

    @classmethod
    def finest(cls, space: FiniteSpace) -> "PartitionAlgebra":
        return cls(space, tuple(frozenset({i}) for i in range(space.size)))

    @classmethod
    def from_labels(
        cls, space: FiniteSpace, blocks: Iterable[Iterable]
    ) -> "PartitionAlgebra":
        return cls(
            space,
            tuple(
                frozenset(space.index_of(o) for o in block) for block in blocks
            ),
        )

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    @cached_property
    def masses(self) -> tuple[float, ...]:
        """Each atom's probability, in atom order; outside ``==``, ``hash``
        and ``repr``, like every ``cached_property``."""
        return tuple(self.space.probability(atom) for atom in self.atoms)

    def atom_index_of(self, outcome: int) -> int:
        for k, atom in enumerate(self.atoms):
            if outcome in atom:
                return k
        raise IndexError(f"outcome {outcome} not covered")

    def contains_event(self, event: EventSet) -> bool:
        """True iff the event is a union of atoms."""
        _require_same_space(self.space, event.space)
        for atom in self.atoms:
            inter = atom & event.members
            if inter and inter != atom:
                return False
        return True

    def events(self, cap: int = DEFAULT_UNION_CAP) -> Iterator[frozenset[int]]:
        """All 2**k unions of atoms, in ascending bitmask order.

        Raises ComplexityCapExceeded if the atom count exceeds ``cap``.
        """
        k = self.atom_count
        if k > cap:
            raise ComplexityCapExceeded(
                f"{k} atoms would require {2 ** k} unions (cap {cap})"
            )
        for mask in range(2 ** k):
            members: frozenset[int] = frozenset()
            for j in range(k):
                if mask >> j & 1:
                    members |= self.atoms[j]
            yield members

    def refines(self, coarser: "PartitionAlgebra") -> bool:
        """True iff every atom of self lies inside one atom of ``coarser``."""
        _require_same_space(self.space, coarser.space)
        for atom in self.atoms:
            if not any(atom <= big for big in coarser.atoms):
                return False
        return True


def _require_same_space(a: FiniteSpace, b: FiniteSpace) -> None:
    if a != b:
        raise SpaceMismatchError("objects do not share a finite space")


def conditional_expectation(f: Act, algebra: PartitionAlgebra) -> Act:
    """Linear conditional expectation of an act given a partition algebra.

    On each atom with positive probability the result carries the
    probability-weighted average of f over the atom; on null atoms the
    version is fixed at 0 (all downstream equalities hold up to null
    events, so the choice is inert).
    """
    _require_same_space(f.space, algebra.space)
    weights = f.space.weights
    out = [0.0] * f.space.size
    for atom, mass in zip(algebra.atoms, algebra.masses):
        if mass > 0.0:
            avg = _lsum([weights[i] * f.values[i] for i in atom]) / mass
        else:
            avg = 0.0
        for i in atom:
            out[i] = avg
    return Act(f.space, tuple(out))


def is_null_event(event: EventSet) -> bool:
    """True iff the event has probability zero.

    Under any strictly monotone, pointwise continuous functional built on
    the same space this coincides with preference-nullity.
    """
    return event.probability() == 0.0


def refine(g1: PartitionAlgebra, g2: PartitionAlgebra) -> PartitionAlgebra:
    """Coarsest common refinement: pairwise intersections of atoms."""
    _require_same_space(g1.space, g2.space)
    atoms = []
    for a in g1.atoms:
        for b in g2.atoms:
            inter = a & b
            if inter:
                atoms.append(inter)
    return PartitionAlgebra(g1.space, tuple(atoms))


def paste(f: Act, g: Act, event: EventSet) -> Act:
    """The act equal to f on the event and to g off it."""
    _require_same_space(f.space, g.space)
    _require_same_space(f.space, event.space)
    values = tuple(
        f.values[i] if i in event.members else g.values[i]
        for i in range(f.space.size)
    )
    return Act._trusted(f.space, values)


def equal_up_to_null(a: Act, b: Act, tol: float = 0.0) -> bool:
    """Pointwise equality on positive-weight outcomes, within ``tol``."""
    _require_same_space(a.space, b.space)
    for i, w in enumerate(a.space.weights):
        if w > 0.0 and abs(a.values[i] - b.values[i]) > tol:
            return False
    return True

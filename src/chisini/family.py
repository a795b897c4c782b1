"""Families of conditional nonlinear expectations and their audits.

An :class:`ExpectationFamily` bundles a conditional evaluator (act,
algebra) -> act together with its unconditional member, the certainty
equivalent.  Families built from a regular state-dependent utility via
:func:`from_representation` satisfy, by construction,

- locality:        E_G(X * 1_A) = E_G(X) * 1_A   for events A of G,
- time consistency: E_0(E_G(X)) = E_0(X)          for every algebra G,
- the fixpoint law: E_G(Y) = Y                    for G-measurable Y,

and the audits here measure how far an arbitrary family deviates from
those identities.  The certainty-equivalent audit checks the two
structural requirements on E_0 alone: strict monotonicity on dichotomic
acts and pointwise continuity along explicit convergent sequences.  The
continuity check is necessarily a finite proxy: defects are monitored
along geometrically shrinking perturbations and must trend monotonically
to zero.  A family built by :func:`from_representation` solves on the
projection of each algebra that its representation keeps, its E_0 runs the
solver's one-atom step on the trivial algebra's atom alone, on a projected
curve kept from its first lookup that succeeds, and the audit solves each
distinct act it builds once.  A mixture curve keeps its last solve (see
:mod:`chisini.curves`), so each E_0 along a continuity sequence places its
first Newton probe from the one before, with every float unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .conditional import _solve_act, _solve_atom
from .errors import EventNotInAlgebra, NotMeasurable
from .reports import AuditReport, CheckResult
from .spaces import (
    Act,
    EventSet,
    FiniteSpace,
    PartitionAlgebra,
    equal_up_to_null,
    paste,
)
from .utility import AdditiveRepresentation, _search_grid

#: Number of terms in each constructed continuity sequence.
CONTINUITY_TERMS = 64

#: Final-defect threshold for the continuity proxy.
CONTINUITY_FINAL_TOL = 1e-6


@dataclass(frozen=True)
class ExpectationFamily:
    """A conditional evaluator plus its unconditional certainty equivalent."""

    space: FiniteSpace
    evaluator: Callable[[Act, PartitionAlgebra], Act]
    e0: Callable[[Act], float]
    rep: AdditiveRepresentation | None = None

    @classmethod
    def from_representation(cls, rep: AdditiveRepresentation) -> "ExpectationFamily":
        """Build the family E_G = (projected utility)^{-1}(E[u(X)|G]).

        Each value is ``chisini_mean(rep, x, algebra).act``, and each error
        that call's, computed without the certificate that the family does
        not read, on the projection of ``algebra`` that ``rep`` keeps.  E_0
        is ``chisini_mean``'s one-atom step (``_solve_atom``) on the trivial
        algebra's atom, returned as a float without building an act.  It
        looks the atom's projected curve up on ``rep`` until a lookup
        succeeds, and then keeps it, so an irregular utility raises on every
        call.
        """

        def evaluator(x: Act, algebra: PartitionAlgebra) -> Act:
            return _solve_act(rep, x, rep._regular_projection(x, algebra), "auto")[0]

        trivial = PartitionAlgebra.trivial(rep.space)
        (atom,), (mass,) = trivial.atoms, trivial.masses
        weights = rep.space.weights
        curve = None

        def e0(x: Act) -> float:
            nonlocal curve
            if curve is None:
                curve = rep._regular_projection(x, trivial).atom_curves[0]
            return _solve_atom(weights, rep._utilities(x), atom, mass, curve, "auto")[1]

        return cls(space=rep.space, evaluator=evaluator, e0=e0, rep=rep)

    def conditional(self, x: Act, algebra: PartitionAlgebra) -> Act:
        return self.evaluator(x, algebra)

    def certainty_equivalent(self, x: Act) -> float:
        return float(self.e0(x))


def check_locality(
    fam: ExpectationFamily,
    x: Act,
    algebra: PartitionAlgebra,
    event: EventSet,
    *,
    tol: float = 1e-9,
) -> bool:
    """E_G(X * 1_A) must equal E_G(X) * 1_A up to null events."""
    if not algebra.contains_event(event):
        raise EventNotInAlgebra("event is not a union of atoms")
    lhs = fam.conditional(x.masked(event), algebra)
    rhs = fam.conditional(x, algebra).masked(event)
    return equal_up_to_null(lhs, rhs, tol)


def check_tower(fam: ExpectationFamily, x: Act, algebra: PartitionAlgebra) -> float:
    """Absolute time-consistency defect |E_0(E_G(X)) - E_0(X)|."""
    inner = fam.conditional(x, algebra)
    return abs(fam.certainty_equivalent(inner) - fam.certainty_equivalent(x))


def check_fixpoint_on_measurable(
    fam: ExpectationFamily,
    y: Act,
    algebra: PartitionAlgebra,
    *,
    tol: float = 1e-10,
) -> bool:
    """E_G must leave G-measurable acts fixed, up to null events."""
    if not y.is_measurable(algebra):
        raise NotMeasurable("act varies inside an atom of the algebra")
    return equal_up_to_null(fam.conditional(y, algebra), y, tol)


def audit_certainty_equivalent(
    fam: ExpectationFamily,
    grid: tuple[float, ...],
    trials: int,
    *,
    seed: int = 2024,
) -> AuditReport:
    """Audit the unconditional evaluator for strict dichotomic monotonicity
    and pointwise continuity.

    Monotonicity: for every positive-weight event A, every grid pair
    x < y and ``trials`` sampled grid-valued background acts Z, the
    evaluator must rank y*1_A + Z*1_{A^c} strictly above x*1_A + Z*1_{A^c}.
    Grid-valued backgrounds make flat regions detectable: a continuum
    sample almost never lands on the tie that exposes them.

    Continuity: for grid-valued base acts X (all of them when the count is
    small, sampled otherwise) and a direction set containing every signed
    coordinate axis plus a sampled diagonal, the defect
    |E_0(X + 2^(1-n) d) - E_0(X)| is monitored for n = 1..CONTINUITY_TERMS;
    the tail must decay monotonically with final value below
    ``CONTINUITY_FINAL_TOL``.  Grid bases matter: a discontinuity is
    visible only from a base sitting exactly at the jump coordinate, and
    continuum samples never land there; axis directions expose one-sided
    jumps deterministically.  The early terms are exempt from the trend
    check because for a smooth nonlinear evaluator the large-step defect
    can cross zero.  This is a numerical proxy: no finite sample can
    certify continuity outright.

    Every act the audit builds is on ``fam.space``, and it evaluates each
    distinct one once: acts with equal values, as ``Act`` compares them,
    share one E_0 value for the length of the call.
    """
    import numpy as np  # for the RNG only; the solver path never loads numpy

    grid = _search_grid(grid)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    n = fam.space.size
    solved: dict[tuple[float, ...], float] = {}

    def e0(x: Act) -> float:
        value = solved.get(x.values)
        if value is None:
            value = solved[x.values] = fam.certainty_equivalent(x)
        return value

    backgrounds = [
        Act(fam.space, tuple(rng.choice(grid, size=n))) for _ in range(trials)
    ]

    mono_witness = None
    comparisons = 0
    for mask in range(1, 1 << n):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        if fam.space.probability(members) == 0.0:
            continue
        event = EventSet(fam.space, members)
        for xi in range(len(grid)):
            for yi in range(xi + 1, len(grid)):
                x, y = grid[xi], grid[yi]
                for z in backgrounds:
                    low = paste(Act.constant(fam.space, x), z, event)
                    high = paste(Act.constant(fam.space, y), z, event)
                    v_low = e0(low)
                    v_high = e0(high)
                    comparisons += 1
                    if not v_low < v_high and mono_witness is None:
                        mono_witness = {
                            "event": sorted(members),
                            "x": x,
                            "y": y,
                            "background": list(z.values),
                            "value_x": v_low,
                            "value_y": v_high,
                        }
        if mono_witness is not None:
            break

    cont_witness = None
    sequences = 0
    if len(grid) ** n <= 64:
        bases = [Act(fam.space, values) for values in product(grid, repeat=n)]
    else:
        bases = [Act.constant(fam.space, 0.0)] + [
            Act(fam.space, tuple(rng.choice(grid, size=n)))
            for _ in range(trials)
        ]
    axes = []
    for i in range(n):
        unit = tuple(1.0 if j == i else 0.0 for j in range(n))
        axes.append(Act(fam.space, unit))
        axes.append(Act(fam.space, unit) * -1.0)
    terms = CONTINUITY_TERMS
    for base in bases:
        sampled = Act(fam.space, tuple(rng.choice([-1.0, 1.0], size=n)))
        reference = e0(base)
        for direction in (sampled, sampled * -1.0, *axes):
            defects = _continuity_defects(e0, base, direction, reference)
            sequences += 1
            trend_ok = all(
                defects[2 * k - 1] <= defects[k - 1] + 1e-12
                for k in range(max(1, terms // 4), terms // 2 + 1)
            )
            final_bad = defects[-1] >= CONTINUITY_FINAL_TOL
            if (final_bad or not trend_ok) and cont_witness is None:
                cont_witness = {
                    "base": list(base.values),
                    "direction": list(direction.values),
                    "first_defect": defects[0],
                    "final_defect": defects[-1],
                }
    return AuditReport(
        subject="certainty-equivalent",
        checks=(
            CheckResult(
                name="dichotomic-monotonicity",
                passed=mono_witness is None,
                witness=mono_witness,
                details={"comparisons": comparisons},
            ),
            CheckResult(
                name="pointwise-continuity",
                passed=cont_witness is None,
                witness=cont_witness,
                details={"sequences": sequences, "terms": terms},
            ),
        ),
    )


def _continuity_defects(e0, base, direction, reference):
    defects = []
    for n in range(1, CONTINUITY_TERMS + 1):
        s = 2.0 ** (1 - n)
        # b is a grid float or a value of a checked act, d is -1, 0 or 1 and
        # s <= 1, so b + d * s is a finite float (at b = +-max it rounds back
        # to b): the act needs none of the constructor's checks
        shifted = Act._trusted(
            base.space, tuple([b + d * s for b, d in zip(base.values, direction.values)])
        )
        defects.append(abs(e0(shifted) - reference))
    return defects

"""The certainty-equivalent audit as it was before it solved only the
continuity terms that its verdict reads: every one of the
``CONTINUITY_TERMS`` terms of every sequence is built and solved, in
order.  The tests hold ``chisini.family.audit_certainty_equivalent`` to
this reference: the same report, or the same error, and a subset of the
acts that the reference evaluates, with the same E_0 value on each.
"""

from itertools import product

import numpy as np

from chisini.family import CONTINUITY_FINAL_TOL, CONTINUITY_TERMS, ExpectationFamily
from chisini.reports import AuditReport, CheckResult
from chisini.spaces import Act, EventSet, paste
from chisini.utility import _search_grid


def reference_audit(fam, grid, trials, *, seed=2024):
    """``audit_certainty_equivalent`` with all ``CONTINUITY_TERMS`` terms of
    each continuity sequence solved."""
    grid = _search_grid(grid)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    n = fam.space.size
    solved = {}

    def e0(x):
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
        shifted = Act(
            base.space, tuple([b + d * s for b, d in zip(base.values, direction.values)])
        )
        defects.append(abs(e0(shifted) - reference))
    return defects


def recording(fam, store):
    """``fam`` with an E_0 that records each act's value in ``store``, keyed
    on the act's values."""

    def e0(x):
        store[x.values] = fam.e0(x)
        return store[x.values]

    return ExpectationFamily(fam.space, fam.evaluator, e0, fam.rep)

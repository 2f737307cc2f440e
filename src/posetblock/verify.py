"""Exhaustive verification of the weight and metric axioms on a whole space.

Two routes are provided.  `check_weight_axioms` decides the axioms on the
scalar table alone: the block weight satisfies them exactly when the scalar
weight does (proved at the function), so it runs
`algebra.validate_weight_axioms` and puts the scalar witness into vectors.
`check_weight_axioms_bruteforce` enumerates every vector pair directly and
serves as the independent oracle.

Since distance(u, v) = weight(u - v), the three metric axioms hold if and
only if the three weight axioms hold, so a passing report certifies both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import validate_weight_axioms
from .errors import AxiomError
from .space import DEFAULT_VECTOR_BUDGET, SpaceContext
from .tables import digit_table, rank_powers, weight_table

_PAIR_STEP = 1 << 22  # vector pairs per step of the pairwise triangle check


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of an axiom verification run."""

    ok: bool
    axiom: str | None = None
    witness: tuple | None = None

    @classmethod
    def passed(cls) -> AxiomCheck:
        return cls(True)

    @classmethod
    def failed(cls, axiom: str, witness: tuple) -> AxiomCheck:
        return cls(False, axiom, witness)


def check_weight_axioms(ctx: SpaceContext) -> AxiomCheck:
    r"""Exhaustive-equivalent verification of the three weight axioms.

    The vector weight satisfies the axioms exactly when the scalar weight w
    does.  Write b_i(x) for the largest scalar weight in block i of x, S_x
    for the blocks where it is positive, I_x for the down-closure of S_x and
    M_x for the maximal elements of I_x.  Set c_x(i) to b_i(x) on M_x, to
    max_weight on I_x \ M_x and to 0 elsewhere, so W(x) = Σ_i c_x(i), and
    c_x(i) ≥ b_i(x) in every block.

    If w satisfies the axioms:
    - Positivity.  W(0) = 0.  For x ≠ 0, S_x is nonempty because w is
      positive off 0, so M_x ⊆ S_x is nonempty and W(x) > 0.
    - Symmetry.  b_i(-x) = b_i(x) in every block, so W(-x) = W(x).
    - Triangle, for x = u + v.  S_x ⊆ S_u ∪ S_v.  On M_x,
      c_x(i) = b_i(x) ≤ b_i(u) + b_i(v) ≤ c_u(i) + c_v(i), by the scalar
      inequality in each coordinate.  On I_x \ M_x, some j > i lies in S_x,
      say in S_u; then i ∈ I_u \ M_u, so c_x(i) = max_weight = c_u(i).
      Elsewhere c_x(i) = 0.  Summing over the blocks, W(x) ≤ W(u) + W(v).

    Conversely, a scalar violation is a vector violation in the first
    coordinate e of the smallest minimal block, where W(a·e) = w(a) for
    positive w(a).  The witness of w(a) ≤ 0 is a·e, of weight 0 (for a = 0,
    the zero vector).  The witness of w(a + b) > w(a) + w(b), the first such
    pair (a, b) in row-major order, is (a·e, b·e); there a, b and a + b are
    nonzero, because w(0) = 0.  The witness of w(a) ≠ w(-a) has a in
    coordinate 0: block 1 is then the only maximal block of the support, so
    W(±x) differ by w(a) - w(-a).
    """
    try:
        validate_weight_axioms(ctx.alphabet, ctx.weight_fn.table)
    except AxiomError as exc:
        if exc.which == "symmetry":
            start = 0
        else:
            block = next(i for i, down in enumerate(ctx.poset.down) if down == 1 << i)
            start = ctx.offsets[block]
        witness = []
        for a in exc.witness:
            coords = [0] * ctx.n
            coords[start] = a
            witness.append(tuple(coords))
        return AxiomCheck.failed(exc.which, tuple(witness))
    return AxiomCheck.passed()


def check_weight_axioms_bruteforce(
    ctx: SpaceContext, budget: int = DEFAULT_VECTOR_BUDGET
) -> AxiomCheck:
    """Direct enumeration over all vectors and vector pairs."""
    weights = weight_table(ctx, budget)
    digits = digit_table(ctx, budget)
    powers = rank_powers(ctx)
    size = ctx.size

    if weights[0] != 0:
        return AxiomCheck.failed("zero", (tuple(digits[0]),))
    zero_ranks = np.nonzero(weights[1:] == 0)[0]
    if len(zero_ranks):
        return AxiomCheck.failed("zero", (tuple(int(c) for c in digits[zero_ranks[0] + 1]),))

    neg_rank = (-digits % ctx.m).astype(np.int64) @ powers
    bad = np.nonzero(weights != weights[neg_rank])[0]
    if len(bad):
        return AxiomCheck.failed("symmetry", (tuple(int(c) for c in digits[bad[0]]),))

    chunk = max(1, _PAIR_STEP // max(size, 1))
    for start in range(0, size, chunk):
        rows = digits[start : start + chunk]
        sum_rank = ((rows[:, None, :] + digits[None, :, :]) % ctx.m).astype(np.int64) @ powers
        excess = weights[sum_rank] - (weights[start : start + chunk, None] + weights[None, :])
        if (excess > 0).any():
            i, j = np.unravel_index(int(excess.argmax()), excess.shape)
            return AxiomCheck.failed(
                "triangle",
                (
                    tuple(int(c) for c in digits[start + i]),
                    tuple(int(c) for c in digits[j]),
                ),
            )
    return AxiomCheck.passed()

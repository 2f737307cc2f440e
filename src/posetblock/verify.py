"""Exhaustive verification of the weight and metric axioms on a whole space.

Two routes are provided.  `check_weight_axioms` factorizes the search:
the vector weight depends only on the tuple of block-max scalar weights
(the profile), profiles combine per block, and the weight is monotone in
the profile, so the worst sum profile for each profile pair is realized
by an actual vector pair.  The check over profile pairs is therefore
exactly equivalent to enumerating all vector pairs, and violations are
reported with reconstructed witness vectors.  The pairs are checked in
bounded steps, not as one |values|^s x |values|^s array.
`check_weight_axioms_bruteforce` enumerates every vector pair directly and
serves as the independent oracle.

Both routes require w(a) > 0 for nonzero a to make block supports visible
in profiles; a scalar zero-axiom violation is detected and reported first.

Since distance(u, v) = weight(u - v), the three metric axioms hold if and
only if the three weight axioms hold, so a passing report certifies both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .space import DEFAULT_VECTOR_BUDGET, SpaceContext
from .tables import digit_table, profile_weights, rank_powers, weight_table

_PAIR_CHUNK = 1 << 18  # profile pairs checked per step of `check_weight_axioms`


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


@lru_cache(maxsize=None)
def _block_sum_extremes(m: int, table: tuple[int, ...], k: int):
    """Per (block-max of x, block-max of y): the largest block-max of x + y.

    Returns (cmax, witness) dicts keyed by weight pairs; witness holds a
    realizing pair of k-coordinate blocks.
    """
    blocks = list(product(range(m), repeat=k))
    weight_of = {b: max(table[c] for c in b) for b in blocks}
    cmax: dict[tuple[int, int], int] = {}
    witness: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for x in blocks:
        for y in blocks:
            key = (weight_of[x], weight_of[y])
            c = weight_of[tuple((a + b) % m for a, b in zip(x, y))]
            if key not in cmax or c > cmax[key]:
                cmax[key] = c
                witness[key] = (x, y)
    return cmax, witness


def _achievable_block_weights(table: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(table)))


def check_weight_axioms(ctx: SpaceContext) -> AxiomCheck:
    """Exhaustive-equivalent verification of the three weight axioms.

    The |values|^s achievable profiles are weighed at once by
    `profile_weights`, and positivity is one comparison over them.  The
    triangle check covers all |values|^(2s) profile pairs, in steps of
    rows that share a head profile, each step at most about `_PAIR_CHUNK`
    pairs, so its memory is bounded; its time still grows as |values|^(2s),
    with no budget on s.  A violation's witness is realized from the first
    pair of largest excess in row-major order.
    """
    table = ctx.weight_fn.table
    m = ctx.m

    # scalar zero axiom; a violation hides a block from its profile
    if table[0] != 0:
        return AxiomCheck.failed("zero", (ctx.zero().coords,))
    for a in range(1, m):
        if table[a] <= 0:
            block = min(
                i for i in ctx.poset.elements
                if ctx.poset.principal_ideal(i)[1] == frozenset()
            )
            coords = [0] * ctx.n
            coords[ctx.offsets[block - 1]] = a
            return AxiomCheck.failed("zero", (tuple(coords),))

    # scalar symmetry; block maxima of u and -u then agree coordinatewise
    for a in range(1, m):
        if table[a] != table[m - a]:
            coords = [0] * ctx.n
            coords[0] = a
            return AxiomCheck.failed("symmetry", (tuple(coords),))

    values = _achievable_block_weights(table)
    val_index = {v: i for i, v in enumerate(values)}
    nv = len(values)
    s = ctx.s

    # every achievable profile, in product order
    profiles = np.asarray(values)[np.indices((nv,) * s).reshape(s, -1).T]
    weights = profile_weights(ctx, profiles)

    # positivity of the vector weight over every achievable profile
    bad = np.nonzero((weights > 0) != profiles.any(axis=1))[0]
    if len(bad):
        return AxiomCheck.failed("zero", (_vector_with_profile(ctx, profiles[bad[0]]),))

    # triangle inequality over all profile pairs, using the per-block
    # worst-case sum profile (realizable because blocks are independent)
    cmax_by_k = {}
    for k in set(ctx.labeling.k):
        cmax, _ = _block_sum_extremes(m, table, k)
        grid = np.zeros((nv, nv), dtype=np.int64)
        for (a, b), c in cmax.items():
            grid[val_index[a], val_index[b]] = val_index[c]
        cmax_by_k[k] = grid
    grids = [cmax_by_k[k] for k in ctx.labeling.k]

    # the sum code of a pair is head code * tail count + tail code over a split
    # of the blocks; rows sharing a head profile are checked together, in row
    # order, keeping the first strict maximum, so the witness is the argmax
    # over all pairs in row-major order
    head = next(h for h in range(s + 1) if nv ** (2 * s - h) <= _PAIR_CHUNK or h == s)
    head_code = _sum_codes(grids[:head], nv)
    tail_code = _sum_codes(grids[head:], nv)
    tails = len(tail_code)
    worst, witness = 0, None
    for h, codes in enumerate(head_code):
        rows = slice(h * tails, (h + 1) * tails)
        sum_code = (codes[None, :, None] * tails + tail_code[:, None, :]).reshape(tails, -1)
        excess = weights[sum_code] - (weights[rows, None] + weights[None, :])
        top = excess.max()
        if top > worst:
            worst = top
            ia, ib = divmod(int(excess.argmax()), len(profiles))
            witness = _triangle_witness(ctx, profiles[h * tails + ia], profiles[ib])
    return AxiomCheck.passed() if witness is None else AxiomCheck.failed("triangle", witness)


def _sum_codes(grids: list[np.ndarray], nv: int) -> np.ndarray:
    """Per pair of profiles over these blocks (as value indices, in product
    order): the index of their worst-case sum profile."""
    idx = np.array(list(product(range(nv), repeat=len(grids))), dtype=np.int64)
    codes = np.zeros((len(idx), len(idx)), dtype=np.int64)
    for i, grid in enumerate(grids):
        codes = codes * nv + grid[idx[:, i][:, None], idx[:, i][None, :]]
    return codes


def _vector_with_profile(ctx: SpaceContext, profile: tuple[int, ...]) -> tuple[int, ...]:
    """Some vector whose block-max weights equal `profile`."""
    table = ctx.weight_fn.table
    coords: list[int] = []
    for i, target in enumerate(profile):
        k = ctx.labeling.k[i]
        lead = 0 if target == 0 else table.index(target)
        coords.extend([lead] + [0] * (k - 1))
    return tuple(coords)


def _triangle_witness(
    ctx: SpaceContext, pa: tuple[int, ...], pb: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vector pair realizing the worst sum profile for (pa, pb)."""
    u: list[int] = []
    v: list[int] = []
    for i in range(ctx.s):
        _, witness = _block_sum_extremes(ctx.m, ctx.weight_fn.table, ctx.labeling.k[i])
        x, y = witness[(pa[i], pb[i])]
        u.extend(x)
        v.extend(y)
    return tuple(u), tuple(v)


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

    chunk = max(1, (1 << 22) // max(size, 1))
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

"""Exhaustive verification of the weight and metric axioms on a whole space.

Two routes are provided.  `check_weight_axioms` factorizes the search: the
vector weight depends only on the tuple of block-max scalar weights (the
profile), it reads a profile's entries only on the maximal elements of its
support's down-closure and the rest only through the support, and profiles
combine per block.  So positivity is checked over the 2^s supports and the
triangle inequality over combinations of per-block classes of value pairs;
no array grows as |values|^s.  The result equals that of enumerating all
vector pairs, and violations are reported with witness vectors.
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
from math import prod

import numpy as np

from .space import DEFAULT_VECTOR_BUDGET, SpaceContext
from .tables import digit_table, ideals, rank_powers, weight_table

_STEP = 1 << 15  # (combination, block) entries per step of the triangle check
_CLASSES = 5  # the most nonempty classes of value pairs one block can have
# row beta: -[i∈Ma], -[i∈Mb], [i∈Mc], the signs of a, b and c in an excess term
_SIGNED_BETA_BITS = (np.arange(8)[:, None] >> np.arange(3) & 1) * [-1, -1, 1]
_UNSET = np.iinfo(np.int64).min  # below every excess term


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


@lru_cache(maxsize=128)
def _class_tables(m: int, table: tuple[int, ...], ks: tuple[int, ...]):
    """Per-block tables of the triangle check for blocks of sizes `ks`.

    A block's value pairs (a, b) fall into classes by (a > 0, b > 0, c > 0)
    with c = cmax(a, b); as the only block of weight 0 is the zero block, at
    most `_CLASSES` are nonempty.  Returns (counts, bits, best, first),
    read-only, indexed by the cell _CLASSES·i + q of block i's class
    q < counts[i]: bits[cell] holds the class's (a > 0, b > 0, c > 0); at
    8·cell + beta, for membership bits beta = [i∈Ma] | [i∈Mb] << 1 |
    [i∈Mc] << 2, best holds the largest [i∈Mc]·c - [i∈Ma]·a - [i∈Mb]·b over
    the class and first the first pair in row-major order that reaches it,
    as a * nv + b in indices into the sorted values.
    """
    values = np.array(sorted(set(table)), dtype=np.int64)
    pairs = np.arange(len(values) ** 2)
    a, b = values[pairs // len(values)], values[pairs % len(values)]  # row-major (a, b)
    counts = []
    codes = np.zeros((len(ks), _CLASSES), dtype=np.int64)
    best = np.zeros((len(ks), _CLASSES, 8), dtype=np.int64)
    first = np.zeros((len(ks), _CLASSES, 8), dtype=np.int64)
    for i, k in enumerate(ks):
        j = ks.index(k)
        if j < i:  # a block of the same size came first
            counts.append(counts[j])
            codes[i], best[i], first[i] = codes[j], best[j], first[j]
            continue
        cmax, _ = _block_sum_extremes(m, table, k)
        abc = np.array([a, b, [cmax[pair] for pair in zip(a.tolist(), b.tolist())]])
        cls = [1, 2, 4] @ (abc > 0)
        present = np.flatnonzero(np.bincount(cls, minlength=8))
        masked = np.where(cls == present[:, None, None], _SIGNED_BETA_BITS @ abc, _UNSET)
        q = len(present)
        counts.append(q)
        codes[i, :q], best[i, :q], first[i, :q] = present, masked.max(axis=2), masked.argmax(axis=2)
    bits = (codes.reshape(-1, 1) >> np.arange(3)) & 1
    for array in (bits, best, first):
        array.flags.writeable = False
    return tuple(counts), bits, best.ravel(), first.ravel()


def check_weight_axioms(ctx: SpaceContext) -> AxiomCheck:
    r"""Exhaustive-equivalent verification of the three weight axioms.

    After the scalar checks a block-max value is 0 only on the zero block,
    so a profile p has support S = {i : p_i > 0} and weight
    W(p) = max_weight·|I \ M| + Σ_{i∈M} p_i, where I is the down-closure
    of S and M ⊆ S the maximal elements of I.

    Positivity.  Profiles with support S share I and M, so W is monotone
    among them, and the one with the smallest nonzero value on S weighs
    least and comes first in product order.  So checking each support at
    that value finds a broken profile iff one exists, and the first.

    Triangle.  The vector pairs' worst excess is the largest
    E = W(c) - W(a) - W(b) over profile pairs (a, b), c_i = cmax(a_i, b_i)
    (`_block_sum_extremes`).  Each block's pair lies in exactly one class
    (a_i > 0, b_i > 0, c_i > 0); one class per block, a combination, fixes
    the supports of a, b and c, hence their I and M, and on it

        E = max_weight·(|Ic \ Mc| - |Ia \ Ma| - |Ib \ Mb|)
            + Σ_i ([i∈Mc]·c_i - [i∈Ma]·a_i - [i∈Mb]·b_i).

    The first part is constant on the combination and the i-th summand
    depends only on block i's pair, which ranges over its class freely.  So
    the largest E is the largest over combinations of the constant plus the
    per-block maxima (`_class_tables`).  The pairs reaching a combination's
    maximum form the product of per-block maximizers; the first of them in
    row-major order takes the smallest maximizing a_i per block, then the
    smallest b_i maximizing with it.  The least of these over the
    combinations of largest excess is the first pair of largest excess in
    row-major order, and the witness is realized from it.  Combinations are
    evaluated in steps of about `_STEP` (combination, block) entries.
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

    values = tuple(sorted(set(table)))
    nv = len(values)
    s = ctx.s
    mw = ctx.max_weight

    # per support S in product order (block 1 the highest bit): |I \ M| and M
    supports = np.arange(1 << s)[:, None] >> np.arange(s - 1, -1, -1) & 1
    ideal, maximal = ideals(ctx.poset, supports.astype(bool))
    covered, maximal = (ideal & ~maximal).sum(axis=1), maximal.astype(np.int8)

    # positivity over every support S, weighed at the smallest nonzero
    # value; S is nonempty exactly when M is
    size = maximal.sum(axis=1)
    bad = np.flatnonzero((mw * covered + values[1] * size > 0) != (size > 0))
    if len(bad):
        profile = [values[1] if bad[0] >> (s - 1 - i) & 1 else 0 for i in range(s)]
        return AxiomCheck.failed("zero", (_vector_with_profile(ctx, profile),))

    # triangle inequality: the largest excess over class combinations, and
    # the smallest (a, b) value indices, pa then pb, that reach it
    counts, bits, best, first = _class_tables(m, table, ctx.labeling.k)
    offsets = _CLASSES * np.arange(s)
    powers = 1 << np.arange(s - 1, -1, -1)
    ones = np.ones(s, dtype=np.int64)  # a product with it sums short rows fast
    total, step = prod(counts), max(1, _STEP // s)
    worst, key = 0, None
    for start in range(0, total, step):
        q = np.unravel_index(np.arange(start, min(start + step, total)), counts)
        cell = np.transpose(q) + offsets  # (combination, block) -> cell of its class
        supports = powers @ bits.take(cell, axis=0)  # columns: Sa, Sb, Sc as indices
        member = maximal.take(supports, axis=0)  # (combination, a/b/c, block) -> [block ∈ M]
        cell = 8 * cell + member[:, 0] + 2 * member[:, 1] + 4 * member[:, 2]  # 8 * cell + beta
        excess = mw * (covered.take(supports) @ [-1, -1, 1]) + best.take(cell) @ ones
        top = excess.max()
        if top <= 0 or top < worst:
            continue
        pairs = first.take(cell[excess == top])
        smallest = min(map(tuple, np.concatenate((pairs // nv, pairs % nv), axis=1).tolist()))
        if top > worst or smallest < key:
            worst, key = top, smallest
    if key is None:
        return AxiomCheck.passed()
    pa, pb = [values[v] for v in key[:s]], [values[v] for v in key[s:]]
    return AxiomCheck.failed("triangle", _triangle_witness(ctx, pa, pb))


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

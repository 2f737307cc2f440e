"""Slow reference helpers that only the tests call."""

from functools import lru_cache
from itertools import combinations, product
from math import gcd

import numpy as np

from posetblock.errors import ArityError, BudgetError, ValidationError
from posetblock.space import DEFAULT_VECTOR_BUDGET, BlockVector, SpaceContext
from posetblock.tables import digit_table, ideals, rank_powers, weight_table
from posetblock.verify import AxiomCheck


def det_mod(rows, m: int) -> int:
    """Determinant of a small square matrix modulo m, by cofactor expansion."""
    size = len(rows)
    if size == 0:
        return 1 % m
    if size == 1:
        return rows[0][0] % m
    total = 0
    for col in range(size):
        if rows[0][col] == 0:
            continue
        minor = [
            tuple(v for c, v in enumerate(row) if c != col) for row in rows[1:]
        ]
        sign = 1 if col % 2 == 0 else -1
        total += sign * rows[0][col] * det_mod(minor, m)
    return total % m


def pairwise_distances(code):
    """(d_w, d_H) by `BlockVector.distance` over every pair of codewords."""
    hamming = code.context.hamming()
    as_hamming = [hamming.vector(v.coords) for v in code.codewords]
    return (
        min(u.distance(v) for u, v in combinations(code.codewords, 2)),
        min(u.distance(v) for u, v in combinations(as_hamming, 2)),
    )


def is_invertible_mod(rows, m: int) -> bool:
    """True when the matrix is invertible over Z_m (determinant a unit)."""
    return gcd(det_mod(rows, m), m) == 1


def supports_union(u, v) -> bool:
    """Subadditivity witness: supp(u + v) is contained in supp(u) | supp(v)."""
    return (u + v).support() <= u.support() | v.support()


def check_weight_axioms_whole_array(ctx):
    """Oracle for `check_weight_axioms`: the profile check with all profile
    pairs in one array.

    Every one of the |values|^s profiles is weighed by
    `SpaceContext.weight_of_profile`, positivity is checked on each, and the
    triangle inequality on one |values|^s x |values|^s array of worst sum
    profiles; a violation's witness is realized from the first maximum of
    the excess in row-major order.
    """
    table = ctx.weight_fn.table
    m = ctx.m
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
    for a in range(1, m):
        if table[a] != table[m - a]:
            coords = [0] * ctx.n
            coords[0] = a
            return AxiomCheck.failed("symmetry", (tuple(coords),))

    values = tuple(sorted(set(table)))
    val_index = {v: i for i, v in enumerate(values)}
    nv = len(values)
    s = ctx.s
    profiles = list(product(values, repeat=s))
    weights = np.array([ctx.weight_of_profile(p) for p in profiles], dtype=np.int64)
    for p, w in zip(profiles, weights):
        if (w > 0) != any(p):
            return AxiomCheck.failed("zero", (_vector_with_profile(ctx, p),))

    cmax_by_k = {}
    for k in set(ctx.labeling.k):
        cmax, _ = _block_sum_extremes(m, table, k)
        grid = np.zeros((nv, nv), dtype=np.int64)
        for (a, b), c in cmax.items():
            grid[val_index[a], val_index[b]] = val_index[c]
        cmax_by_k[k] = grid
    idx = np.array([[val_index[v] for v in p] for p in profiles], dtype=np.int64)
    radix = nv ** np.arange(s - 1, -1, -1, dtype=np.int64)
    sum_code = np.zeros((len(profiles), len(profiles)), dtype=np.int64)
    for i in range(s):
        grid = cmax_by_k[ctx.labeling.k[i]]
        sum_code += grid[idx[:, i][:, None], idx[:, i][None, :]] * radix[i]
    excess = weights[sum_code] - (weights[:, None] + weights[None, :])
    if (excess > 0).any():
        ia, ib = np.unravel_index(int(excess.argmax()), excess.shape)
        return AxiomCheck.failed("triangle", _triangle_witness(ctx, profiles[ia], profiles[ib]))
    return AxiomCheck.passed()


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


def difference_rank_table(
    ctx: SpaceContext, center_coords: tuple[int, ...], digits: np.ndarray
) -> np.ndarray:
    """(size,) array: rank of (v - center) for every vector rank v."""
    diff = digits - np.asarray(center_coords, dtype=np.int32)
    diff %= ctx.m
    return diff @ rank_powers(ctx)


def distance_table(
    ctx: SpaceContext,
    center_coords: tuple[int, ...],
    weights: np.ndarray,
    digits: np.ndarray,
) -> np.ndarray:
    """(size,) array of distances from `center_coords` to every vector."""
    return weights[difference_rank_table(ctx, center_coords, digits)]


def two_smallest_code_distances(
    ctx: SpaceContext,
    codeword_coords: list[tuple[int, ...]],
    weights: np.ndarray,
    digits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vector smallest and second-smallest distance to the codewords."""
    size = len(weights)
    limit = np.iinfo(np.int64).max
    d1 = np.full(size, limit, dtype=np.int64)
    d2 = np.full(size, limit, dtype=np.int64)
    for coords in codeword_coords:
        d = distance_table(ctx, coords, weights, digits)
        np.minimum(d2, np.maximum(d1, d), out=d2)
        np.minimum(d1, d, out=d1)
    return d1, d2


def scan_profiles(code):
    """The d1/d2 scan over the whole space of `code`: per vector, its smallest
    and second-smallest distance to the codewords."""
    ctx = code.context
    return two_smallest_code_distances(
        ctx, code.coords_list(), weight_table(ctx), digit_table(ctx)
    )


def code_from_words(ctx: SpaceContext, words, linear: bool = False):
    """`Code.from_words` one `BlockVector` at a time: (sorted coordinate tuples
    of the distinct words, linear, generator), raising as the constructor does."""
    seen = {}
    for w in words:
        v = w if isinstance(w, BlockVector) else ctx.vector(w)
        if v.context != ctx:
            raise ValidationError("codeword built over a different context")
        seen[v.coords] = v
    if not seen:
        raise ValidationError("a code needs at least one codeword")
    coords = sorted(seen)
    error = linear and closure_error(ctx, coords)
    if error:
        raise ValidationError(error)
    return coords, linear, None


def code_from_generator(ctx: SpaceContext, rows, budget: int = DEFAULT_VECTOR_BUDGET):
    """`Code.from_generator` by `BlockVector` arithmetic: (sorted coordinate
    tuples of the span, True, the generator vectors)."""
    gens = tuple(ctx.vector(r) for r in rows)
    if ctx.m ** len(gens) > budget:
        raise BudgetError(f"span of {len(gens)} rows over Z_{ctx.m} exceeds budget")
    span = set()
    for coeffs in product(range(ctx.m), repeat=len(gens)):
        v = ctx.zero()
        for c, g in zip(coeffs, gens):
            v = v + g.scale(c)
        span.add(v.coords)
    return sorted(span), True, gens


def graph_code(ctx: SpaceContext, t: int, tail_map):
    """`perfect_code_from_function` tail by tail, as `code_from_words` returns
    it (the chain check is not repeated here)."""
    head_n = ctx.offsets[t]
    words = []
    for tail in product(range(ctx.m), repeat=ctx.n - head_n):
        try:
            head = tuple(int(c) for c in tail_map[tail])
        except KeyError:
            raise ArityError(f"function table misses tail {tail}") from None
        if len(head) != head_n:
            raise ArityError(f"head {head} must have {head_n} coordinates")
        if any(not 0 <= c < ctx.m for c in head):
            raise ArityError(f"head {head} has coordinates outside 0..{ctx.m - 1}")
        words.append(head + tail)
    return code_from_words(ctx, words)


def closure_error(ctx: SpaceContext, coords) -> str | None:
    """The message of the first failure of the linear closure check on the
    sorted coordinate tuples, by `BlockVector` arithmetic, or None when they
    form a linear code."""
    members = set(coords)
    if ctx.zero().coords not in members:
        return "linear code must contain the zero vector"
    words = [ctx.vector(c) for c in coords]
    for u in words:
        for c in range(2, ctx.m):
            if u.scale(c).coords not in members:
                return f"not closed under scaling: {c} * {u.coords}"
        for v in words:
            if (u + v).coords not in members:
                return f"not closed under addition: {u.coords} + {v.coords}"
    return None


def ideal_masks_by_scan(poset, size: int | None = None) -> list[int]:
    """The ideals of `poset` as increasing bitmasks, by a scan of all 2^s subsets."""
    return [
        mask for mask in range(1 << poset.s)
        if (size is None or mask.bit_count() == size) and poset.ideal_mask(mask) == mask
    ]


def is_hierarchical(poset) -> bool:
    """Incomparable elements share their strict down-set: then the classes of
    equal strict down-sets are antichains stacked one above the other (an
    ordinal sum of antichains)."""
    strict = [down & ~(1 << i) for i, down in enumerate(poset.down)]
    return all(
        strict[i] == strict[j]
        for i, j in combinations(range(poset.s), 2)
        if not (poset.down[i] >> j & 1 or poset.down[j] >> i & 1)
    )


def block_maps_by_stack(ctx: SpaceContext, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The block maps of a (G, n, n) stack by passes over the whole stack: per
    matrix and block i, the maximal elements of the ideal that the block
    support of block i's first column generates, as row i of a (G, s, s)
    boolean array, and that ideal's 1-based generator, as a (G, s) array, 0
    where it is not principal."""
    starts = np.asarray(ctx.offsets[:-1])
    # nonzero[g, r, i]: whether row block r of that column is nonzero
    nonzero = np.logical_or.reduceat(mats[:, :, starts] != 0, starts, axis=1)
    _, maximal = ideals(ctx.poset, nonzero.transpose(0, 2, 1))
    return maximal, np.where(maximal.sum(axis=2) == 1, maximal.argmax(axis=2) + 1, 0)

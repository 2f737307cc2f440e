"""Slow reference helpers that only the tests call."""

from functools import lru_cache
from itertools import product
from math import gcd

import numpy as np

from posetblock.space import SpaceContext
from posetblock.tables import digit_table, rank_powers, weight_table
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

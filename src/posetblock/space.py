"""Weighted poset block spaces.

A space context bundles a poset P on {1,..,s}, a labeling assigning k_i
coordinates to block i, an alphabet Z_m and a scalar weight w.  The weight
of a vector u is computed from its block supports: with I the ideal
generated by the nonzero blocks and M the maximal elements of I,

    weight(u) = sum of block-max weights over M  +  max_weight * |I - M|.

Distance is the weight of the difference.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .algebra import Alphabet, WeightFunction, hamming_weight
from .errors import (
    BudgetError,
    ContextMismatchError,
    InvalidValueError,
    NegativeRadiusError,
    OutOfRangeError,
    SizeMismatchError,
)
from .poset import Labeling, Poset

# default caps on the vectors enumerated and on the candidate images the isometry search tests
DEFAULT_VECTOR_BUDGET = 1 << 20
DEFAULT_MATRIX_BUDGET = 1 << 24


@dataclass(frozen=True)
class SpaceContext:
    """Immutable bundle (poset, labeling, alphabet, weight) defining the space."""

    poset: Poset
    labeling: Labeling
    alphabet: Alphabet
    weight_fn: WeightFunction

    def __post_init__(self):
        if self.labeling.s != self.poset.s:
            raise SizeMismatchError(
                f"labeling has {self.labeling.s} blocks, poset has {self.poset.s}"
            )
        if self.weight_fn.m != self.alphabet.m:
            raise SizeMismatchError(
                f"weight table length {self.weight_fn.m} does not match modulus {self.alphabet.m}"
            )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, taken once: every table cache is keyed on the context."""
        return hash((self.poset, self.labeling, self.alphabet, self.weight_fn))

    # -- geometry -------------------------------------------------------

    @property
    def s(self) -> int:
        return self.poset.s

    @cached_property
    def n(self) -> int:
        return self.labeling.n

    @property
    def m(self) -> int:
        return self.alphabet.m

    @cached_property
    def size(self) -> int:
        return self.m**self.n

    @property
    def max_weight(self) -> int:
        return self.weight_fn.max_weight

    @property
    def min_nonzero_weight(self) -> int:
        return self.weight_fn.min_nonzero_weight

    @property
    def diameter(self) -> int:
        """Largest attainable vector weight: s * max_weight."""
        return self.s * self.max_weight

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Prefix sums; block i occupies coordinates offsets[i-1]..offsets[i]-1."""
        out = [0]
        for k in self.labeling.k:
            out.append(out[-1] + k)
        return tuple(out)

    def block_slice(self, i: int) -> slice:
        if not 1 <= i <= self.s:
            raise OutOfRangeError(f"block {i} outside 1..{self.s}")
        return slice(self.offsets[i - 1], self.offsets[i])

    # -- vector factories -------------------------------------------------

    def vector(self, coords: Sequence[int]) -> BlockVector:
        values = tuple(int(c) for c in coords)
        n, m = self.n, self.m
        if len(values) != n:
            raise SizeMismatchError(f"expected {n} coordinates, got {len(values)}")
        if any(not 0 <= c < m for c in values):
            raise InvalidValueError(f"coordinates must lie in 0..{m - 1}: {values}")
        return BlockVector(self, values)

    def zero(self) -> BlockVector:
        return BlockVector(self, (0,) * self.n)

    def basis_vector(self, i: int, j: int) -> BlockVector:
        """The canonical basis vector with a 1 in coordinate j of block i."""
        start = self.block_slice(i).start
        if not 1 <= j <= self.labeling.k[i - 1]:
            raise OutOfRangeError(f"block {i} has no coordinate {j}")
        coords = [0] * self.n
        coords[start + j - 1] = 1
        return BlockVector(self, tuple(coords))

    def index_of(self, coords: Sequence[int]) -> int:
        """Rank of the coordinate tuple in lexicographic order."""
        idx = 0
        for c in coords:
            idx = idx * self.m + c
        return idx

    def vector_at(self, index: int) -> BlockVector:
        coords = [0] * self.n
        for pos in range(self.n - 1, -1, -1):
            coords[pos] = index % self.m
            index //= self.m
        return BlockVector(self, tuple(coords))

    def vectors(self, budget: int | None = DEFAULT_VECTOR_BUDGET) -> Iterator[BlockVector]:
        """All vectors in lexicographic order."""
        if budget is not None and self.size > budget:
            raise BudgetError(f"space has {self.size} vectors, budget {budget}")
        for index in range(self.size):
            yield self.vector_at(index)

    # -- derived contexts --------------------------------------------------

    def with_weight(self, weight_fn: WeightFunction) -> SpaceContext:
        return SpaceContext(self.poset, self.labeling, self.alphabet, weight_fn)

    def hamming(self) -> SpaceContext:
        """Same poset, labeling and alphabet with the Hamming scalar weight."""
        return self.with_weight(hamming_weight(self.alphabet))

    # -- weight on block-max profiles -----------------------------------------

    def weight_of_profile(self, profile: Sequence[int]) -> int:
        """Weight of any vector whose block-max weights equal `profile`."""
        supp = 0
        for i, p in enumerate(profile):
            if p:
                supp |= 1 << i
        ideal = self.poset.ideal_mask(supp)
        maximal = self.poset.maximal_mask(ideal)
        total = self.max_weight * (ideal.bit_count() - maximal.bit_count())
        m = maximal
        while m:
            low = m & -m
            total += profile[low.bit_length() - 1]
            m ^= low
        return total


@dataclass(frozen=True)
class BlockVector:
    """Element of the space, stored as a flat coordinate tuple."""

    context: SpaceContext
    coords: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def block(self, i: int) -> tuple[int, ...]:
        return self.coords[self.context.block_slice(i)]

    def support(self) -> frozenset[int]:
        """Indices of nonzero blocks."""
        return frozenset(i for i in range(1, self.context.s + 1) if any(self.block(i)))

    def block_max_weight(self, i: int) -> int:
        """Largest scalar weight among the coordinates of block i."""
        w = self.context.weight_fn
        return max(w(c) for c in self.block(i))

    def profile(self) -> tuple[int, ...]:
        return tuple(self.block_max_weight(i) for i in range(1, self.context.s + 1))

    def weight(self) -> int:
        """The weighted poset block weight of this vector."""
        return self.context.weight_of_profile(self.profile())

    def distance(self, other: BlockVector) -> int:
        if self.context != other.context:
            raise ContextMismatchError("vectors from different space contexts")
        return (self - other).weight()

    def index(self) -> int:
        return self.context.index_of(self.coords)

    # -- module arithmetic ------------------------------------------------

    def __add__(self, other: BlockVector) -> BlockVector:
        if self.context != other.context:
            raise ContextMismatchError("vectors from different space contexts")
        m = self.context.m
        return BlockVector(
            self.context, tuple((a + b) % m for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: BlockVector) -> BlockVector:
        if self.context != other.context:
            raise ContextMismatchError("vectors from different space contexts")
        m = self.context.m
        return BlockVector(
            self.context, tuple((a - b) % m for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> BlockVector:
        m = self.context.m
        return BlockVector(self.context, tuple((-a) % m for a in self.coords))

    def scale(self, c: int) -> BlockVector:
        m = self.context.m
        return BlockVector(self.context, tuple(c * a % m for a in self.coords))


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a bulk list of value objects
    (vectors, matrices and their tuples) is built; restore it on exit.

    Each new tuple counts towards the collector's thresholds, so building
    hundreds of thousands of them runs many passes over all of them, none of
    which can free anything: the objects hold no reference cycles.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def ball(center: BlockVector, radius: int, budget: int = DEFAULT_VECTOR_BUDGET) -> list[BlockVector]:
    """All vectors within `radius` of `center`, in lexicographic order."""
    if radius < 0:
        raise NegativeRadiusError("radius must be nonnegative")
    ctx = center.context
    if ctx.size > budget:
        raise BudgetError(f"ball enumeration over {ctx.size} vectors, budget {budget}")
    return [v for v in ctx.vectors(budget=None) if (v - center).weight() <= radius]


def space_context(
    poset: Poset,
    k: Iterable[int],
    m: int,
    weight_fn: WeightFunction | None = None,
) -> SpaceContext:
    """Convenience constructor; defaults to the Hamming scalar weight."""
    alphabet = Alphabet(m)
    if weight_fn is None:
        weight_fn = hamming_weight(alphabet)
    return SpaceContext(poset, Labeling(tuple(k)), alphabet, weight_fn)

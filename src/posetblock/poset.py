"""Finite posets on {1,..,s} with ideal and automorphism machinery.

Elements are the 1-based integers 1..s.  The order relation is stored
fully closed as per-element bitmasks, so `leq` queries are O(1); cover
pairs are only a constructor convenience.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import BudgetError, CycleError, InvalidValueError, OutOfRangeError, SizeMismatchError

AUTOMORPHISM_SIZE_CAP = 10
POSET_ENUMERATION_CAP = 5


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1,..,s}, stored as the image tuple (phi(1),..,phi(s))."""

    image: tuple[int, ...]

    def __post_init__(self):
        s = len(self.image)
        if sorted(self.image) != list(range(1, s + 1)):
            raise InvalidValueError(f"not a bijection of [{s}]: {self.image}")

    @classmethod
    def identity(cls, s: int) -> Permutation:
        return cls(tuple(range(1, s + 1)))

    @property
    def degree(self) -> int:
        return len(self.image)

    @property
    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.image))

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def compose(self, other: Permutation) -> Permutation:
        """Return self after other: (self.compose(other))(i) = self(other(i))."""
        if self.degree != other.degree:
            raise SizeMismatchError("cannot compose permutations of different degree")
        return Permutation(tuple(self.image[j - 1] for j in other.image))

    def inverse(self) -> Permutation:
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))


@dataclass(frozen=True)
class Labeling:
    """Block dimensions k_1..k_s; block i spans k_i coordinates."""

    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        if not self.k or any(v < 1 for v in self.k):
            raise InvalidValueError(f"block dimensions must be positive: {self.k}")

    @property
    def s(self) -> int:
        return len(self.k)

    @property
    def n(self) -> int:
        return sum(self.k)


@dataclass(frozen=True)
class Poset:
    """Partial order on {1,..,s}; `down[i-1]` is the bitmask of {j-1 : j <= i}."""

    s: int
    down: tuple[int, ...]

    def __post_init__(self):
        if self.s < 1 or len(self.down) != self.s:
            raise InvalidValueError("relation size does not match ground set")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_covers(cls, s: int, covers: Iterable[tuple[int, int]]) -> Poset:
        """Smallest poset whose relation contains every cover pair (a, b) = a < b."""
        pairs = [(int(a), int(b)) for a, b in covers]
        for a, b in pairs:
            _check_element(a, s)
            _check_element(b, s)
        down = [1 << i for i in range(s)]
        # propagate down-sets along cover edges until the closure stabilizes
        changed = True
        while changed:
            changed = False
            for a, b in pairs:
                merged = down[b - 1] | down[a - 1]
                if merged != down[b - 1]:
                    down[b - 1] = merged
                    changed = True
        # the closure is transitive, so only antisymmetry can fail
        defect = _order_defect(down)
        if defect is not None:
            _, i, j = defect
            raise CycleError(f"covers force {i} <= {j} and {j} <= {i}")
        return cls(s, tuple(down))

    @classmethod
    def from_relation(cls, s: int, pairs: Iterable[tuple[int, int]]) -> Poset:
        """Build from an already reflexive-transitive relation; validates the axioms."""
        down = [1 << i for i in range(s)]
        for a, b in pairs:
            _check_element(a, s)
            _check_element(b, s)
            down[b - 1] |= 1 << (a - 1)
        defect = _order_defect(down)
        if defect is not None:
            axiom, i, j = defect
            if axiom == "antisymmetric":
                raise CycleError(f"antisymmetry fails on {i}, {j}")
            raise InvalidValueError(f"relation not transitive below {i}")
        return cls(s, tuple(down))

    @classmethod
    def chain(cls, s: int) -> Poset:
        return cls(s, tuple((1 << (i + 1)) - 1 for i in range(s)))

    @classmethod
    def antichain(cls, s: int) -> Poset:
        return cls(s, tuple(1 << i for i in range(s)))

    # -- relation queries ---------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        """True when i <= j in the poset."""
        _check_element(i, self.s)
        _check_element(j, self.s)
        return bool(self.down[j - 1] >> (i - 1) & 1)

    @cached_property
    def up(self) -> tuple[int, ...]:
        """up[i-1] is the bitmask of {j-1 : i <= j}."""
        ups = [0] * self.s
        for j in range(self.s):
            mask = self.down[j]
            while mask:
                low = mask & -mask
                ups[low.bit_length() - 1] |= 1 << j
                mask ^= low
        return tuple(ups)

    @property
    def elements(self) -> range:
        return range(1, self.s + 1)

    def covers(self) -> list[tuple[int, int]]:
        """Hasse edges (a, b): a < b with nothing strictly between."""
        edges = []
        for b in range(self.s):
            strict = self.down[b] & ~(1 << b)
            for a in range(self.s):
                if strict >> a & 1:
                    between = strict & self.up[a] & ~(1 << a)
                    if between == 0:
                        edges.append((a + 1, b + 1))
        return sorted(edges)

    # -- ideals ---------------------------------------------------------

    def ideal_mask(self, mask: int) -> int:
        """Down-closure of a 0-based bitmask."""
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= self.down[low.bit_length() - 1]
            m ^= low
        return out

    def ideal_of(self, elements: Iterable[int]) -> frozenset[int]:
        """The ideal generated by `elements`: every j below some member."""
        return _to_set(self.ideal_mask(_to_mask(elements, self.s)))

    def principal_ideal(self, i: int) -> tuple[frozenset[int], frozenset[int]]:
        """The pair (ideal of i, ideal of i minus i itself)."""
        _check_element(i, self.s)
        mask = self.down[i - 1]
        return _to_set(mask), _to_set(mask & ~(1 << (i - 1)))

    def maximal_mask(self, mask: int) -> int:
        out = 0
        m = mask
        while m:
            low = m & -m
            idx = low.bit_length() - 1
            if self.up[idx] & mask == low:
                out |= low
            m ^= low
        return out

    def maximal_elements(self, subset: Iterable[int]) -> frozenset[int]:
        """Members of `subset` with nothing of `subset` strictly above them."""
        return _to_set(self.maximal_mask(_to_mask(subset, self.s)))

    def ideals(self, size: int | None = None) -> list[frozenset[int]]:
        """All ideals (down-closed subsets), optionally filtered by cardinality."""
        return [_to_set(m) for m in self.ideal_masks(size)]

    def ideal_masks(self, size: int | None = None) -> list[int]:
        if self.s > 20:
            raise BudgetError(f"ideal enumeration over 2^{self.s} subsets refused")
        out = []
        for mask in range(1 << self.s):
            if size is not None and mask.bit_count() != size:
                continue
            if self.ideal_mask(mask) == mask:
                out.append(mask)
        return out

    # -- shape predicates -----------------------------------------------

    @cached_property
    def is_chain(self) -> bool:
        return all(
            self.leq(i, j) or self.leq(j, i)
            for i in self.elements
            for j in self.elements
        )

    @cached_property
    def is_antichain(self) -> bool:
        return all(self.down[i] == 1 << i for i in range(self.s))

    @cached_property
    def is_natural_chain(self) -> bool:
        """Chain in the numeric order 1 < 2 < .. < s."""
        return self.down == Poset.chain(self.s).down

    def is_finer_than(self, coarser: Poset) -> bool:
        """True when every relation of `coarser` also holds in self."""
        if self.s != coarser.s:
            raise SizeMismatchError(f"posets on [{coarser.s}] and [{self.s}]")
        return all(c & ~d == 0 for c, d in zip(coarser.down, self.down))

    # -- automorphisms ----------------------------------------------------

    def automorphisms(
        self,
        labeling: Labeling | None = None,
        size_cap: int = AUTOMORPHISM_SIZE_CAP,
    ) -> list[Permutation]:
        """All order automorphisms, optionally restricted to block-size-preserving ones.

        Plain backtracking over images with down/up-set size pruning;
        refuses ground sets larger than `size_cap`.
        """
        if self.s > size_cap:
            raise BudgetError(f"automorphism search capped at s={size_cap}")
        if labeling is not None and labeling.s != self.s:
            raise SizeMismatchError("labeling length differs from poset size")
        s = self.s

        def signature(i: int) -> tuple:
            sig = (self.down[i].bit_count(), self.up[i].bit_count())
            if labeling is not None:
                sig += (labeling.k[i],)
            return sig

        sigs = [signature(i) for i in range(s)]
        candidates = [[j for j in range(s) if sigs[j] == sigs[i]] for i in range(s)]
        found: list[Permutation] = []
        image = [0] * s
        used = [False] * s

        def backtrack(i: int) -> None:
            if i == s:
                found.append(Permutation(tuple(v + 1 for v in image)))
                return
            for j in candidates[i]:
                if used[j]:
                    continue
                ok = all(
                    (self.down[prev] >> i & 1) == (self.down[image[prev]] >> j & 1)
                    and (self.down[i] >> prev & 1) == (self.down[j] >> image[prev] & 1)
                    for prev in range(i)
                )
                if ok:
                    image[i] = j
                    used[j] = True
                    backtrack(i + 1)
                    used[j] = False

        backtrack(0)
        return sorted(found, key=lambda p: p.image)

    def labeled_automorphisms(
        self, labeling: Labeling, size_cap: int = AUTOMORPHISM_SIZE_CAP
    ) -> list[Permutation]:
        """The subgroup of automorphisms phi with k_{phi(i)} = k_i for all i."""
        return self.automorphisms(labeling=labeling, size_cap=size_cap)

    def is_labeled_automorphism(self, phi: Permutation, labeling: Labeling) -> bool:
        if phi.degree != self.s or labeling.s != self.s:
            return False
        image = [v - 1 for v in phi.image]
        # i <= j iff phi(i) <= phi(j): phi maps each down-set onto its image's
        return all(labeling.k[image[i]] == labeling.k[i] for i in range(self.s)) and all(
            self.down[image[j]] == sum(1 << image[i] for i in range(self.s) if down >> i & 1)
            for j, down in enumerate(self.down)
        )


def all_posets(s: int) -> Iterator[Poset]:
    """Every partial order on {1,..,s}, by filtering strict-relation candidates."""
    if s > POSET_ENUMERATION_CAP:
        raise BudgetError(f"poset enumeration capped at s={POSET_ENUMERATION_CAP}")
    pairs = [(i, j) for i in range(s) for j in range(s) if i != j]
    for choice in range(1 << len(pairs)):
        down = [1 << i for i in range(s)]
        for bit, (i, j) in enumerate(pairs):
            if choice >> bit & 1:
                down[j] |= 1 << i
        if _order_defect(down) is None:
            yield Poset(s, tuple(down))


def _order_defect(down: list[int]) -> tuple[str, int, int] | None:
    """("antisymmetric", i, j) or ("transitive", j, j) for the first broken axiom, else None.

    Elements are 1-based.  Every caller seeds `down` with the diagonal, so
    reflexivity holds by construction.
    """
    s = len(down)
    for i in range(s):
        for j in range(s):
            if i != j and down[i] >> j & 1 and down[j] >> i & 1:
                return "antisymmetric", i + 1, j + 1
    for j in range(s):
        closure = down[j]
        for i in range(s):
            if down[j] >> i & 1:
                closure |= down[i]
        if closure != down[j]:
            return "transitive", j + 1, j + 1
    return None


def _check_element(i: int, s: int) -> None:
    if not 1 <= i <= s:
        raise OutOfRangeError(f"element {i} outside 1..{s}")


def _to_mask(elements: Iterable[int], s: int) -> int:
    mask = 0
    for e in elements:
        _check_element(e, s)
        mask |= 1 << (e - 1)
    return mask


def _to_set(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)

"""Arithmetic in Z_m and scalar weight functions on it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import AxiomError, InvalidValueError, SizeMismatchError

# Largest scalar weight `custom_weight` accepts: it keeps s * max_weight and
# every excess of the triangle check far inside int64.
MAX_SCALAR_WEIGHT = 2**31 - 1


@dataclass(frozen=True)
class Alphabet:
    """The residue ring Z_m; a field exactly when m is prime."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise InvalidValueError(f"modulus must be at least 2, got {self.m}")

    @cached_property
    def is_field(self) -> bool:
        m = self.m
        if m < 4:
            return True
        if m % 2 == 0:
            return False
        d = 3
        while d * d <= m:
            if m % d == 0:
                return False
            d += 2
        return True

    @property
    def kind(self) -> str:
        return "field" if self.is_field else "ring"

    @property
    def elements(self) -> range:
        return range(self.m)

    def units(self) -> list[int]:
        return [a for a in range(1, self.m) if gcd(a, self.m) == 1]


@dataclass(frozen=True)
class WeightFunction:
    """Scalar weight table (w(0),..,w(m-1)) satisfying the weight axioms."""

    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(int(v) for v in self.table))

    @property
    def m(self) -> int:
        return len(self.table)

    @property
    def max_weight(self) -> int:
        return max(self.table)

    @property
    def min_nonzero_weight(self) -> int:
        return min(self.table[1:])

    def __call__(self, a: int) -> int:
        return self.table[a]


def hamming_weight(alphabet: Alphabet) -> WeightFunction:
    """w(0) = 0 and w(a) = 1 for every nonzero a."""
    return WeightFunction((0,) + (1,) * (alphabet.m - 1))


def lee_weight(alphabet: Alphabet) -> WeightFunction:
    """w(a) = min(a, m - a); coincides with Hamming weight for m in {2, 3}."""
    m = alphabet.m
    return WeightFunction(tuple(min(a, m - a) for a in range(m)))


def custom_weight(alphabet: Alphabet, table: list[int] | tuple[int, ...]) -> WeightFunction:
    """Validate the three weight axioms on `table` and wrap it.

    Raises AxiomError naming the violated axiom and a witness element or pair,
    and InvalidValueError for a value above MAX_SCALAR_WEIGHT.
    """
    values = tuple(int(v) for v in table)
    if len(values) != alphabet.m:
        raise SizeMismatchError(
            f"weight table length {len(values)} does not match modulus {alphabet.m}"
        )
    if max(values) > MAX_SCALAR_WEIGHT:
        raise InvalidValueError(f"weight value {max(values)} exceeds {MAX_SCALAR_WEIGHT}")
    validate_weight_axioms(alphabet, values)
    return WeightFunction(values)


def validate_weight_axioms(alphabet: Alphabet, table: tuple[int, ...]) -> None:
    m = alphabet.m
    if table[0] != 0:
        raise AxiomError("zero", (0,), f"w(0) = {table[0]} must be 0")
    for a in range(1, m):
        if table[a] <= 0:
            raise AxiomError("zero", (a,), f"w({a}) = {table[a]} must be positive")
    for a in range(1, m):
        if table[a] != table[m - a]:
            raise AxiomError(
                "symmetry", (a,), f"w({a}) = {table[a]} differs from w({m - a}) = {table[m - a]}"
            )
    for a in range(m):
        for b in range(m):
            if table[(a + b) % m] > table[a] + table[b]:
                raise AxiomError(
                    "triangle",
                    (a, b),
                    f"w({a}+{b}) = {table[(a + b) % m]} exceeds w({a}) + w({b})",
                )


def has_min_weight_unit(alphabet: Alphabet, weight: WeightFunction) -> bool:
    """True when some multiplicative unit attains the minimum nonzero weight."""
    target = weight.min_nonzero_weight
    return any(weight(a) == target for a in alphabet.units())


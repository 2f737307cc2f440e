"""Slow reference helpers that only the tests call."""

from math import gcd


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

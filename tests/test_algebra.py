import pytest

from posetblock import (
    Alphabet,
    AxiomError,
    InvalidValueError,
    SizeMismatchError,
    ValidationError,
    custom_weight,
    hamming_weight,
    lee_weight,
)
from posetblock.algebra import MAX_SCALAR_WEIGHT, has_min_weight_unit

from oracles import det_mod, is_invertible_mod


@pytest.mark.parametrize("m,prime", [(2, True), (3, True), (4, False), (5, True), (9, False), (13, True)])
def test_alphabet_kind(m, prime):
    a = Alphabet(m)
    assert a.is_field is prime
    assert a.kind == ("field" if prime else "ring")


def test_alphabet_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        Alphabet(1)


def test_tiny_modulus_is_a_validation_error_and_a_value_error():
    with pytest.raises(ValidationError, match="modulus must be at least 2") as info:
        Alphabet(1)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_hamming_weight_table(m):
    w = hamming_weight(Alphabet(m))
    assert w.table == (0,) + (1,) * (m - 1)
    assert w.max_weight == 1 and w.min_nonzero_weight == 1


def test_lee_weight_tables():
    assert lee_weight(Alphabet(4)).table == (0, 1, 2, 1)
    w5 = lee_weight(Alphabet(5))
    assert w5.table == (0, 1, 2, 2, 1)
    assert w5.max_weight == 2


@pytest.mark.parametrize("m", [2, 3])
def test_lee_equals_hamming_on_tiny_moduli(m):
    assert lee_weight(Alphabet(m)).table == hamming_weight(Alphabet(m)).table


def test_lee_max_weight_is_floor_half():
    for m in range(2, 12):
        assert lee_weight(Alphabet(m)).max_weight == m // 2


def test_custom_weight_accepts_hamming():
    assert custom_weight(Alphabet(3), [0, 1, 1]).table == (0, 1, 1)


def test_custom_weight_symmetry_violation():
    with pytest.raises(AxiomError) as err:
        custom_weight(Alphabet(3), [0, 1, 2])
    assert err.value.which == "symmetry"
    assert err.value.witness == (1,)


def test_custom_weight_zero_violations():
    with pytest.raises(AxiomError) as err:
        custom_weight(Alphabet(3), [1, 1, 1])
    assert err.value.which == "zero"
    with pytest.raises(AxiomError) as err:
        custom_weight(Alphabet(3), [0, 0, 0])
    assert err.value.which == "zero"


def test_custom_weight_triangle_violation():
    # w(1+1) = 5 > w(1) + w(1) = 4
    with pytest.raises(AxiomError) as err:
        custom_weight(Alphabet(4), [0, 2, 5, 2])
    assert err.value.which == "triangle"
    a, b = err.value.witness
    table = (0, 2, 5, 2)
    assert table[(a + b) % 4] > table[a] + table[b]


def test_custom_weight_full_check():
    w = custom_weight(Alphabet(5), [0, 2, 3, 3, 2])
    assert w.max_weight == 3 and w.min_nonzero_weight == 2


def test_custom_weight_length_mismatch():
    with pytest.raises(SizeMismatchError):
        custom_weight(Alphabet(5), [0, 1, 1])


@pytest.mark.parametrize("m,table", [(5, (0, 1, 2, 2, 1)), (6, (0, 1, 2, 3, 2, 1)), (5, (0, 2, 3, 3, 2))])
def test_weight_bounds_and_alphabet_metric(m, table):
    w = custom_weight(Alphabet(m), list(table))
    assert 0 < w.min_nonzero_weight <= w.max_weight
    for a in range(1, m):
        assert w.min_nonzero_weight <= w(a) <= w.max_weight
    # d(a, b) = w(a - b) is a metric on the alphabet
    for a in range(m):
        for b in range(m):
            assert (w((a - b) % m) == 0) == (a == b)
            assert w((a - b) % m) == w((b - a) % m)
            for c in range(m):
                assert w((a - b) % m) <= w((a - c) % m) + w((c - b) % m)


def test_has_min_weight_unit():
    assert has_min_weight_unit(Alphabet(4), lee_weight(Alphabet(4)))
    assert has_min_weight_unit(Alphabet(6), hamming_weight(Alphabet(6)))
    # only the non-units 2 and 4 attain weight 1
    w = custom_weight(Alphabet(6), [0, 2, 1, 2, 1, 2])
    assert not has_min_weight_unit(Alphabet(6), w)


def test_det_mod_small_cases():
    assert det_mod(((1, 1), (0, 1)), 2) == 1
    assert det_mod(((1, 1), (1, 1)), 5) == 0
    assert det_mod(((2, 1, 0), (1, 2, 1), (0, 1, 2)), 7) == 4


def test_is_invertible_mod_matches_permanence():
    # over Z_4 determinant 2 is nonzero yet not a unit
    assert not is_invertible_mod(((2, 0), (0, 1)), 4)
    assert is_invertible_mod(((3, 0), (0, 1)), 4)


def test_custom_weight_bounds_its_values():
    top = MAX_SCALAR_WEIGHT
    assert custom_weight(Alphabet(3), [0, top, top]).max_weight == top
    with pytest.raises(InvalidValueError, match="exceeds"):
        custom_weight(Alphabet(3), [0, top + 1, top + 1])

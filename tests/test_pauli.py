import functools
import random

import numpy as np
import pytest

from tern2jw import PauliString, check_generator_set, pauli_format
from tern2jw.pauli import pack_letters, plane_rows, unpack_planes

from reference import pauli_commutes, pauli_identity, pauli_mul, pauli_parse, pauli_weight


def _product(*strings):
    """The library's ordered product of a batch, from check_generator_set."""
    return check_generator_set(strings).product


def test_identity_and_single():
    assert str(pauli_identity(3)) == "+III"
    assert str(PauliString((0, 2, 0))) == "+IYI"
    assert pauli_format(PauliString((0, 0, 0, 3), 3)) == "-iIIIZ"


def test_string_validation():
    with pytest.raises(ValueError):
        PauliString(())
    with pytest.raises(ValueError):
        PauliString((0, 4))
    with pytest.raises(ValueError):
        PauliString((1,), 5)


def test_string_refuses_non_integers():
    # 1.0 == 1 would pass a membership test, and str() would then fail
    for letters, phase in (((1.0, 3), 0), ((1, 3), 2.0), ((1, "2"), 0), ((1,), None)):
        with pytest.raises(ValueError, match="letters and phase must be integers"):
            PauliString(letters, phase)


def test_string_stores_plain_ints():
    p = PauliString([np.uint8(1), np.int64(3)], np.uint8(2))
    assert p.letters == (1, 3) and type(p.letters[0]) is int and type(p.phase) is int
    assert str(p) == "-XZ"
    assert p == PauliString((1, 3), 2) and hash(p) == hash(PauliString((1, 3), 2))


def test_mul_single_qubit_table():
    for a, b, ab in (
        ("X", "Y", "+iZ"),
        ("Y", "X", "-iZ"),
        ("Y", "Z", "+iX"),
        ("Z", "Y", "-iX"),
        ("Z", "X", "+iY"),
        ("X", "Z", "-iY"),
        ("X", "X", "+I"),
    ):
        a, b, ab = pauli_parse(a), pauli_parse(b), pauli_parse(ab)
        assert pauli_mul(a, b) == ab
        assert _product(a, b) == ab


def test_mul_carries_phases():
    a = pauli_parse("+iXY")
    b = pauli_parse("-iYY")
    # i * (-i) = 1; XY = iZ on qubit 1, YY = I on qubit 2
    assert pauli_mul(a, b) == pauli_parse("+iZI") == _product(a, b)


def test_mul_associative_on_random_strings():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 6)
        a, b, c = (
            PauliString(
                tuple(rng.randrange(4) for _ in range(m)), rng.randrange(4)
            )
            for _ in range(3)
        )
        assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))
        assert _product(a, b, c) == pauli_mul(pauli_mul(a, b), c)
    # batches on and off the 64-bit word boundary: their product, and the
    # plane rows it reads, qubit 1 first or in a given order, against the
    # letters the planes unpack to
    for n in (1, 63, 64, 65, 127, 129):
        m = rng.randint(1, 9)
        strings = [
            PauliString(tuple(rng.randrange(4) for _ in range(m)), rng.randrange(4))
            for _ in range(n)
        ]
        assert _product(*strings) == functools.reduce(pauli_mul, strings)
        planes = pack_letters(np.array([p.letters for p in strings], dtype=np.uint8).T)
        letters = unpack_planes(planes, n).tolist()
        rows = [
            tuple(sum(1 << j for j, l in enumerate(row) if l in bit) for bit in ((1, 2), (2, 3)))
            for row in letters
        ]
        order = rng.sample(range(1, m + 1), m)
        assert list(plane_rows(planes)) == rows
        assert list(plane_rows(planes, order)) == [rows[q - 1] for q in order]


def test_hermitian_strings_square_to_identity():
    rng = random.Random(5)
    for _ in range(100):
        m = rng.randint(1, 5)
        p = PauliString(tuple(rng.randrange(4) for _ in range(m)))
        assert pauli_mul(p, p) == pauli_identity(m) == _product(p, p)
        assert check_generator_set([p, PauliString(p.letters, 1)]).square_failures == (2,)


def test_commutes():
    for a, b, commute in (
        ("X", "Z", False),
        ("XX", "YY", True),
        ("XI", "IZ", True),
        ("XXI", "YII", False),
        ("III", "XYZ", True),
    ):
        a, b = pauli_parse(a), pauli_parse(b)
        assert pauli_commutes(a, b) == commute
        assert check_generator_set([a, b]).anticommuting != commute


def test_weight():
    assert pauli_weight(pauli_identity(4)) == 0
    assert pauli_weight(pauli_parse("+XIZY")) == 3


def test_format_parse_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        m = rng.randint(1, 8)
        p = PauliString(tuple(rng.randrange(4) for _ in range(m)), rng.randrange(4))
        assert pauli_parse(pauli_format(p)) == p


def test_parse_sign_prefixes():
    assert pauli_parse("+XZ").phase == 0
    assert pauli_parse("+iXZ").phase == 1
    assert pauli_parse("-XZ").phase == 2
    assert pauli_parse("-iXZ").phase == 3
    assert pauli_parse("XZ") == pauli_parse("+XZ")


"""Reed-Solomon outer code and Gao's unique decoder, against a
nearest-codeword search and a Berlekamp-Welch oracle."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aelcert.codes
from aelcert import make_field, rs_unique_decode
from aelcert.errors import FieldMismatch, Mismatch
from aelcert.codes import LinearCode
from instances import pairwise_min_distance
from aelcert.outer import RSOuterCode
from test_codes import solve


@pytest.fixture(scope="module")
def rs12(gf16):
    return RSOuterCode(gf16, 12, 2)


def test_construction_requires_enough_points(gf4):
    with pytest.raises(Mismatch, match="q=4 < n=12"):
        RSOuterCode(gf4, 12, 2)


@pytest.mark.parametrize("n,dim,points,name", [
    (4, 2, [0, 1.7, 2, 3], "points"),
    (4.0, 2, None, "n"),
    (4, "2", None, "dim"),
])
def test_input_that_is_not_an_integer_rejected(gf16, n, dim, points, name):
    with pytest.raises(ValueError, match=name):
        RSOuterCode(gf16, n, dim, points=points)


def test_mds_distance(rs12):
    assert rs12.min_distance() == Fraction(11, 12)


@pytest.mark.parametrize("p,m,n,dim,points", [
    (2, 4, 12, 2, None),
    (2, 4, 6, 2, [15, 3, 8, 1, 12, 6]),
    (2, 4, 5, 3, [9, 0, 14, 2, 7]),
    (17, 1, 17, 2, None),
    (17, 1, 6, 1, [16, 2, 9, 4, 11, 5]),
    (3, 2, 9, 2, None),
    (3, 2, 4, 4, [8, 1, 5, 3]),
    (3, 2, 7, 2, [8, 7, 6, 5, 4, 3, 2]),
])
def test_mds_distance_matches_the_enumerations(p, m, n, dim, points):
    code = RSOuterCode(make_field(p, m), n, dim, points=points)
    assert code.min_distance() == Fraction(n - dim + 1, n) == LinearCode.min_distance(code)
    if code.size <= 300:
        assert code.min_distance() == pairwise_min_distance(code.enumerate_codewords())


def test_mds_distance_needs_no_enumeration():
    # 256^223 codewords: the enumeration would raise TooLarge
    code = RSOuterCode(make_field(2, 8), 255, 223)
    assert code.min_distance() == Fraction(33, 255)


def test_unique_decoding_radius(rs12):
    assert rs12.unique_decoding_radius == 5
    assert rs12.delta_dec == Fraction(5, 12)


def test_encode_zero_and_constant(rs12, gf16):
    assert rs12.encode([0, 0]) == (0,) * 12
    assert rs12.encode([7, 0]) == (7,) * 12


def test_encode_affine(rs12, gf16):
    # f(x) = 1 + x over the default points (0..11 as field representatives)
    word = rs12.encode([1, 1])
    assert word == tuple(gf16.add(1, p) for p in rs12.points)


def test_encode_dimension_mismatch(rs12):
    with pytest.raises(Mismatch, match="message length 3 != dim 2"):
        rs12.encode([1, 2, 3])


@pytest.mark.parametrize("dim", [0, -1, 5, 17])
def test_dimension_outside_1_to_n_is_refused(gf16, dim):
    message = "at least one row" if dim < 1 else "not full row rank"
    with pytest.raises(Mismatch, match=message):
        RSOuterCode(gf16, 4, dim)


def test_contains_row_reduces_once_on_first_call(gf16, monkeypatch):
    # the rank comes from the theorem; `contains` builds its reduced rows
    # on its first call and keeps them
    rref, calls = aelcert.codes.rref, []
    monkeypatch.setattr(aelcert.codes, "rref",
                        lambda field, rows: calls.append(len(rows)) or rref(field, rows))
    code = RSOuterCode(gf16, 6, 3)
    assert calls == []
    cw = code.encode([1, 2, 3])
    assert code.contains(cw) and not code.contains(cw[:-1] + ((cw[-1] + 1) % 16,))
    assert calls == [3]


def test_decode_uncorrupted(rs12):
    for msg in ([0, 0], [1, 1], [13, 7]):
        cw = rs12.encode(msg)
        assert rs_unique_decode(rs12, list(cw)) == cw


def test_decode_all_weights_up_to_radius(rs12, gf16):
    rng = np.random.default_rng(2)
    for trial in range(100):
        msg = [int(x) for x in rng.integers(0, 16, 2)]
        cw = list(rs12.encode(msg))
        weight = int(rng.integers(0, 6))
        word = list(cw)
        for pos in rng.permutation(12)[:weight]:
            word[pos] = (word[pos] + 1 + int(rng.integers(0, 15))) % 16
        assert rs_unique_decode(rs12, word) == tuple(cw)


def test_decode_beyond_radius_returns_nearby_codeword(rs12):
    # 6 corruptions turning one codeword into a word within distance 5 of a
    # different codeword: the decoder contract is the radius, not the
    # transmitted word, so the other codeword must come back
    cw1 = rs12.encode([1, 1])
    cw2 = rs12.encode([2, 3])
    word = list(cw1)
    changed = 0
    for i in range(12):
        if word[i] != cw2[i] and changed < 6:
            word[i] = cw2[i]
            changed += 1
    assert changed == 6
    # word is within 12 - 1 - 6 = 5 of cw2 (the pair differ in >= 11 places)
    dist2 = sum(1 for a, b in zip(word, cw2) if a != b)
    assert dist2 <= 5
    assert rs_unique_decode(rs12, word) == cw2


def test_decode_output_is_always_a_codeword(rs12):
    rng = np.random.default_rng(4)
    for trial in range(50):
        word = [int(x) for x in rng.integers(0, 16, 12)]
        result = rs_unique_decode(rs12, word)
        if result is not None:
            assert rs12.contains(result)
            dist = sum(1 for a, b in zip(word, result) if a != b)
            assert dist <= 5


@pytest.mark.parametrize("field, n, k", [
    (make_field(2, 4), 12, 2), (make_field(2, 3), 7, 3), (make_field(3, 2), 9, 3),
])
def test_decode_refuses_a_polynomial_of_degree_k(field, n, k):
    # x^k differs from every codeword in at least n - k positions, beyond
    # the radius; its interpolant has degree k, so the division yields a
    # quotient with one coefficient too many
    code = RSOuterCode(field, n, k)
    word = [field.pow(a, k) for a in code.points]
    assert rs_unique_decode(code, word) is None


def test_decode_small_code_exhaustive(gf8):
    # RS[7,3]/GF(8): radius 2; every codeword, every 1- and 2-error pattern
    code = RSOuterCode(gf8, 7, 3)
    words = code.enumerate_codewords()
    rng = np.random.default_rng(6)
    sample = [words[int(i)] for i in rng.choice(len(words), 10, replace=False)]
    for cw in sample:
        for positions in list(combinations(range(7), 2))[:10]:
            word = list(cw)
            for pos in positions:
                word[pos] = (word[pos] + 1) % 8
            assert rs_unique_decode(code, word) == cw


# -- malformed input is refused before any decoding ---------------------------


def test_decode_rejects_a_short_word(rs12):
    word = list(rs12.encode([3, 5]))[:9]
    with pytest.raises(Mismatch, match="word length 9 != n 12"):
        rs_unique_decode(rs12, word)


def test_decode_rejects_a_negative_symbol(rs12):
    word = list(rs12.encode([3, 5]))
    word[4] = -1
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word)


def test_decode_rejects_a_symbol_above_the_field(rs12):
    word = list(rs12.encode([3, 5]))
    word[0] = 99
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word)
    word[0] = 16
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word)


def test_decode_rejects_a_fractional_symbol(rs12):
    word = list(rs12.encode([3, 5]))
    word[0] += 0.5  # int() would truncate it back to the codeword's symbol
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word)
    word[0] = 3.0  # integral, but still not a field element
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word)
    numpy_word = [np.int64(y) for y in rs12.encode([3, 5])]
    assert rs_unique_decode(rs12, numpy_word) == rs12.encode([3, 5])


@pytest.mark.parametrize("symbol", [None, "3", float("nan"), True])
def test_decode_rejects_a_non_numeric_symbol(rs12, symbol):
    # None is the ERASED marker: an outer decoder has no erasure support;
    # True == 1, yet a bool is not a field element
    word = list(rs12.encode([3, 5]))
    word[2] = symbol
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word)


def _horner(F, p, x):
    acc = 0
    for c in reversed(p):
        acc = F.add(F.mul(acc, x), c)
    return acc


def test_interpolation_table_is_built_on_first_decode():
    for field, n, points in [
        (make_field(2, 4), 12, None),
        (make_field(2, 4), 5, [3, 9, 14, 1, 6]),
        (make_field(3, 2), 8, [0, 8, 2, 6, 4, 1, 7, 3]),
        (make_field(5), 5, None),
    ]:
        code = RSOuterCode(field, n, 2, points=points)
        assert code._interp is None  # the constructor does not build it
        rs_unique_decode(code, list(code.encode([1, 2])))
        g0, basis = code._interp
        assert code._interpolation_table() is code._interp
        assert len(g0) == n + 1 and g0[-1] == 1
        assert all(_horner(field, g0, a) == 0 for a in code.points)
        assert len(basis) == n
        for a, lagrange in zip(code.points, basis):
            assert len(lagrange) == n
            assert [_horner(field, lagrange, b) for b in code.points] == [
                int(a == b) for b in code.points
            ]


def _no_rref(*args, **kwargs):
    raise AssertionError("called codes.rref")


def test_decode_never_row_reduces(rs12, monkeypatch):
    cw = rs12.encode([9, 4])
    word = list(cw)
    for pos in (0, 3, 7, 11):
        word[pos] ^= 5
    monkeypatch.setattr(aelcert.codes, "rref", _no_rref)
    assert rs_unique_decode(rs12, word) == cw
    assert rs_unique_decode(rs12, [0, 1] * 6) is None


def test_decode_rs255_223_with_16_errors(monkeypatch):
    # an RS generator has full rank by theorem, so neither building the
    # code nor decoding row-reduces
    monkeypatch.setattr(aelcert.codes, "rref", _no_rref)
    code = RSOuterCode(make_field(2, 8), 255, 223)
    assert code.unique_decoding_radius == 16
    rng = np.random.default_rng(255)
    cw = code.encode([int(x) for x in rng.integers(0, 256, 223)])
    word = list(cw)
    for pos in rng.permutation(255)[:16]:
        word[pos] ^= int(rng.integers(1, 256))
    assert sum(1 for a, b in zip(word, cw) if a != b) == 16
    assert rs_unique_decode(code, word) == cw


# -- against a nearest-codeword search -----------------------------------------

_SEARCH_CODES = {
    "rs8_2_gf9": RSOuterCode(make_field(3, 2), 8, 2),
    "rs9_3_gf9": RSOuterCode(make_field(3, 2), 9, 3),
    "rs12_2_gf16": RSOuterCode(make_field(2, 4), 12, 2),
    "rs10_3_gf16": RSOuterCode(make_field(2, 4), 10, 3),
}


def _nearest_within(code, word):
    """The codeword within the unique-decoding radius of `word`, by
    exhaustive search, or None (there is at most one)."""
    near = [
        cw for cw in code.enumerate_codewords()
        if sum(1 for a, b in zip(cw, word) if a != b) <= code.unique_decoding_radius
    ]
    assert len(near) <= 1
    return near[0] if near else None


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_decode_matches_nearest_codeword_search(data):
    code = _SEARCH_CODES[data.draw(st.sampled_from(sorted(_SEARCH_CODES)))]
    q, n = code.field.q, code.n
    msg = data.draw(st.lists(st.integers(0, q - 1), min_size=code.dim, max_size=code.dim))
    word = list(code.encode(msg))
    # weights up to n - k: past the radius the decoder must return another
    # codeword within it or nothing
    weight = data.draw(st.integers(0, n - code.dim))
    positions = data.draw(st.permutations(range(n)))[:weight]
    for pos in positions:
        word[pos] = (word[pos] + data.draw(st.integers(1, q - 1))) % q
    assert rs_unique_decode(code, word) == _nearest_within(code, word)


# -- against Berlekamp-Welch, on codes too large to search --------------------


def _bw_divmod(F, num, den):
    """Polynomial long division, one `mul`/`sub` call per symbol."""
    num = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    inv_lead = F.inv(den[-1])
    for i in range(len(num) - len(den), -1, -1):
        c = F.mul(num[i + len(den) - 1], inv_lead)
        quot[i] = c
        for j, d in enumerate(den):
            num[i + j] = F.sub(num[i + j], F.mul(c, d))
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def berlekamp_welch(code, word, radius):
    """The codeword within `radius` of `word`, or None, by Berlekamp-Welch:
    solve Q(a) = y E(a) at every point a, with E monic of degree `radius`
    and deg Q < radius + k, for the unknowns of E and Q (through
    `codes.rref`), then divide Q by E."""
    F, k, t = code.field, code.dim, radius
    if t == 0:
        return tuple(word) if code.contains(word) else None
    rows, rhs = [], []
    for a, y in zip(code.points, word):
        powers = [F.pow(a, e) for e in range(t + k)]
        rows.append([F.mul(F.neg(y), p) for p in powers[:t]] + powers)
        rhs.append(F.mul(y, F.pow(a, t)))
    sol = solve(F, rows, rhs)
    if sol is None:
        return None
    f, rem = _bw_divmod(F, sol[t:], sol[:t] + [1])
    if rem or any(f[k:]):
        return None
    decoded = tuple(_horner(F, f, a) for a in code.points)
    if sum(1 for a, b in zip(decoded, word) if a != b) > radius:
        return None
    return decoded


_ORACLE_FIELDS = {"gf16": make_field(2, 4), "gf25": make_field(5, 2)}
_ORACLE_SHAPES = {"gf16": (15, 5), "gf25": (24, 8)}


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_decode_matches_berlekamp_welch_oracle(data):
    name = data.draw(st.sampled_from(sorted(_ORACLE_FIELDS)))
    field, (n, k) = _ORACLE_FIELDS[name], _ORACLE_SHAPES[name]
    q = field.q
    # with or without 0, where every power of the point but the zeroth vanishes
    nonzero = data.draw(st.permutations(range(1, q)))
    if data.draw(st.booleans()):
        nonzero = [0, *nonzero[:n - 1]]
    points = data.draw(st.permutations(nonzero[:n]))
    code = RSOuterCode(field, n, k, points=points)
    msg = data.draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k))
    word = list(code.encode(msg))
    # weights up to n - k: past the unique radius the word may land near
    # another codeword or near none
    weight = data.draw(st.integers(0, n - k))
    for pos in data.draw(st.permutations(range(n)))[:weight]:
        word[pos] = (word[pos] + data.draw(st.integers(1, q - 1))) % q
    radius = code.unique_decoding_radius
    expected = berlekamp_welch(code, word, radius)
    assert rs_unique_decode(code, word) == expected
    if weight <= radius:
        assert expected == code.encode(msg)

"""Reed-Solomon outer code and the Berlekamp-Welch unique decoder."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aelcert import make_field, rs_unique_decode
from aelcert.errors import (
    AelcertError,
    DimensionMismatch,
    FieldMismatch,
    FieldTooSmall,
    LengthMismatch,
    RadiusTooLarge,
)
from aelcert.outer import RSOuterCode


@pytest.fixture(scope="module")
def rs12(gf16):
    return RSOuterCode(gf16, 12, 2)


def test_construction_requires_enough_points(gf4):
    with pytest.raises(FieldTooSmall):
        RSOuterCode(gf4, 12, 2)


def test_mds_distance(rs12):
    assert rs12.min_distance() == Fraction(11, 12)


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
    with pytest.raises(DimensionMismatch):
        rs12.encode([1, 2, 3])


def test_decode_uncorrupted(rs12):
    for msg in ([0, 0], [1, 1], [13, 7]):
        cw = rs12.encode(msg)
        assert rs_unique_decode(rs12, list(cw), 5) == cw


def test_decode_radius_too_large(rs12):
    with pytest.raises(RadiusTooLarge):
        rs_unique_decode(rs12, [0] * 12, 6)


def test_decode_radius_zero_is_membership(rs12):
    cw = rs12.encode([3, 5])
    assert rs_unique_decode(rs12, list(cw), 0) == cw
    bad = list(cw)
    bad[0] = (bad[0] + 1) % 16
    assert rs_unique_decode(rs12, bad, 0) is None


def test_decode_all_weights_up_to_radius(rs12, gf16):
    rng = np.random.default_rng(2)
    for trial in range(100):
        msg = [int(x) for x in rng.integers(0, 16, 2)]
        cw = list(rs12.encode(msg))
        weight = int(rng.integers(0, 6))
        word = list(cw)
        for pos in rng.permutation(12)[:weight]:
            word[pos] = (word[pos] + 1 + int(rng.integers(0, 15))) % 16
        assert rs_unique_decode(rs12, word, 5) == tuple(cw)


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
    assert rs_unique_decode(rs12, word, 5) == cw2


def test_decode_output_is_always_a_codeword(rs12):
    rng = np.random.default_rng(4)
    for trial in range(50):
        word = [int(x) for x in rng.integers(0, 16, 12)]
        result = rs_unique_decode(rs12, word, 5)
        if result is not None:
            assert rs12.contains(result)
            dist = sum(1 for a, b in zip(word, result) if a != b)
            assert dist <= 5


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
            assert rs_unique_decode(code, word, 2) == cw


# -- malformed input is refused before any decoding ---------------------------


def test_decode_rejects_a_short_word(rs12):
    word = list(rs12.encode([3, 5]))[:9]
    with pytest.raises(LengthMismatch):
        rs_unique_decode(rs12, word, 5)


def test_decode_rejects_a_negative_symbol(rs12):
    word = list(rs12.encode([3, 5]))
    word[4] = -1
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word, 5)


def test_decode_rejects_a_symbol_above_the_field(rs12):
    word = list(rs12.encode([3, 5]))
    word[0] = 99
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word, 5)
    word[0] = 16
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word, 0)


def test_decode_rejects_a_fractional_symbol(rs12):
    word = list(rs12.encode([3, 5]))
    word[0] += 0.5  # int() would truncate it back to the codeword's symbol
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word, 5)
    word[0] = 3.0  # integral, but still not a field element
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word, 5)
    numpy_word = [np.int64(y) for y in rs12.encode([3, 5])]
    assert rs_unique_decode(rs12, numpy_word, 5) == rs12.encode([3, 5])


@pytest.mark.parametrize("symbol", [None, "3", float("nan")])
def test_decode_rejects_a_non_numeric_symbol(rs12, symbol):
    # None is the ERASED marker: an outer decoder has no erasure support
    word = list(rs12.encode([3, 5]))
    word[2] = symbol
    with pytest.raises(FieldMismatch):
        rs_unique_decode(rs12, word, 5)


def test_decode_rejects_a_negative_radius(rs12):
    with pytest.raises(AelcertError):
        rs_unique_decode(rs12, list(rs12.encode([3, 5])), -1)


def test_point_powers_are_built_on_first_decode(gf16):
    code = RSOuterCode(gf16, 12, 2)
    assert code._powers is None
    rs_unique_decode(code, list(code.encode([1, 2])), 3)
    top = code.unique_decoding_radius + code.dim
    assert code._powers == [
        [gf16.pow(a, e) for e in range(top + 1)] for a in code.points
    ]


# -- Berlekamp-Welch against a nearest-codeword search ------------------------

_BW_CODES = {
    "rs8_2_gf9": RSOuterCode(make_field(3, 2), 8, 2),
    "rs9_3_gf9": RSOuterCode(make_field(3, 2), 9, 3),
    "rs12_2_gf16": RSOuterCode(make_field(2, 4), 12, 2),
    "rs10_3_gf16": RSOuterCode(make_field(2, 4), 10, 3),
}


def _nearest_within(code, word, radius):
    """The codeword within `radius` of `word`, by exhaustive search, or None
    (the radius is at most the unique-decoding radius, so there is at most one)."""
    near = [
        cw for cw in code.enumerate_codewords()
        if sum(1 for a, b in zip(cw, word) if a != b) <= radius
    ]
    assert len(near) <= 1
    return near[0] if near else None


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_decode_matches_nearest_codeword_search(data):
    code = _BW_CODES[data.draw(st.sampled_from(sorted(_BW_CODES)))]
    q, n = code.field.q, code.n
    radius = data.draw(st.integers(0, code.unique_decoding_radius))
    msg = data.draw(st.lists(st.integers(0, q - 1), min_size=code.dim, max_size=code.dim))
    word = list(code.encode(msg))
    # weights up to radius + 1: the last one is beyond the radius, where the
    # decoder must return another codeword within it or nothing
    weight = data.draw(st.integers(0, radius + 1))
    positions = data.draw(st.permutations(range(n)))[:weight]
    for pos in positions:
        word[pos] = (word[pos] + data.draw(st.integers(1, q - 1))) % q
    assert rs_unique_decode(code, word, radius) == _nearest_within(code, word, radius)

"""Reed-Solomon outer code and its syndrome decoder, against a
nearest-codeword search and two oracles: Gao's decoder and Berlekamp-Welch."""

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
from aelcert.gf import poly_divmod, poly_trim
from instances import pairwise_min_distance
from aelcert.outer import RSOuterCode
from test_codes import solve
from test_gf import poly_mul


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


def _no_rref(*args, **kwargs):
    raise AssertionError("called codes.rref")


def test_contains_is_every_syndrome_zero(monkeypatch):
    # against the row-reduced membership of a plain LinearCode with the same
    # generator (reduced before rref is patched), on codewords and on
    # one-symbol corruptions of some; the RS code never row-reduces
    cases = []
    for p, m, n, dim, points in [(2, 4, 12, 2, None), (2, 4, 6, 3, [15, 3, 8, 1, 12, 6]),
                                 (3, 2, 7, 2, [0, 8, 7, 5, 4, 3, 2]), (17, 1, 9, 4, None)]:
        field = make_field(p, m)
        code = RSOuterCode(field, n, dim, points=points)
        plain = LinearCode(field, code.generator)
        words = code.enumerate_codewords()[::max(1, code.size // 50)]
        assert plain.contains(words[0])  # its one row reduction
        corrupted = [w[:i] + ((w[i] + c) % field.q,) + w[i + 1:]
                     for w in words[:8] for i in range(n) for c in (1, field.q - 1)]
        cases.append((code, plain, words, corrupted))
    monkeypatch.setattr(aelcert.codes, "rref", _no_rref)
    for code, plain, words, corrupted in cases:
        assert all(code.contains(w) and plain.contains(w) for w in words)
        assert not any(code.contains(w) or plain.contains(w) for w in corrupted)
        for bad in (-1, code.field.q, 0.5, None, True):
            assert not code.contains((bad,) + words[1][1:])
        with pytest.raises(Mismatch, match=f"word length {code.n - 1} != n {code.n}"):
            code.contains(words[1][1:])


@pytest.mark.parametrize("p,m,n,dim,points", [
    (2, 4, 12, 5, None),
    (3, 2, 8, 4, [0, 8, 2, 6, 4, 1, 7, 3]),
    (17, 1, 10, 3, [16, 2, 9, 4, 11, 5, 0, 1, 7, 13]),
    (2, 4, 15, 1, list(range(1, 16))),
])
def test_generator_rows_are_the_powers_of_the_points(p, m, n, dim, points):
    field = make_field(p, m)
    code = RSOuterCode(field, n, dim, points=points)
    assert code.generator == tuple(
        tuple(field.pow(a, i) for a in code.points) for i in range(dim))


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
    # the radius
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


_TABLE_CODES = [
    (make_field(2, 4), 12, 3, None),
    (make_field(2, 4), 5, 2, [3, 9, 14, 1, 6]),
    (make_field(3, 2), 8, 2, [0, 8, 2, 6, 4, 1, 7, 3]),
    (make_field(5), 5, 2, None),
    (make_field(2, 2), 4, 4, None),
]


def test_parity_table_checks_every_codeword():
    for field, n, k, points in _TABLE_CODES:
        code = RSOuterCode(field, n, k, points=points)
        assert "_parity" not in code.__dict__  # the constructor does not build it
        v, checks, powers = code._parity
        assert code._parity is code.__dict__["_parity"]
        t = code.unique_decoding_radius
        assert checks.shape == (n, n - k) and powers.shape == (t + 1, n)
        for i, a in enumerate(code.points):
            denom = 1
            for b in code.points:
                if b != a:
                    denom = field.mul(denom, field.sub(a, b))
            assert field.mul(v[i], denom) == 1
            assert checks[i].tolist() == [field.mul(v[i], field.pow(a, j)) for j in range(n - k)]
            inverse = field.inv(a) if a else 0
            assert powers[:, i].tolist() == [field.pow(inverse, j) for j in range(t + 1)]
        assert not any(code._syndromes(list(cw)).any() for cw in code.enumerate_codewords())


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


# -- against Gao's decoder and Berlekamp-Welch --------------------------------


def _gao_table(code):
    """(g0, basis): g0 = prod (x - a) over the points, and per point a the
    Lagrange basis L_a = g0 / (x - a) / prod_{b != a} (a - b)."""
    F = code.field
    g0 = [1]
    for a in code.points:
        # (x - a) * g0 = x * g0 - a * g0
        g0 = F.sub_scaled_row([0] + g0, a, g0 + [0])
    basis = []
    for a in code.points:
        quot, _ = poly_divmod(F, g0, [F.neg(a), 1])
        denom = 1
        for b in code.points:
            if b != a:
                denom = F.mul(denom, F.sub(a, b))
        basis.append(F.scale_row(F.inv(denom), quot))
    return g0, basis


def gao_decode(code, word):
    """Gao's decoder (S. Gao, 2003) at the unique radius: interpolate the
    word (g1), run a partial extended Euclid on (g0, g1), keeping
    r_i = u_i g0 + v_i g1, up to the first remainder of degree < (n + k) / 2,
    and divide it by v_i.  An exact quotient of degree < k is the codeword;
    it disagrees with the word only where v_i vanishes, at most
    deg v_i <= (n - k) / 2 points."""
    F, n, k = code.field, code.n, code.dim
    g0, basis = _gao_table(code)
    r0, r1 = g0, poly_trim(F.combine(word, basis))
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= n + k:
        quot, rem = poly_divmod(F, r0, r1)
        prod = poly_mul(F, quot, v1)  # deg prod > deg v0
        r0, r1 = r1, rem
        v0, v1 = v1, F.sub_scaled_row(v0 + [0] * (len(prod) - len(v0)), 1, prod)
    f, rem = poly_divmod(F, r1, v1)
    if rem or len(f) > k:
        return None
    return code.encode(f + [0] * (k - len(f)))


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
        plain = LinearCode(code.field, code.generator)
        return tuple(word) if plain.contains(word) else None
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


_AGREEMENT_FIELDS = {
    "gf16": make_field(2, 4), "gf32": make_field(2, 5),
    "gf13": make_field(13), "gf31": make_field(31),
    "gf9": make_field(3, 2), "gf27": make_field(3, 3), "gf25": make_field(5, 2),
}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_decoder_gao_and_berlekamp_welch_agree(data):
    # random RS codes over characteristic 2, prime and odd-extension fields,
    # with and without the point 0, at every error weight 0..n - k
    field = _AGREEMENT_FIELDS[data.draw(st.sampled_from(sorted(_AGREEMENT_FIELDS)))]
    q = field.q
    n = data.draw(st.integers(2, min(q, 16)))
    k = data.draw(st.integers(1, n))
    points = data.draw(st.permutations(range(q)))[:n]
    code = RSOuterCode(field, n, k, points=points)
    msg = data.draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k))
    word = list(code.encode(msg))
    weight = data.draw(st.integers(0, n - k))
    for pos in data.draw(st.permutations(range(n)))[:weight]:
        word[pos] = (word[pos] + data.draw(st.integers(1, q - 1))) % q
    decoded = rs_unique_decode(code, word)
    assert decoded == gao_decode(code, word)
    assert decoded == berlekamp_welch(code, word, code.unique_decoding_radius)


@pytest.mark.parametrize("p,m", [(2, 17), (3, 11), (65537, 1)])
def test_decoder_matches_gao_over_a_field_without_tables(p, m):
    field = make_field(p, m)
    assert field._exp is None
    rng = np.random.default_rng(p * m)
    points = [0] + [int(x) for x in rng.choice(np.arange(1, field.q), 13, replace=False)]
    code = RSOuterCode(field, 14, 6, points=points)
    cw = code.encode([int(x) for x in rng.integers(0, field.q, 6)])
    for weight in range(0, 9):
        word = list(cw)
        for pos in rng.permutation(14)[:weight]:
            word[pos] = field.add(word[pos], int(rng.integers(1, field.q)))
        decoded = rs_unique_decode(code, word)
        assert decoded == gao_decode(code, word)
        if weight <= 4:
            assert decoded == cw


@pytest.mark.parametrize("p,m", [(2, 4), (5, 2), (17, 1)])
def test_errors_at_the_point_zero_are_corrected(p, m):
    # the point 0's error adds no root to the locator, only one to its length
    field = make_field(p, m)
    code = RSOuterCode(field, 10, 2, points=[5, 0, 1, 2, 3, 4, 6, 7, 8, 9])
    cw = code.encode([3, 1])
    for others in ([], [0], [4, 6], [2, 3, 7]):
        word = list(cw)
        for pos in [1] + others:
            word[pos] = field.add(word[pos], 1 + pos % (field.q - 1))
        assert rs_unique_decode(code, word) == cw


def test_a_recurrence_one_longer_than_its_locator_needs_the_point_zero():
    # syndromes (1, 0, ..., 0) have the recurrence C = 1 of length 1: an
    # error at the point 0 when the code has it; without it, no codeword
    # lies within the radius, and the word must be refused
    field = make_field(2, 4)
    for points in (range(1, 11), range(10)):
        code = RSOuterCode(field, 10, 4, points=points)
        checks = code._parity[1].tolist()
        # a word on the last n - k points with syndromes (1, 0, ..., 0)
        word = [0] * 4 + solve(field, [list(r) for r in zip(*checks[4:])],
                               [1] + [0] * 5)
        assert code._syndromes(word).tolist() == [1] + [0] * 5
        decoded = rs_unique_decode(code, word)
        assert decoded == gao_decode(code, word) == berlekamp_welch(code, word, 3)
        if 0 in code.points:
            assert sum(a != b for a, b in zip(word, decoded)) == 1
        else:
            assert decoded is None

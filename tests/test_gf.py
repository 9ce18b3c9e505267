"""Finite field construction and arithmetic."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aelcert import Field, gf, make_field, multiplicative_generator
from aelcert.errors import DivisionByZero, FieldMismatch, FieldRefused
from aelcert.gf import _checked_order, _ints, poly_divmod, poly_trim


def test_make_field_gf2_modulus():
    f = make_field(2, 1)
    assert f.q == 2
    assert f.modulus == (0, 1)  # x


def test_make_field_gf4_modulus():
    # the only monic irreducible quadratic over GF(2) is x^2 + x + 1
    f = make_field(2, 2)
    assert f.q == 4
    assert f.modulus == (1, 1, 1)


def test_make_field_gf16_modulus():
    # lexicographically smallest irreducible quartic: x^4 + x + 1
    f = make_field(2, 4)
    assert f.q == 16
    assert f.modulus == (1, 1, 0, 0, 1)


def test_make_field_rejects_nonprime():
    with pytest.raises(FieldRefused, match="^4 is not prime$"):
        make_field(4, 1)
    with pytest.raises(FieldRefused, match="^1 is not prime$"):
        make_field(1, 2)


def test_make_field_rejects_too_large():
    with pytest.raises(FieldRefused, match=r"GF\(2\^21\) exceeds the cap"):
        make_field(2, 21)
    # the cap is checked before trial division, which would take ~10^9 steps
    with pytest.raises(FieldRefused, match=r"\^1\) exceeds the cap"):
        make_field(2**61 - 1)


def test_huge_degree_is_refused_before_p_to_the_m():
    # 2^(10^12) would be a 10^12-bit integer; the degree bound refuses it first
    with pytest.raises(FieldRefused, match="exceeds the cap"):
        make_field(2, 10**12)
    with pytest.raises(FieldRefused, match="exceeds the cap"):
        Field(2, 10**12, (1, 1))
    # the degree bound is exact: GF(2^20) is at the cap, GF(2^21) above it
    assert _checked_order(2, 20) == (2, 20)
    with pytest.raises(FieldRefused, match="exceeds the cap"):
        _checked_order(2, 21)


# the message of each FieldRefused row of the table below
_FIELD_REFUSED = {(300, 2): "^300 is not prime$", (2, 21): r"^GF\(2\^21\) exceeds the cap"}


@pytest.mark.parametrize("p,m,modulus,error", [
    # x^17 + 1 = (x + 1)(x^16 + ... + 1); q > 2^16, so no table build sees it
    (2, 17, (1,) + (0,) * 16 + (1,), ValueError),
    (2, 2, (0, 1, 1), ValueError),  # x^2 + x = x(x + 1)
    (2, 2, (1, 1, 0), ValueError),  # degree 1, not 2
    (3, 2, (1, 3, 1), ValueError),  # a coefficient outside GF(3)
    (300, 2, (1, 0, 1), FieldRefused),
    (2, 0, (1,), ValueError),
    (2, 21, (1, 0, 1) + (0,) * 18 + (1,), FieldRefused),
    (2.0, 2, (1, 1, 1), ValueError),
    (2, True, (0, 1), ValueError),
    (2, 2, (1, 1.0, 1), ValueError),
    # (x^2 + x + 1)^2 has no root: only a divisor of degree deg // 2 finds it
    (2, 4, (1, 0, 1, 0, 1), ValueError),
])
def test_field_refuses_what_is_not_a_field(p, m, modulus, error):
    with pytest.raises(error, match=_FIELD_REFUSED.get((p, m))):
        Field(p, m, modulus)


def test_field_accepts_numpy_integers():
    f = Field(np.int64(2), np.int32(2), np.array([1, 1, 1]))
    assert f == make_field(2, 2)
    assert all(type(x) is int for x in (f.p, f.m, *f.modulus))


@pytest.mark.parametrize("value", [True, np.bool_(True), 1.0, 1.5, "1", None])
def test_ints_refuses_what_is_not_an_integer(value):
    with pytest.raises(ValueError, match="^x: "):
        _ints(value, "x")
    with pytest.raises(ValueError, match="^x: "):
        _ints([[0], [1, value]], "x", 2)


def test_ints_reads_sequences_and_numpy_integers():
    assert _ints((np.int64(3), np.uint8(2), 1), "x", 1) == [3, 2, 1]
    assert _ints(np.array([[1, 2], [3, 4]]), "x", 2) == [[1, 2], [3, 4]]
    assert type(_ints(np.int64(3), "x")) is int
    for not_a_sequence in ("12", 12):
        with pytest.raises(ValueError, match="sequence"):
            _ints(not_a_sequence, "x", 1)


def test_vector_reads_field_elements(gf16):
    assert gf16.vector([0, 15, 7], "v") == [0, 15, 7]
    assert gf16.vector((np.int64(15), np.uint8(0)), "v") == [15, 0]
    assert gf16.vector([], "v") == []
    assert all(type(x) is int for x in gf16.vector(np.array([1, 2]), "v"))


@pytest.mark.parametrize("bad", [-1, 16, 99, True, 1.0, 0.5, "3", None, float("nan")])
def test_vector_refuses_what_is_not_a_field_element(gf16, bad):
    for vector in ([bad], [0, 3, bad]):
        with pytest.raises(FieldMismatch, match="^v: "):
            gf16.vector(vector, "v")
    # FieldMismatch is a ValueError, the type of every other bad input value
    with pytest.raises(ValueError):
        gf16.vector([bad], "v")


def test_vector_refuses_what_is_not_a_sequence(gf16):
    for not_a_sequence in (3, "0123", None):
        with pytest.raises(FieldMismatch, match="v: expected a sequence"):
            gf16.vector(not_a_sequence, "v")


def test_gf4_alpha_squared(gf4):
    # alpha * alpha = alpha + 1: representatives 2 * 2 = 3
    assert gf4.mul(2, 2) == 3


def test_mul_identity_exhaustive(gf16):
    for a in range(16):
        assert gf16.mul(1, a) == a
        assert gf16.mul(a, 1) == a


def test_gf2_one_times_one(gf2):
    assert gf2.mul(1, 1) == 1


def test_inv_one(gf4):
    assert gf4.inv(1) == 1


def test_gf4_inv_alpha(gf4):
    # alpha * (alpha + 1) = alpha^2 + alpha = 1
    assert gf4.inv(2) == 3
    assert gf4.mul(2, 3) == 1


def test_gf16_inv_exhaustive(gf16):
    for a in range(1, 16):
        assert gf16.mul(a, gf16.inv(a)) == 1


def test_inv_zero_raises(gf4):
    with pytest.raises(DivisionByZero, match="0 has no multiplicative inverse"):
        gf4.inv(0)


def test_generator_gf2(gf2):
    assert multiplicative_generator(gf2) == 1


def test_generator_gf4(gf4):
    assert multiplicative_generator(gf4) == 2


def test_generator_gf17(gf17):
    assert multiplicative_generator(gf17) == 3


def test_generator_enumerates_all_nonzero():
    for p, m in [(2, 1), (2, 2), (2, 3), (3, 2), (17, 1)]:
        f = make_field(p, m)
        g = multiplicative_generator(f)
        powers = {f.pow(g, e) for e in range(f.q - 1)}
        assert powers == set(range(1, f.q))


def poly_mul(F, a, b):
    """a * b for trimmed a and b: one `sub_scaled_row` per coefficient of a.
    Gao's decoder in test_outer.py multiplies with it too."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            out[i:i + len(b)] = F.sub_scaled_row(out[i:i + len(b)], F.neg(c), b)
    return out


def _poly(f):
    return st.lists(st.integers(0, f.q - 1), max_size=7).map(poly_trim)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (17, 1)])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_poly_divmod_is_division_with_remainder(p, m, data):
    f = make_field(p, m)
    num = data.draw(_poly(f))
    den = data.draw(_poly(f).filter(bool))
    quot, rem = poly_divmod(f, num, den)
    assert len(rem) < len(den) and (not quot or quot[-1])
    # num = quot * den + rem
    prod = poly_mul(f, quot, den)
    pad = len(num) - len(prod), len(num) - len(rem)
    assert poly_trim(f.sub_scaled_row(prod + [0] * pad[0], f.neg(1), rem + [0] * pad[1])) == num


def test_poly_divmod_by_zero_raises(gf4):
    # one class for both divisions by zero, still a ZeroDivisionError
    with pytest.raises(DivisionByZero, match="polynomial division by zero"):
        poly_divmod(gf4, [1, 1], [0, 0])
    assert issubclass(DivisionByZero, ZeroDivisionError)


def test_pow_of_zero(gf8):
    assert gf8.pow(0, 0) == 1
    assert gf8.pow(0, 1) == 0
    assert gf8.pow(0, 5) == 0


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_field_axioms_exhaustive(p, m):
    f = make_field(p, m)
    elems = range(f.q)
    for a, b in product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, b) == f.add(a, f.neg(b))
    for a, b, c in product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_field_axioms_gf256_sampled():
    # q = 256 is too big for a cubic exhaustive sweep in reasonable time;
    # sample a structured grid instead plus the full inverse sweep
    f = make_field(2, 8)
    grid = list(range(0, 256, 7)) + [1, 2, 3, 254, 255]
    for a in grid:
        for b in grid:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            for c in (0, 1, 5, 97, 255):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, 256):
        inv = f.inv(a)
        assert f.mul(a, inv) == 1
        assert f.inv(inv) == a


def test_double_inverse_small_fields():
    for p, m in [(2, 2), (2, 4), (3, 2), (17, 1)]:
        f = make_field(p, m)
        for a in range(1, f.q):
            assert f.inv(f.inv(a)) == a


@given(a=st.integers(0, 15), b=st.integers(0, 15), c=st.integers(0, 15))
@settings(max_examples=200)
def test_gf16_ring_properties(a, b, c, gf16):
    f = gf16
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.sub(f.add(a, b), b) == a


@given(a=st.integers(1, 15), e=st.integers(0, 60))
@settings(max_examples=100)
def test_gf16_pow_matches_repeated_mul(a, e, gf16):
    acc = 1
    for _ in range(e):
        acc = gf16.mul(acc, a)
    assert gf16.pow(a, e) == acc


# -- table lookups and row primitives against the schoolbook product ----------

TABLE_FIELDS = [(2, 1), (2, 2), (2, 4), (3, 2), (17, 1)]
# no exp/log tables above q = 2^16: the row primitives fall back to `mul`
TABLELESS_FIELDS = [(2, 17), (3, 11)]


def _order(f, g):
    """Multiplicative order of g != 0 by repeated schoolbook products."""
    x, k = g, 1
    while x != 1:
        x, k = f._mul_poly(x, g), k + 1
    return k


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_generator_is_the_smallest_element_of_full_order(p, m):
    f = make_field(p, m)
    assert multiplicative_generator(f) == min(g for g in range(1, f.q) if _order(f, g) == f.q - 1)
    # the tables are the walk of its powers
    assert f._exp[1] == multiplicative_generator(f)


@pytest.mark.parametrize("p,m", [(2, m) for m in range(2, 13)] + [(3, 4), (5, 3)])
def test_tables_are_the_schoolbook_walk_of_the_generator(p, m):
    # the shift-and-reduce walk gives the tables the `_mul_poly` walk gives
    f = make_field(p, m)
    g = multiplicative_generator(f)
    exp, log, x = [], [0] * f.q, 1
    for i in range(f.q - 1):
        exp.append(x)
        log[x] = i
        x = f._mul_poly(x, g)
    assert x == 1
    assert f._exp == exp + exp and f._log == log


@pytest.mark.parametrize("p,m", TABLELESS_FIELDS)
def test_inverse_without_tables(p, m):
    # inv is pow(a, q - 2) over the schoolbook product here
    f = make_field(p, m)
    assert f._exp is None
    rng = random.Random(p * 100 + m)
    for a in [1, 2, f.q - 1] + [rng.randrange(1, f.q) for _ in range(20)]:
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_mul_matches_schoolbook_exhaustive(p, m):
    # covers every index of the doubled exp table, log a + log b <= 2(q - 2)
    f = make_field(p, m)
    assert len(f._exp) == 2 * (f.q - 1)
    for a, b in product(range(f.q), repeat=2):
        assert f.mul(a, b) == f._mul_poly(a, b)
    for a in range(1, f.q):
        assert f._mul_poly(a, f.inv(a)) == 1


def _row_samples(f, rng_seed):
    """Rows with zeros, a zero row, and coefficients including 0, 1 and q - 1."""
    rng = random.Random(rng_seed)
    length = 9
    rows = [[0] * length, [rng.randrange(f.q) for _ in range(length)]]
    for _ in range(4):
        row = [rng.randrange(f.q) for _ in range(length)]
        row[rng.randrange(length)] = 0
        rows.append(row)
    coeffs = [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(5)]
    return rows, coeffs


@pytest.mark.parametrize("p,m", TABLE_FIELDS + TABLELESS_FIELDS)
def test_row_primitives_match_scalar_ops(p, m):
    f = make_field(p, m)
    assert (f._exp is None) == ((p, m) in TABLELESS_FIELDS)
    rows, coeffs = _row_samples(f, p * 100 + m)
    for c in coeffs:
        for x in rows:
            for y in rows:
                assert f.sub_scaled_row(x, c, y) == [
                    f.sub(a, f.mul(c, b)) for a, b in zip(x, y)
                ]
                # the axpy form used by encoding
                assert f.sub_scaled_row(x, f.neg(c), y) == [
                    f.add(a, f.mul(c, b)) for a, b in zip(x, y)
                ]


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (17, 1)])
def test_row_primitives_exhaustive_small(p, m):
    f = make_field(p, m)
    elems = list(range(f.q))
    for c in elems:
        for a in elems:
            x = [a] * f.q
            assert f.sub_scaled_row(x, c, elems) == [
                f.sub(a, f._mul_poly(c, y)) for y in elems
            ]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 3), (17, 1)],
                         ids=["GF2", "GF4", "GF16", "GF3", "GF9", "GF27", "GF17"])
def test_add_arrays_is_add_elementwise(p, m):
    # every pair of elements, as two (q, q) arrays, and broadcast against a row
    f = make_field(p, m)
    a, b = np.meshgrid(np.arange(f.q), np.arange(f.q), indexing="ij")
    total = f.add_arrays(a, b)
    assert total.shape == (f.q, f.q)
    assert total.tolist() == [[f.add(x, y) for y in range(f.q)] for x in range(f.q)]
    row = np.arange(f.q)[::-1]
    assert f.add_arrays(a[:, :1], row).tolist() == [
        [f.add(x, y) for y in row.tolist()] for x in range(f.q)]


@pytest.mark.parametrize("p,m", TABLE_FIELDS + TABLELESS_FIELDS + [(65537, 1)])
def test_array_primitives_match_scalar_ops(p, m):
    # mul_arrays and sum_arrays against mul and add, dot against a fold of
    # them; 65537 is a prime field with no tables
    f = make_field(p, m)
    rows, coeffs = _row_samples(f, p * 100 + m)
    a, b = np.array(rows), np.array(rows[::-1])
    assert f.mul_arrays(a, b).tolist() == [
        [f.mul(x, y) for x, y in zip(r, s)] for r, s in zip(rows, rows[::-1])]
    column = np.array(coeffs[:len(rows)])[:, None]
    assert f.mul_arrays(a, column).tolist() == [
        [f.mul(x, c) for x in r] for r, c in zip(rows, coeffs)]
    total = [0] * len(rows[0])
    for r in rows:
        total = [f.add(x, y) for x, y in zip(total, r)]
    assert f.sum_arrays(a).tolist() == total
    assert f.sum_arrays(a[:0]).tolist() == [0] * len(rows[0])
    for r in rows:
        expected = 0
        for x, y in zip(coeffs, r):
            expected = f.add(expected, f.mul(x, y))
        assert f.dot(coeffs, r) == expected


def test_row_primitives_return_new_lists(gf16):
    x = [1, 2, 3]
    out = gf16.sub_scaled_row(x, 0, [4, 5, 6])
    assert out == x and out is not x


@pytest.mark.parametrize("p", [3, 5, 17])
def test_prime_field_arithmetic_matches_the_digit_path(p):
    # m = 1 computes mod p directly; the extension-field path goes through
    # the base-p digits of `to_coeffs` and `from_coeffs`
    f = make_field(p)

    def add(a, b):
        return f.from_coeffs((x + y) % p for x, y in zip(f.to_coeffs(a), f.to_coeffs(b)))

    def neg(a):
        return f.from_coeffs((-x) % p for x in f.to_coeffs(a))

    xs, ys = zip(*product(range(p), repeat=2))
    for a, b in zip(xs, ys):
        assert f.add(a, b) == add(a, b)
        assert f.sub(a, b) == add(a, neg(b))
    assert [f.neg(a) for a in range(p)] == [neg(a) for a in range(p)]
    for c in range(p):
        assert f.sub_scaled_row(xs, c, ys) == [add(a, neg(f.mul(c, b))) for a, b in zip(xs, ys)]


# (modulus, multiplicative_generator) of every field the tests and the
# benchmark build: how the scan runs its trial divisions must not move them
PINNED_FIELDS = {
    (2, 1): ((0, 1), 1),
    (2, 2): ((1, 1, 1), 2),
    (2, 3): ((1, 1, 0, 1), 2),
    (2, 4): ((1, 1, 0, 0, 1), 2),
    (2, 8): ((1, 1, 0, 1, 1, 0, 0, 0, 1), 3),
    (2, 17): ((1, 0, 0, 1) + (0,) * 13 + (1,), 2),
    (3, 1): ((0, 1), 2),
    (3, 2): ((1, 0, 1), 4),
    (3, 11): ((2, 0, 1) + (0,) * 8 + (1,), 5),
    (5, 1): ((0, 1), 2),
    (5, 2): ((2, 0, 1), 6),
    (17, 1): ((0, 1), 3),
}


@pytest.mark.parametrize("p,m", sorted(PINNED_FIELDS))
def test_moduli_and_generators_are_pinned(p, m):
    f = make_field(p, m)
    assert (f.modulus, multiplicative_generator(f)) == PINNED_FIELDS[p, m]


def test_make_field_builds_the_prime_field_once_per_scan(monkeypatch):
    calls = []
    init = gf.Field.__init__

    def counted(self, p, m, modulus):
        calls.append((p, m))
        init(self, p, m, modulus)

    monkeypatch.setattr(gf.Field, "__init__", counted)
    # the tables are not part of the count, and GF(2^16)'s take a second
    monkeypatch.setattr(gf.Field, "_build_tables", lambda self: None)
    gf._prime_field.cache_clear()
    try:
        f = make_field(2, 16)
        g = make_field(2, 4)
    finally:
        gf._prime_field.cache_clear()  # its GF(2) was built without tables
    assert f.modulus == (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,)
    assert g.modulus == (1, 1, 0, 0, 1)
    # one GF(2) serves both scans and both constructors' modulus checks
    assert calls == [(2, 1), (2, 16), (2, 4)]

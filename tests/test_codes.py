"""Linear codes: encoding, enumeration, distance, puncturing, erasures."""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aelcert import ERASED, ErasedWord, LinearCode, dist_with_erasures, make_field
from aelcert.codes import pairwise_min_distance, rref
from aelcert.errors import (
    DimensionMismatch,
    EmptyResidual,
    EnumerationTooLarge,
    FieldMismatch,
    LengthMismatch,
)
from aelcert.inner import sample_random_linear_code
from aelcert.outer import RSOuterCode


@pytest.fixture
def rep3(gf2):
    return LinearCode(gf2, [[1, 1, 1]])


@pytest.fixture
def rs42(gf4):
    # RS[4,2] over GF(4) with evaluation points (0, 1, alpha, alpha+1)
    return RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])


def test_rref_rank(gf2):
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    reduced, pivots = rref(gf2, rows)
    assert len(reduced) == 2
    assert pivots == [0, 1]


def test_generator_must_have_full_rank(gf2):
    with pytest.raises(Exception):
        LinearCode(gf2, [[1, 1, 0], [1, 1, 0]])


def test_generator_entries_must_lie_in_field(gf2):
    with pytest.raises(FieldMismatch):
        LinearCode(gf2, [[1, 2, 0]])


def test_encode_zero_message(rs42):
    assert rs42.encode([0, 0]) == (0, 0, 0, 0)


def test_encode_repetition(rep3):
    assert rep3.encode([1]) == (1, 1, 1)


def test_encode_rs42_affine_polynomial(rs42):
    # f(x) = 1 + x evaluated at (0, 1, alpha, alpha+1) = (1, 0, alpha+1, alpha)
    assert rs42.encode([1, 1]) == (1, 0, 3, 2)


def test_encode_dimension_mismatch(rs42):
    with pytest.raises(DimensionMismatch):
        rs42.encode([1])


def test_encode_message_outside_field(rs42):
    with pytest.raises(FieldMismatch):
        rs42.encode([1, 7])


def test_enumerate_repetition(rep3):
    assert rep3.enumerate_codewords() == [(0, 0, 0), (1, 1, 1)]


def test_enumerate_counts(rs42):
    words = rs42.enumerate_codewords()
    assert len(words) == 16
    assert len(set(words)) == 16


def test_enumerate_cap():
    f16 = make_field(2, 4)
    code = RSOuterCode(f16, 16, 6)
    with pytest.raises(EnumerationTooLarge):
        code.enumerate_codewords(cap=1000)


def test_min_distance_repetition(rep3):
    assert rep3.min_distance() == 1


def test_min_distance_rs42(rs42):
    # MDS: (n - k + 1)/n = 3/4
    assert rs42.min_distance() == Fraction(3, 4)


def test_min_distance_identity_code(gf2):
    code = LinearCode(gf2, [[1, 0], [0, 1]])
    assert code.min_distance() == Fraction(1, 2)


def test_min_distance_matches_pairwise_oracle(gf4):
    # the linearity shortcut must agree with the direct pairwise definition
    for rows in [
        [[1, 1, 1, 0], [0, 1, 2, 3]],
        [[1, 0, 2, 1]],
        [[1, 2, 3, 1], [0, 1, 1, 2]],
    ]:
        code = LinearCode(gf4, rows)
        assert code.min_distance() == pairwise_min_distance(code.enumerate_codewords())


def test_puncture_empty_set(rs42):
    same = rs42.puncture([])
    assert same.n == 4 and same.dim == 2
    # puncturing re-derives the generator, so compare codeword sets
    assert set(same.enumerate_codewords()) == set(rs42.enumerate_codewords())


def test_puncture_repetition(rep3):
    punctured = rep3.puncture([2])
    assert punctured.n == 2 and punctured.dim == 1
    assert punctured.enumerate_codewords() == [(0, 0), (1, 1)]


def test_puncture_rs42_rate_one(rs42):
    punctured = rs42.puncture([0, 1])
    assert punctured.n == 2 and punctured.dim == 2
    assert punctured.rate == 1


def test_puncture_everything_raises(rep3):
    with pytest.raises(EmptyResidual):
        rep3.puncture([0, 1, 2])


def test_puncture_rate_never_drops(gf4):
    # dim can only drop under puncturing; rate = dim/n can only grow or
    # stay while the punctured distance stays positive
    code = LinearCode(gf4, [[1, 1, 1, 0], [0, 1, 2, 3]])
    for r in range(1, 3):
        for coords in combinations(range(4), r):
            punctured = code.puncture(coords)
            assert punctured.dim <= code.dim
            if code.min_distance() > Fraction(r, 4):
                assert punctured.dim == code.dim


def test_erased_word_fraction():
    w = ErasedWord((0, ERASED, 1, 1))
    assert w.n == 4
    assert w.erasure_count == 1
    assert w.s == Fraction(1, 4)


def test_dist_with_erasures_identical():
    w = ErasedWord((0, 1, 1, 0))
    assert dist_with_erasures(w, (0, 1, 1, 0)) == 0


def test_dist_with_erasures_all_erased():
    w = ErasedWord((ERASED,) * 4)
    for h in product(range(2), repeat=4):
        assert dist_with_erasures(w, h) == 0


def test_dist_with_erasures_counts_over_full_n():
    # one non-erased disagreement out of n=4 (denominator is n, not n - #erasures)
    w = ErasedWord((0, ERASED, 1, 1))
    assert dist_with_erasures(w, (0, 0, 0, 1)) == Fraction(1, 4)


def test_dist_with_erasures_length_mismatch():
    with pytest.raises(LengthMismatch):
        dist_with_erasures(ErasedWord((0, 1)), (0, 1, 0))


def test_erasure_decomposition_exhaustive(gf2):
    # erasing S removes exactly the disagreements inside S from the count
    code = LinearCode(gf2, [[1, 0, 1], [0, 1, 1]])
    words = code.enumerate_codewords()
    for g in product(range(2), repeat=3):
        for h in words:
            plain = Fraction(sum(1 for a, b in zip(g, h) if a != b), 3)
            for r in range(4):
                for s_set in combinations(range(3), r):
                    erased = ErasedWord(
                        tuple(ERASED if i in s_set else g[i] for i in range(3))
                    )
                    inside = Fraction(
                        sum(1 for i in s_set if g[i] != h[i]), 3
                    )
                    assert dist_with_erasures(erased, h) == plain - inside


@given(msg1=st.lists(st.integers(0, 3), min_size=2, max_size=2),
       msg2=st.lists(st.integers(0, 3), min_size=2, max_size=2))
@settings(max_examples=100)
def test_linearity(msg1, msg2, gf4):
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    summed = [gf4.add(a, b) for a, b in zip(msg1, msg2)]
    cw = tuple(
        gf4.add(a, b) for a, b in zip(code.encode(msg1), code.encode(msg2))
    )
    assert code.encode(summed) == cw


def test_contains_rejects_symbols_outside_field(gf16):
    code = RSOuterCode(gf16, 12, 2)
    word = list(code.encode([3, 5]))
    assert code.contains(word)
    for bad in (99, 16, -1):
        assert not code.contains([bad] + word[1:])
    ternary_rep = LinearCode(make_field(3), [[1, 1, 1]])
    assert ternary_rep.contains([2, 2, 2])
    assert not ternary_rep.contains([4, 4, 4])
    assert not ternary_rep.contains([3, 3, 3])


def test_contains_agrees_with_enumeration(gf2, gf4):
    # every word of F^n: membership by re-encoding vs the enumerated code
    for code in (
        sample_random_linear_code(gf2, 5, 2, np.random.default_rng(11)),
        RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]),
        LinearCode(make_field(3), [[1, 2, 0], [0, 1, 1]]),
    ):
        codewords = set(code.enumerate_codewords())
        for word in product(range(code.field.q), repeat=code.n):
            assert code.contains(word) == (word in codewords)


@st.composite
def linear_systems(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    field = make_field(2, 2) if q == 4 else make_field(q)
    n_rows = draw(st.integers(1, 4))
    n_unknowns = draw(st.integers(1, 3))
    symbol = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(symbol, min_size=n_unknowns, max_size=n_unknowns),
                         min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        # consistent by construction: rhs = rows @ x0
        x0 = draw(st.lists(symbol, min_size=n_unknowns, max_size=n_unknowns))
        rhs = [_dot(field, row, x0) for row in rows]
    else:
        rhs = draw(st.lists(symbol, min_size=n_rows, max_size=n_rows))
    return field, rows, rhs


def solve(field, rows, rhs):
    """One solution x of rows @ x = rhs over `field`, or None if there is none.

    Row-reduces the augmented matrix [rows | rhs]; a pivot in the constant
    column means the system is inconsistent.  Free variables are set to 0.
    The Berlekamp-Welch oracle in test_outer.py solves its systems here.
    """
    unknowns = len(rows[0])
    reduced, pivots = rref(field, [list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == unknowns:
        return None
    x = [0] * unknowns
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return x


def _dot(field, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


@given(system=linear_systems())
@settings(max_examples=300, deadline=None)
def test_solve_matches_brute_force(system):
    field, rows, rhs = system
    n_unknowns = len(rows[0])
    solutions = [
        x for x in product(range(field.q), repeat=n_unknowns)
        if all(_dot(field, row, x) == b for row, b in zip(rows, rhs))
    ]
    x = solve(field, rows, rhs)
    if not solutions:
        assert x is None
        return
    assert tuple(x) in solutions
    # free (non-pivot) variables are set to 0
    _, pivots = rref(field, rows)
    assert all(x[j] == 0 for j in range(n_unknowns) if j not in pivots)


# -- rref against the per-symbol elimination it replaced ----------------------


def _rref_oracle(field, rows):
    """Per-symbol Gauss-Jordan elimination: the same loop and pivot rule as
    `rref`, one `mul`/`sub` call per entry."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


_ORACLE_FIELDS = [make_field(2), make_field(2, 2), make_field(3, 2), make_field(2, 4),
                  make_field(17)]


@st.composite
def matrices(draw):
    """Matrices over GF(2), GF(4), GF(9), GF(16) or GF(17): random, with
    all-zero rows, rank-deficient (rows that combine earlier rows), all-zero,
    or with no rows at all."""
    field = draw(st.sampled_from(_ORACLE_FIELDS))
    symbol = st.integers(0, field.q - 1)
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "deficient", "zero"]))
    if kind == "zero":
        return field, [[0] * n_cols for _ in range(n_rows)]
    rows = []
    for _ in range(n_rows):
        if kind == "deficient" and rows and draw(st.booleans()):
            row = [0] * n_cols
            for prev in rows:
                c = draw(symbol)
                row = [field.add(a, field.mul(c, b)) for a, b in zip(row, prev)]
        elif draw(st.integers(0, 4)) == 0:
            row = [0] * n_cols
        else:
            row = draw(st.lists(symbol, min_size=n_cols, max_size=n_cols))
        rows.append(row)
    return field, rows


@given(system=matrices())
@settings(max_examples=400, deadline=None)
def test_rref_matches_per_symbol_oracle(system):
    field, rows = system
    before = [list(r) for r in rows]
    assert rref(field, rows) == _rref_oracle(field, rows)
    assert rows == before  # the input is not modified


def test_rref_edge_cases_match_oracle():
    for field in _ORACLE_FIELDS:
        for rows in ([], [[0, 0, 0]], [[0, 0], [0, 0]], [[1, 1], [0, 0]]):
            assert rref(field, rows) == _rref_oracle(field, rows)
        assert rref(field, []) == ([], [])

"""
Reed-Solomon outer code with a syndrome decoder.

RS[n, k] evaluates the polynomials of degree < k at n distinct points a_i.
Its dual is a generalized RS code: c is a codeword iff every syndrome
S_j = sum_i v_i c_i a_i^j, j < n - k, is zero, where
v_i = 1 / prod_{j != i} (a_i - a_j) (sum_i v_i g(a_i) is the x^(n-1)
coefficient of the interpolant of g, zero when deg g < n - 1).  One table
per code, built on first use, holds the v_i, these parity-check rows and the
powers of the inverse points; membership and decoding both read it, and no
linear system is solved.

The decoder (`rs_unique_decode`) runs Berlekamp-Massey on the syndromes
(J. L. Massey, IEEE Trans. IT 1969), finds the error positions by a Chien
search and the error values by Forney's formula (G. D. Forney, IEEE
Trans. IT 1965), and returns the corrected word only if its syndromes are
zero.  Syndromes and the Chien search work on whole numpy arrays
(`Field.mul_arrays`, `Field.sum_arrays`); Berlekamp-Massey works on lists
through the table-driven `Field.dot` and `Field.sub_scaled_row`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import zip_longest

import numpy as np

from .codes import LinearCode
from .errors import Mismatch
from .gf import Field, _ints, poly_trim


class RSOuterCode(LinearCode):
    """Evaluation-encoded RS code over distinct points.

    Its generator is the dim x n Vandermonde matrix of the points, built by
    running products (row i is row i - 1 times the points), so its rank
    follows from a theorem and no elimination runs: distinct points give
    full row rank exactly when 1 <= dim <= n."""

    def __init__(self, field: Field, n: int, dim: int, points=None):
        n, dim = _ints(n, "n"), _ints(dim, "dim")
        if points is None:
            if field.q < n:
                raise Mismatch(f"q={field.q} < n={n}")
            points = range(n)
        points = field.vector(points, "points")
        if len(points) != n or len(set(points)) != n:
            raise ValueError("evaluation points must be n distinct field elements")
        generator = [[1] * n] if dim > 0 else []
        for _ in range(dim - 1):
            generator.append([field.mul(x, a) for x, a in zip(generator[-1], points)])
        super().__init__(field, generator)
        self.points = tuple(points)

    def _full_rank(self) -> bool:
        return self.dim <= self.n

    def min_distance(self) -> Fraction:
        """(n - dim + 1)/n, with no enumeration: a nonzero word is a
        polynomial of degree < dim, zero on at most dim - 1 points, and
        prod (x - a) over dim - 1 of the points meets that."""
        return Fraction(self.n - self.dim + 1, self.n)

    @cached_property
    def _parity(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """(v, checks, powers), built on first use.  v[i] is
        1 / prod_{j != i} (a_i - a_j); `checks` is the (n, n - k) array
        v_i a_i^j, one row per point; `powers` is the (t + 1, n) array
        a_i^(-j), j <= t, whose column for the point 0 holds the powers of 0,
        so a polynomial with constant term 1 has no root there.  Each is a
        running product, one `mul_arrays` per step."""
        F = self.field
        a = np.array(self.points, dtype=np.int64)
        prod = np.ones_like(a)
        for i, b in enumerate(self.points):
            diff = F.add_arrays(a, F.neg(b))
            diff[i] = 1
            prod = F.mul_arrays(prod, diff)
        v = [F.inv(x) for x in prod.tolist()]
        column, checks = np.array(v, dtype=np.int64), []
        for _ in range(self.n - self.dim):
            checks.append(column)
            column = F.mul_arrays(column, a)
        inverse = np.array([F.inv(x) if x else 0 for x in self.points], dtype=np.int64)
        powers = [np.ones_like(a)]
        for _ in range(self.unique_decoding_radius):
            powers.append(F.mul_arrays(powers[-1], inverse))
        return v, np.array(checks, dtype=np.int64).reshape(-1, self.n).T.copy(), np.stack(powers)

    def _syndromes(self, word: list[int]) -> np.ndarray:
        """The n - k syndromes of a checked word, as an array."""
        checks = self._parity[1]
        return self.field.sum_arrays(self.field.mul_arrays(checks, np.array(word)[:, None]))

    def _is_codeword(self, word: list[int]) -> bool:
        """Every syndrome is zero; no elimination runs."""
        return not self._syndromes(word).any()

    @property
    def unique_decoding_radius(self) -> int:
        """Maximum correctable error count floor((n - dim) / 2)."""
        return (self.n - self.dim) // 2

    @property
    def delta_dec(self) -> Fraction:
        return Fraction(self.unique_decoding_radius, self.n)


def _berlekamp_massey(F: Field, s: list[int]) -> tuple[list[int], int]:
    """(C, L): the shortest linear recurrence that generates s, as
    sum_{i <= L} C_i s_{r-i} = 0 for every r >= L, with C_0 = 1, C trimmed
    and deg C <= L (Massey 1969)."""
    C, B, L, gap, b = [1], [1], 0, 1, 1
    for r in range(len(s)):
        d = F.dot(C, s[r::-1])
        if not d:
            gap += 1
            continue
        shifted = [0] * gap + B
        pad = len(shifted) - len(C)
        prev = C
        C = F.sub_scaled_row(C + [0] * pad, F.mul(d, F.inv(b)), shifted + [0] * -pad)
        if 2 * L <= r:
            L, B, b, gap = r + 1 - L, prev, d, 1
        else:
            gap += 1
    return poly_trim(C), L


def rs_unique_decode(code: RSOuterCode, word):
    """Syndrome decoding at the unique radius t = floor((n - k) / 2).

    Returns the codeword within t errors of the word if there is one, else
    None.  Raises Mismatch for a word of the wrong length and
    FieldMismatch for a symbol that is not an integer in [0, q).

    Errors e at positions i give S_j = sum_i v_i e_i a_i^j: power sums whose
    shortest recurrence has the locator C(x) = prod (1 - a_i x) over the
    nonzero error points, and length L = deg C plus one if the point 0 is
    in error (its term, v_0 e_0 at j = 0 only, adds no factor).  For at
    most t errors, n - k >= 2L syndromes determine (C, L) uniquely, and
    Berlekamp-Massey finds it; the roots of C are the inverses of the
    nonzero error points, and Forney's formula with
    Omega = C * S mod x^L gives v_i e_i = -a_i Omega(1/a_i) / C'(1/a_i),
    and v_0 e_0 = Omega_(L-1) / C_(L-1) at the point 0.

    No codeword beyond t comes back: the corrected word is returned only if
    its syndromes are zero, and it differs from the word in at most L <= t
    places.
    """
    F = code.field
    word = F.vector(word, "word")
    if len(word) != code.n:
        raise Mismatch(f"word length {len(word)} != n {code.n}")
    syndromes = code._syndromes(word)
    if not syndromes.any():
        return tuple(word)
    s = syndromes.tolist()
    C, L = _berlekamp_massey(F, s)
    if L > code.unique_decoding_radius:
        return None
    v, _, powers = code._parity
    deg = len(C) - 1
    # C, Omega = C * S mod x^L and the derivative C', at 1/a for every point
    # a: the roots of C are the Chien search, the rest is Forney's formula
    omega = [F.dot(C, s[j::-1]) for j in range(L)]
    slope = [F.mul(i % F.p, c) for i, c in enumerate(C)][1:]
    coeffs = np.array(list(zip_longest(C, omega, slope, fillvalue=0)))
    at_c, at_omega, at_slope = F.sum_arrays(
        F.mul_arrays(powers[:len(coeffs), None], coeffs[:, :, None])).tolist()
    roots = [i for i, x in enumerate(at_c) if x == 0]
    if len(roots) != deg:  # else C has a repeated or a missing root
        return None
    # deg C distinct roots: C' is nonzero at each of them
    errors = {i: F.mul(F.neg(code.points[i]), F.mul(at_omega[i], F.inv(F.mul(at_slope[i], v[i]))))
              for i in roots}
    if L == deg + 1 and 0 in code.points:
        i = code.points.index(0)
        errors[i] = F.mul(omega[-1], F.inv(F.mul(C[-1], v[i])))
    decoded = list(word)
    for i, e in errors.items():
        decoded[i] = F.sub(decoded[i], e)
    if code._syndromes(decoded).any():
        return None
    return tuple(decoded)

"""
Reed-Solomon outer code with Gao's unique decoder.

Gao's decoder (S. Gao, "A new algorithm for decoding Reed-Solomon codes",
2003) interpolates the received word, runs a partial extended Euclid on the
interpolant and prod (x - a) over the evaluation points, and divides.  It
takes O(n^2) field operations per word, with no linear system, and decodes
at the one radius floor((n - k) / 2): it corrects every error pattern of at
most that weight and never returns a codeword farther from the word.
The interpolant is one `Field.combine` of the cached Lagrange basis with
the word's symbols; the rest of its polynomial arithmetic is
`gf.poly_divmod` and `gf.poly_mul`.
"""

from __future__ import annotations

from fractions import Fraction

from .codes import LinearCode
from .errors import Mismatch
from .gf import Field, _ints, poly_divmod, poly_mul, poly_trim


class RSOuterCode(LinearCode):
    """Evaluation-encoded RS code over distinct points.

    Its generator is the dim x n Vandermonde matrix of the points, so its
    rank follows from a theorem and no elimination runs: distinct points
    give full row rank exactly when 1 <= dim <= n."""

    def __init__(self, field: Field, n: int, dim: int, points=None):
        n, dim = _ints(n, "n"), _ints(dim, "dim")
        if points is None:
            if field.q < n:
                raise Mismatch(f"q={field.q} < n={n}")
            points = range(n)
        points = field.vector(points, "points")
        if len(points) != n or len(set(points)) != n:
            raise ValueError("evaluation points must be n distinct field elements")
        generator = [
            [field.pow(a, i) for a in points] for i in range(dim)
        ]
        super().__init__(field, generator)
        self.points = tuple(points)
        self._interp: tuple[list[int], list[list[int]]] | None = None

    def _full_rank(self) -> bool:
        return self.dim <= self.n

    def min_distance(self, cap=None) -> Fraction:
        """(n - dim + 1)/n, with no enumeration (`cap` is not read): a nonzero
        word is a polynomial of degree < dim, zero on at most dim - 1 points,
        and prod (x - a) over dim - 1 of the points meets that."""
        return Fraction(self.n - self.dim + 1, self.n)

    def _interpolation_table(self) -> tuple[list[int], list[list[int]]]:
        """(g0, basis): g0 = prod (x - a) over the points, and per point a
        the Lagrange basis L_a = g0 / (x - a) / prod_{b != a} (a - b), so
        L_a(b) = [a = b].  Each quotient is one `poly_divmod` of g0 by a
        linear factor, so the table costs O(n^2).  Built on the first call."""
        if self._interp is None:
            F = self.field
            g0 = [1]
            for a in self.points:
                # (x - a) * g0 = x * g0 - a * g0
                g0 = F.sub_scaled_row([0] + g0, a, g0 + [0])
            basis = []
            for a in self.points:
                quot, _ = poly_divmod(F, g0, [F.neg(a), 1])
                denom = 1
                for b in self.points:
                    if b != a:
                        denom = F.mul(denom, F.sub(a, b))
                basis.append(F.scale_row(F.inv(denom), quot))
            self._interp = g0, basis
        return self._interp

    @property
    def unique_decoding_radius(self) -> int:
        """Maximum correctable error count floor((n - dim) / 2)."""
        return (self.n - self.dim) // 2

    @property
    def delta_dec(self) -> Fraction:
        return Fraction(self.unique_decoding_radius, self.n)


def rs_unique_decode(code: RSOuterCode, word):
    """Gao's decoding at the unique radius t = floor((n - k) / 2).

    Returns the codeword within t errors of the word if there is one, else
    None.  Raises Mismatch for a word of the wrong length and
    FieldMismatch for a symbol that is not an integer in [0, q).

    No codeword beyond t comes back.  The Euclid loop keeps
    r_i = u_i g0 + v_i g1 with deg v_i = n - deg r_{i-1}, and it stops at
    the first r = r_i of degree < (n + k) / 2, so deg r_{i-1} >= (n + k) / 2
    and deg v <= (n - k) / 2.  A returned f = r / v has no remainder and
    deg f < k; at every point a, g0(a) = 0 and g1(a) = y_a give
    r(a) = v(a) y_a, so f(a) = y_a wherever v(a) != 0.  Then f disagrees
    with the word on at most deg v <= t points.
    """
    F = code.field
    n, k = code.n, code.dim
    word = F.vector(word, "word")
    if len(word) != n:
        raise Mismatch(f"word length {len(word)} != n {n}")
    # g1 interpolates the word: g1(a) = y_a at every point a
    g0, basis = code._interpolation_table()
    g1 = F.combine(word, basis)
    # Partial extended Euclid on (g0, g1), keeping r_i = u_i g0 + v_i g1,
    # up to the first remainder of degree < (n + k) / 2
    r0, r1 = g0, poly_trim(g1)
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

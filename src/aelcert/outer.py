"""
Reed-Solomon outer code with Gao's unique decoder.

Gao's decoder (S. Gao, "A new algorithm for decoding Reed-Solomon codes",
2003) interpolates the received word, runs a partial extended Euclid on the
interpolant and prod (x - a) over the evaluation points, and divides.  It
takes O(n^2) field operations per word, with no linear system, and corrects
every error pattern of weight up to floor((n - k) / 2).
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .codes import LinearCode
from .errors import (
    AelcertError,
    FieldMismatch,
    FieldTooSmall,
    LengthMismatch,
    RadiusTooLarge,
)
from .gf import Field


class RSOuterCode(LinearCode):
    """Evaluation-encoded RS code over distinct points."""

    def __init__(self, field: Field, n: int, dim: int, points=None):
        if points is None:
            if field.q < n:
                raise FieldTooSmall(f"q={field.q} < n={n}")
            points = list(range(n))
        points = [int(a) for a in points]
        if len(points) != n or len(set(points)) != n or not all(0 <= a < field.q for a in points):
            raise ValueError("evaluation points must be n distinct field elements")
        generator = [
            [field.pow(a, i) for a in points] for i in range(dim)
        ]
        super().__init__(field, generator)
        self.points = tuple(points)
        self._interp: tuple[list[int], list[list[int]]] | None = None

    def _interpolation_table(self) -> tuple[list[int], list[list[int]]]:
        """(g0, basis): g0 = prod (x - a) over the points, and per point a
        the Lagrange basis L_a = g0 / (x - a) / prod_{b != a} (a - b), so
        L_a(b) = [a = b].  Each quotient is one synthetic division of g0,
        so the table costs O(n^2).  Built on the first call."""
        if self._interp is None:
            F, n = self.field, self.n
            g0 = [1]
            for a in self.points:
                # (x - a) * g0 = x * g0 - a * g0
                g0 = F.sub_scaled_row([0] + g0, a, g0 + [0])
            basis = []
            for a in self.points:
                quot, acc = [0] * n, 0
                for i in range(n, 0, -1):
                    acc = F.add(g0[i], F.mul(a, acc))
                    quot[i - 1] = acc
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


# -- polynomial helpers over a Field ------------------------------------------
# Polynomials are coefficient lists, low degree first; zero is [].


def poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(F: Field, a: list[int], b: list[int]) -> list[int]:
    """a * b for trimmed a and b: one `sub_scaled_row` per coefficient of a."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            out[i:i + len(b)] = F.sub_scaled_row(out[i:i + len(b)], F.neg(c), b)
    return out


def poly_divmod(F: Field, num: list[int], den: list[int]):
    """(quotient, remainder) of num / den: one `sub_scaled_row` per
    quotient coefficient."""
    num = list(num)
    den = poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    width = len(den)
    quot = [0] * max(len(num) - width + 1, 0)
    inv_lead = F.inv(den[-1])
    for i in range(len(num) - width, -1, -1):
        c = F.mul(num[i + width - 1], inv_lead)
        if c:
            quot[i] = c
            num[i:i + width] = F.sub_scaled_row(num[i:i + width], c, den)
    return poly_trim(quot), poly_trim(num)


def rs_unique_decode(code: RSOuterCode, word, radius: int | None = None):
    """Gao's decoding within the given error-count radius.

    Returns the unique codeword within `radius` errors if one exists, else
    None.  Never returns a codeword outside the radius.  Raises
    LengthMismatch for a word of the wrong length, FieldMismatch for a
    symbol that is not an integer in [0, q), AelcertError for a radius that
    is not an integer or is negative, and RadiusTooLarge for one beyond
    floor((n - k) / 2).

    Gao's decoder finds the codeword whenever it is within
    floor((n - k) / 2) of the word; within that radius it is unique, so
    filtering by distance gives the answer at every smaller radius.
    """
    F = code.field
    n, k = code.n, code.dim
    symbols = list(word)
    if len(symbols) != n:
        raise LengthMismatch(f"word length {len(symbols)} != n {n}")
    try:
        word = [operator.index(y) for y in symbols]
        if any(not 0 <= y < F.q for y in word):
            raise ValueError
    except (TypeError, ValueError):
        raise FieldMismatch(
            f"word has a symbol that is not an integer in [0, {F.q})"
        ) from None
    if radius is None:
        radius = code.unique_decoding_radius
    if isinstance(radius, bool) or not hasattr(radius, "__index__"):
        raise AelcertError(f"radius {radius!r} is not an integer")
    radius = operator.index(radius)
    if radius < 0:
        raise AelcertError(f"radius {radius} is negative")
    if radius > code.unique_decoding_radius:
        raise RadiusTooLarge(
            f"radius {radius} > unique decoding radius {code.unique_decoding_radius}"
        )
    # g1 interpolates the word: g1(a) = y_a at every point a
    g0, basis = code._interpolation_table()
    g1 = [0] * n
    for y, lagrange in zip(word, basis):
        if y:
            g1 = F.sub_scaled_row(g1, F.neg(y), lagrange)
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
    decoded = code.encode(f + [0] * (k - len(f)))
    if sum(1 for a, b in zip(decoded, word) if a != b) > radius:
        return None
    return decoded

"""
Reed-Solomon outer code with a Berlekamp-Welch unique decoder.

At the enumerable block lengths this package targets, the linear-algebra
decoder is exact and corrects every error pattern of weight up to
floor((n - k) / 2).
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .codes import LinearCode, solve
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
        if len(set(points)) != len(points) or len(points) != n:
            raise ValueError("evaluation points must be n distinct field elements")
        generator = [
            [field.pow(a, i) for a in points] for i in range(dim)
        ]
        super().__init__(field, generator)
        self.points = tuple(points)
        self._powers: list[list[int]] | None = None

    def _point_powers(self) -> list[list[int]]:
        """Per point a, [a^0, ..., a^(radius + dim)]: every power a
        Berlekamp-Welch row needs.  Built on the first call."""
        if self._powers is None:
            F, top = self.field, self.unique_decoding_radius + self.dim
            powers = []
            for a in self.points:
                pw = [1]
                for _ in range(top):
                    pw.append(F.mul(pw[-1], a))
                powers.append(pw)
            self._powers = powers
        return self._powers

    @property
    def unique_decoding_radius(self) -> int:
        """Maximum correctable error count floor((n - dim) / 2)."""
        return (self.n - self.dim) // 2

    @property
    def delta_dec(self) -> Fraction:
        return Fraction(self.unique_decoding_radius, self.n)


# -- polynomial helpers over a Field ------------------------------------------


def poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_eval(F: Field, p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_divmod(F: Field, num: list[int], den: list[int]):
    num = list(num)
    den = poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(len(num) - len(den) + 1, 0)
    inv_lead = F.inv(den[-1])
    for i in range(len(num) - len(den), -1, -1):
        c = F.mul(num[i + len(den) - 1], inv_lead)
        if c == 0:
            continue
        quot[i] = c
        for j, d in enumerate(den):
            num[i + j] = F.sub(num[i + j], F.mul(c, d))
    return poly_trim(quot), poly_trim(num)


def rs_unique_decode(code: RSOuterCode, word, radius: int | None = None):
    """Berlekamp-Welch decoding within the given error-count radius.

    Returns the unique codeword within `radius` errors if one exists, else
    None.  Never returns a codeword outside the radius.  Raises
    LengthMismatch for a word of the wrong length, FieldMismatch for a
    symbol that is not an integer in [0, q) and AelcertError for a
    negative radius.
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
    if radius < 0:
        raise AelcertError(f"radius {radius} is negative")
    if radius > code.unique_decoding_radius:
        raise RadiusTooLarge(
            f"radius {radius} > unique decoding radius {code.unique_decoding_radius}"
        )
    t = radius
    if t == 0:
        return tuple(word) if code.contains(word) else None
    # Unknowns: E = e_0..e_{t-1} (monic x^t implied), Q = q_0..q_{t+k-1}.
    # Equation per point: Q(a_i) - y_i E(a_i) = y_i a_i^t.
    powers = code._point_powers()
    rows = [F.scale_row(F.neg(y), pw[:t]) + pw[:t + k] for pw, y in zip(powers, word)]
    rhs = [F.mul(y, pw[t]) for pw, y in zip(powers, word)]
    sol = solve(F, rows, rhs)
    if sol is None:
        return None
    E = sol[:t] + [1]
    Q = poly_trim(sol[t:])
    if not Q:
        f = []
    else:
        f, rem = poly_divmod(F, Q, E)
        if rem:
            return None
    if len(f) > k:
        return None
    decoded = tuple(poly_eval(F, f, a) for a in code.points)
    errors = sum(1 for a, b in zip(decoded, word) if a != b)
    if errors > radius or not code.contains(decoded):
        return None
    return decoded

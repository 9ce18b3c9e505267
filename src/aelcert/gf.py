"""
Exact arithmetic in small finite fields GF(p^m).

Elements are canonical integer representatives in [0, q): the coefficient
vector of the residue polynomial, read low-to-high in base p.  For GF(2^m)
this is the usual bit encoding.  Fields are immutable after construction
and safe to share across threads.

Fields with q <= 2^16 keep exp/log tables.  `_exp` is stored doubled, at
length 2(q - 1), so a product is `_exp[log a + log b]` with no reduction
mod q - 1.  Linear algebra works on whole rows: `scale_row(f, row)` is
[f*y], `sub_scaled_row(x, f, y)` is [x_i - f*y_i] (pass `neg(f)` for the
axpy x + f*y), `combine(coeffs, rows)` is sum_i c_i * row_i, for encoding
and membership, and `dot(a, b)` is sum_i a_i * b_i, for Berlekamp-Massey,
each with its field case picked once per call.  On numpy arrays of
elements, `add_arrays(a, b)` and `mul_arrays(a, b)` work elementwise and
`sum_arrays(a)` sums over the first axis, for enumeration, the group test
of `arld` and the syndromes of `outer`.  Addition is an XOR in
characteristic 2 and integer arithmetic mod p over a prime field (m = 1),
where `combine` reduces once; otherwise it adds base-p digits, and the row
primitives call `add` or `sub` per element.  Rows multiply by table
lookups, or by `mul` per element in the larger fields, which have none.

Polynomials over a field are coefficient lists, low degree first:
`poly_trim` and `poly_divmod` serve the irreducibility test (trial
division over GF(p)).  `_digits` is the one base-p digit map of an
element, and `multiplicative_generator` the one generator search: the
tables are a single walk of its generator's powers.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import cache
from numbers import Integral

import numpy as np

from .errors import DivisionByZero, FieldMismatch, FieldRefused

MAX_FIELD_ORDER = 1 << 20
_TABLE_LIMIT = 1 << 16  # exp/log tables only for q up to this


def _ints(value, name: str, depth: int = 0):
    """`value` with its integers as Python ints: an integer at depth 0, else
    a list of depth - 1 values, read from any iterable but a string.  An int
    or a numpy integer is an integer; a bool, float, string or anything else
    raises ValueError naming `name`, so nothing is truncated."""
    if depth:
        value = _seq(value, name)
        # a list of plain ints, the common case, costs one pass over its types
        if depth > 1 or not set(map(type, value)) <= {int}:
            value = [_ints(x, name, depth - 1) for x in value]
        return value
    if type(value) is int:
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name}: expected an integer, got {value!r}")


def _fraction(value, name: str) -> Fraction:
    """An exact parameter: a Fraction, or an integer as one; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (Fraction, Integral)):
        raise ValueError(f"{name}: expected a Fraction or an integer, got {value!r}")
    return value if isinstance(value, Fraction) else Fraction(int(value))


def _seq(value, name: str) -> list:
    """`value`, any iterable but a string, as a list; else ValueError."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ValueError(f"{name}: expected a sequence, got {value!r}")
    return list(value)


def _checked_order(p, m) -> tuple[int, int]:
    """(p, m) as ints, for m >= 1 (else ValueError); FieldRefused unless
    p^m <= MAX_FIELD_ORDER and p is prime.  The cap comes first, so trial
    division never sees a p above it, and m is bounded before p**m is
    computed: 2^m alone exceeds the cap for larger m."""
    p, m = _ints(p, "p"), _ints(m, "m")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if p > MAX_FIELD_ORDER or m >= MAX_FIELD_ORDER.bit_length() or p**m > MAX_FIELD_ORDER:
        raise FieldRefused(f"GF({p}^{m}) exceeds the cap q <= {MAX_FIELD_ORDER}")
    if p < 2 or _prime_factors(p) != [p]:
        raise FieldRefused(f"{p} is not prime")
    return p, m


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, increasing, by trial division."""
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out + [n] if n > 1 else out


def _digits(a: int, p: int, m: int) -> list[int]:
    """The m base-p digits of a, low to high."""
    out = []
    for _ in range(m):
        out.append(a % p)
        a //= p
    return out


class Field:
    """
    GF(p^m) with a fixed monic irreducible modulus polynomial.  The
    constructor proves it is a field (`_checked_order`, then the modulus
    by exhaustive trial division) and raises otherwise.

    Parameters
    ----------
    p : int
        Prime characteristic.
    m : int
        Extension degree (>= 1).
    modulus : tuple of int
        Modulus coefficients low-to-high, length m + 1, monic.  For m = 1
        the modulus is (0, 1), i.e. x, and arithmetic is plain mod p.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        p, m = _checked_order(p, m)
        self.p, self.m, self.q = p, m, p**m
        self.modulus = tuple(_ints(modulus, "modulus", 1))
        if (len(self.modulus) != m + 1 or self.modulus[-1] != 1
                or not all(0 <= c < p for c in self.modulus)):
            raise ValueError(f"modulus must be monic of degree {m} over GF({p})")
        # degree 1 is irreducible, and GF(p) checks nothing more, so this
        # does not recurse
        if m > 1 and not _poly_is_irreducible(_prime_field(p), self.modulus):
            raise ValueError(f"modulus {self.modulus} is not irreducible over GF({p})")
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    def vector(self, values, name: str) -> list[int]:
        """`values` as a list of ints in [0, q), the one check of a vector over
        this field; anything else (`_ints` refusals too) raises FieldMismatch."""
        try:
            values = _ints(values, name, 1)
        except ValueError as exc:
            raise FieldMismatch(str(exc)) from None
        if values and not (0 <= min(values) and max(values) < self.q):
            bad = next(x for x in values if not 0 <= x < self.q)
            raise FieldMismatch(f"{name}: {bad} is not an element of GF({self.q})")
        return values

    # -- encoding ---------------------------------------------------------

    def to_coeffs(self, a: int) -> list[int]:
        """Integer representative -> coefficient vector (length m, low-to-high)."""
        return _digits(a, self.p, self.m)

    def from_coeffs(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + (c % self.p)
        return a

    # -- arithmetic on representatives -------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return int(self.add_arrays(a, b))

    def add_arrays(self, a, b) -> np.ndarray:
        """`add` elementwise over two broadcast integer arrays of elements:
        XOR, (a + b) % p, or base-p digit sums mod p when m > 1 and p > 2."""
        a, b = np.asarray(a), np.asarray(b)
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        place = self.p ** np.arange(self.m)
        return ((a[..., None] // place + b[..., None] // place) % self.p * place).sum(-1)

    def sum_arrays(self, a) -> np.ndarray:
        """The field sum of an integer array of elements over its first axis:
        XOR, a sum mod p, or base-p digit sums mod p when m > 1 and p > 2."""
        a = np.asarray(a)
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=0)
        if self.m == 1:
            return a.sum(axis=0) % self.p
        place = self.p ** np.arange(self.m)
        return ((a[..., None] // place % self.p).sum(axis=0) % self.p * place).sum(-1)

    def mul_arrays(self, a, b) -> np.ndarray:
        """`mul` elementwise over two broadcast integer arrays of elements:
        two exp/log table gathers, a * b % p over a prime field too large
        for tables, and `mul` per element in the other large fields."""
        a, b = np.asarray(a), np.asarray(b)
        if self._exp is not None:
            return self._exp_array[self._log_array[a] + self._log_array[b]]
        if self.m == 1:
            return a * b % self.p
        return np.frompyfunc(self.mul, 2, 1)(a, b).astype(np.int64)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return -a % self.p
        return self.from_coeffs((-x) % self.p for x in self.to_coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_poly(self, a: int, b: int) -> int:
        """Schoolbook polynomial product reduced mod the modulus."""
        p, m = self.p, self.m
        ca, cb = self.to_coeffs(a), self.to_coeffs(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(ca):
            if x == 0:
                continue
            for j, y in enumerate(cb):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce: x^m = -(modulus[:-1])
        red = [(-c) % p for c in self.modulus[:m]]
        for deg in range(2 * m - 2, m - 1, -1):
            c = prod[deg]
            if c == 0:
                continue
            prod[deg] = 0
            for j, r in enumerate(red):
                prod[deg - m + j] = (prod[deg - m + j] + c * r) % p
        return self.from_coeffs(prod[:m])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_poly(a, b)

    def scale_row(self, f: int, row) -> list[int]:
        """[f * y for y in row]."""
        if f == 0:
            return [0] * len(row)
        exp, log = self._exp, self._log
        if exp is None:
            return [self.mul(f, y) for y in row]
        lf = log[f]
        return [exp[lf + log[y]] if y else 0 for y in row]

    def sub_scaled_row(self, x, f: int, y) -> list[int]:
        """[x_i - f * y_i]; sub_scaled_row(x, neg(f), y) is x + f * y."""
        if f == 0:
            return list(x)
        if self.m == 1:
            p = self.p
            return [(a - f * b) % p for a, b in zip(x, y)]
        exp, log = self._exp, self._log
        if exp is None or self.p != 2:
            return [self.sub(a, self.mul(f, b)) for a, b in zip(x, y)]
        lf = log[f]
        return [a ^ exp[lf + log[b]] if b else a for a, b in zip(x, y)]

    def combine(self, coeffs, rows) -> list[int]:
        """sum_i coeffs[i] * rows[i] over a sequence of rows of one length
        ([] for no rows).  The field case is chosen once per call, and a
        zero coefficient costs nothing.  Over a prime field the sums are
        reduced mod p once, at the end."""
        out = [0] * (len(rows[0]) if rows else 0)
        terms = [(c, row) for c, row in zip(coeffs, rows) if c]
        exp, log = self._exp, self._log
        if self.p == 2 and exp is not None:
            for c, row in terms:
                lc = log[c]
                out = [a ^ exp[lc + log[b]] if b else a for a, b in zip(out, row)]
        elif self.m == 1:
            for c, row in terms:
                out = [a + c * b for a, b in zip(out, row)]
            out = [a % self.p for a in out]
        else:
            for c, row in terms:
                out = [self.add(a, self.mul(c, b)) for a, b in zip(out, row)]
        return out

    def dot(self, a, b) -> int:
        """sum_i a[i] * b[i] over the pairs of two sequences (`zip` stops at
        the shorter), with the field case chosen once per call."""
        exp, log = self._exp, self._log
        if self.p == 2 and exp is not None:
            out = 0
            for x, y in zip(a, b):
                if x and y:
                    out ^= exp[log[x] + log[y]]
            return out
        if self.m == 1:
            return sum(x * y for x, y in zip(a, b)) % self.p
        out = 0
        for x, y in zip(a, b):
            out = self.add(out, self.mul(x, y))
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[self.q - 1 - self._log[a]]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e > 0 else 1
        e %= self.q - 1
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def _build_tables(self) -> None:
        """One walk of the powers of the generator g = sum_k g_k X^k.  A step
        x -> x g sums the g_k x X^k, and x X^(k+1) is x X^k shifted up one
        coefficient, with the coefficient that leaves reduced by the monic
        modulus, X^m = -sum_{j<m} modulus_j X^j: O(m) work per power of X
        in g, where `_mul_poly` takes O(m^2).  In characteristic 2 the
        coefficients are the bits of x, the shift is `<< 1`, and the
        reduction and the sum are XORs."""
        g = multiplicative_generator(self)
        p, m, q = self.p, self.m, self.q
        if p == 2:
            modulus = self.from_coeffs(self.modulus)  # with the bit of X^m

            def step(x: int) -> int:
                y, h = 0, g
                while h:
                    if h & 1:
                        y ^= x
                    x <<= 1
                    if x >= q:
                        x ^= modulus
                    h >>= 1
                return y
        else:
            g_coeffs = poly_trim(self.to_coeffs(g))
            neg = [-c % p for c in self.modulus[:m]]

            def step(x: int) -> int:
                c, y = self.to_coeffs(x), [0] * m
                for k, gk in enumerate(g_coeffs):
                    if k:
                        c = [(a + c[-1] * r) % p for a, r in zip([0] + c[:-1], neg)]
                    y = [(a + gk * b) % p for a, b in zip(y, c)]
                return self.from_coeffs(y)

        exp = [1] * (q - 1)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = step(x)
        self._exp, self._log = exp + exp, log
        # numpy copies for `mul_arrays`: log 0 indexes past every sum of two
        # logs of nonzero elements, into zeros, so a 0 factor needs no mask
        self._log_array = np.array(log)
        self._log_array[0] = 2 * (q - 1)
        powers = np.array(exp)
        self._exp_array = np.concatenate([powers, powers, np.zeros(2 * q - 1, np.int64)])

    # -- misc ---------------------------------------------------------------

    def record(self) -> dict:
        """Serializable description, embedded in code files."""
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.m, self.modulus) == (
            other.p, other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, m={self.m}, q={self.q})"


# -- polynomials over a Field --------------------------------------------------
# Polynomials are coefficient lists, low degree first; zero is [].


def poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_divmod(F: Field, num: list[int], den: list[int]):
    """(quotient, remainder) of num / den: one `sub_scaled_row` per
    quotient coefficient."""
    num = list(num)
    den = poly_trim(list(den))
    if not den:
        raise DivisionByZero("polynomial division by zero")
    width = len(den)
    quot = [0] * max(len(num) - width + 1, 0)
    inv_lead = F.inv(den[-1])
    for i in range(len(num) - width, -1, -1):
        c = F.mul(num[i + width - 1], inv_lead)
        if c:
            quot[i] = c
            num[i:i + width] = F.sub_scaled_row(num[i:i + width], c, den)
    return poly_trim(quot), poly_trim(num)


def _poly_is_irreducible(prime: Field, coeffs: tuple[int, ...]) -> bool:
    """Trial division of a monic polynomial over `prime` = GF(p) by every
    monic polynomial of degree 1..deg//2, by `poly_divmod`; feasible for the
    field sizes this package supports."""
    p, deg = prime.p, len(coeffs) - 1
    return all(poly_divmod(prime, coeffs, _digits(enc, p, ddeg) + [1])[1]
               for ddeg in range(1, deg // 2 + 1) for enc in range(p**ddeg))


@cache
def _prime_field(p: int) -> Field:
    """GF(p) for trial division, built once per p and shared: a `Field` is
    not changed after its constructor returns."""
    return Field(p, 1, (0, 1))


def make_field(p: int, m: int = 1) -> Field:
    """
    Build GF(p^m) with the lexicographically smallest monic irreducible modulus.

    The scan is over the integer encoding of the lower coefficients
    (low-to-high, base p), so the result is deterministic and reproducible.
    Every candidate's trial division, and the check in `Field`, runs over the
    one shared GF(p) of `_prime_field`.  `Field` checks p and m again; the
    scan needs them checked first.
    """
    p, m = _checked_order(p, m)
    if m == 1:
        return Field(p, 1, (0, 1))
    prime = _prime_field(p)
    for enc in range(p**m):
        coeffs = tuple(_digits(enc, p, m)) + (1,)
        if _poly_is_irreducible(prime, coeffs):
            return Field(p, m, coeffs)
    raise AssertionError("unreachable: irreducible polynomials exist for every degree")


def multiplicative_generator(field: Field) -> int:
    """Smallest element of multiplicative order q - 1: g has that order iff
    g^((q - 1)/r) != 1 for every prime r dividing q - 1.  The table build
    calls it before the tables exist, so it needs none."""
    q = field.q
    factors = _prime_factors(q - 1)
    for g in range(1, q):
        if all(field.pow(g, (q - 1) // r) != 1 for r in factors):
            return g
    raise AssertionError("unreachable: the multiplicative group of a field is cyclic")

"""
Generic linear codes via generator matrices.

Distances are exact `fractions.Fraction` values (integer counts over the
block length); no floating point enters any code-distance path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import FieldMismatch, Mismatch, TooLarge
from .gf import Field, _seq

DEFAULT_ENUMERATION_CAP = 1 << 24

# Erasure marker used inside ErasedWord.symbols
ERASED = None


def rref(field: Field, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over `field`.

    Returns (reduced nonzero rows, pivot column indices).
    """
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
        row = mat[r] = field.scale_row(field.inv(mat[r][c]), mat[r])
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                mat[i] = field.sub_scaled_row(mat[i], mat[i][c], row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


class LinearCode:
    """
    A linear code given by a full-row-rank generator matrix.

    Parameters
    ----------
    field : Field
    generator : sequence of rows, each a vector over `field` (read by
        `Field.vector`, so an entry that is not an element raises FieldMismatch)
    """

    def __init__(self, field: Field, generator):
        self.field = field
        self.generator = tuple(tuple(field.vector(row, "generator"))
                               for row in _seq(generator, "generator"))
        if not self.generator:
            raise Mismatch("generator must have at least one row")
        self.dim = len(self.generator)
        self.n = len(self.generator[0])
        if any(len(row) != self.n for row in self.generator):
            raise Mismatch("ragged generator matrix")
        if not self._full_rank():
            raise Mismatch("generator matrix is not full row rank")
        self._codewords: list[tuple[int, ...]] | None = None

    def _full_rank(self) -> bool:
        return len(self._echelon[0]) == self.dim

    @cached_property
    def _echelon(self) -> tuple[list[list[int]], list[int]]:
        # (reduced rows, pivot columns): contains() re-encodes through them
        return rref(self.field, self.generator)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.dim, self.n)

    @property
    def size(self) -> int:
        return self.field.q**self.dim

    def encode(self, msg) -> tuple[int, ...]:
        msg = self.field.vector(msg, "message")
        if len(msg) != self.dim:
            raise Mismatch(f"message length {len(msg)} != dim {self.dim}")
        return tuple(self.field.combine(msg, self.generator))

    def enumerate_codewords(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[tuple[int, ...]]:
        """All q^dim codewords in `itertools.product` message order, built
        by doubling: the words of rows < i, each plus every multiple of row i."""
        if self.size > cap:
            raise TooLarge(f"{self.size} codewords exceed cap {cap}")
        if self._codewords is None:
            F, words = self.field, np.zeros((1, self.n), dtype=np.int64)
            for row in self.generator:
                multiples = np.array([F.scale_row(c, row) for c in range(F.q)], dtype=np.int64)
                words = F.add_arrays(words[:, None], multiples[None, :]).reshape(-1, self.n)
            self._codewords = list(map(tuple, words.tolist()))
        return self._codewords

    def contains(self, word) -> bool:
        """Exact membership test; False for a word `Field.vector` refuses.

        The only codeword that agrees with `word` on the pivot columns is
        sum_i word[pivot_i] * reduced_row_i, so `word` is a codeword iff it
        equals that re-encoding.  No elimination runs per call.
        """
        word = tuple(word)
        if len(word) != self.n:
            raise Mismatch(f"word length {len(word)} != n {self.n}")
        try:
            word = tuple(self.field.vector(word, "word"))
        except FieldMismatch:
            return False
        reduced, pivots = self._echelon
        return tuple(self.field.combine([word[p] for p in pivots], reduced)) == word

    def min_distance(self, cap: int = DEFAULT_ENUMERATION_CAP) -> Fraction:
        """Minimum fractional distance; by linearity the minimum nonzero weight."""
        best = self.n
        for cw in self.enumerate_codewords(cap):
            w = sum(1 for x in cw if x != 0)
            if 0 < w < best:
                best = w
        return Fraction(best, self.n)

    def __repr__(self) -> str:
        return f"LinearCode(q={self.field.q}, n={self.n}, dim={self.dim})"


@dataclass(frozen=True)
class ErasedWord:
    """A received word over the code alphabet extended with the erasure mark.

    `symbols` entries are either alphabet symbols or ERASED (None).
    """

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def erasure_count(self) -> int:
        return sum(1 for s in self.symbols if s is ERASED)

    @property
    def s(self) -> Fraction:
        """Erasure fraction."""
        return Fraction(self.erasure_count, self.n)


def dist_with_erasures(erased: ErasedWord, word) -> Fraction:
    """Disagreements on non-erased coordinates, over the full length n."""
    word = tuple(word)
    if len(word) != erased.n:
        raise Mismatch(f"{len(word)} != {erased.n}")
    hits = sum(1 for g, h in zip(erased.symbols, word) if g is not ERASED and g != h)
    return Fraction(hits, erased.n)


def hamming_distance(a, b) -> Fraction:
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise Mismatch(f"{len(a)} != {len(b)}")
    return Fraction(sum(1 for x, y in zip(a, b) if x != y), len(a))


def pairwise_min_distance(codewords) -> Fraction:
    """Minimum pairwise fractional distance by direct enumeration.

    Independent of the weight-based LinearCode.min_distance path.
    """
    words = list(codewords)
    best = None
    for a, b in combinations(words, 2):
        d = hamming_distance(a, b)
        if best is None or d < best:
            best = d
    if best is None:
        raise Mismatch("need at least two codewords")
    return best

"""
Generic linear codes via generator matrices.

Distances are exact `fractions.Fraction` values (integer counts over the
block length); no floating point enters any code-distance path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
        self._words: np.ndarray | None = None
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

    def word_array(self, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """All q^dim codewords as one read-only (q^dim, n) int64 array, in
        `itertools.product` message order, built by doubling: the words of
        rows < i, each plus every multiple of row i.  The cap is checked on
        every call, cached or not."""
        if self.size > cap:
            raise TooLarge(f"{self.size} codewords exceed cap {cap}")
        if self._words is None:
            F, words = self.field, np.zeros((1, self.n), dtype=np.int64)
            for row in self.generator:
                multiples = np.array([F.scale_row(c, row) for c in range(F.q)], dtype=np.int64)
                words = F.add_arrays(words[:, None], multiples[None, :]).reshape(-1, self.n)
            words.flags.writeable = False
            self._words = words
        return self._words

    def enumerate_codewords(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[tuple[int, ...]]:
        """`word_array` as a list of tuples, built on first use."""
        words = self.word_array(cap)
        if self._codewords is None:
            self._codewords = word_tuples(words)
        return self._codewords

    def contains(self, word) -> bool:
        """Exact membership test; False for a word `Field.vector` refuses,
        Mismatch for a word of the wrong length, else `_is_codeword`."""
        word = tuple(word)
        if len(word) != self.n:
            raise Mismatch(f"word length {len(word)} != n {self.n}")
        try:
            word = self.field.vector(word, "word")
        except FieldMismatch:
            return False
        return self._is_codeword(word)

    def _is_codeword(self, word: list[int]) -> bool:
        """The only codeword that agrees with `word` on the pivot columns is
        sum_i word[pivot_i] * reduced_row_i, so `word` is a codeword iff it
        equals that re-encoding.  No elimination runs per call."""
        reduced, pivots = self._echelon
        return self.field.combine([word[p] for p in pivots], reduced) == word

    def min_distance(self, cap: int = DEFAULT_ENUMERATION_CAP) -> Fraction:
        """Minimum fractional distance; by linearity the minimum nonzero weight."""
        weights = np.count_nonzero(self.word_array(cap), axis=1)
        return Fraction(int(weights[weights > 0].min(initial=self.n)), self.n)

    def __repr__(self) -> str:
        return f"LinearCode(q={self.field.q}, n={self.n}, dim={self.dim})"


def word_tuples(words: np.ndarray) -> list[tuple]:
    """The rows of an (N, n) integer array as tuples of ints, or of an
    (N, n, w) array as tuples of w-tuples: the word form callers see."""
    rows = words.tolist()
    if words.ndim == 2:
        return list(map(tuple, rows))
    return [tuple(map(tuple, w)) for w in rows]


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


def hamming_distance(a, b) -> Fraction:
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise Mismatch(f"{len(a)} != {len(b)}")
    return Fraction(sum(1 for x, y in zip(a, b) if x != y), len(a))

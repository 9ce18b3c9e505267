"""
Decode-from-distributions via threshold rounding, and the composition
giving AEL unique decoding from a corrupted right-folded word.

An ensemble is exact integers throughout: one common `scale` and an (n, M)
array of `counts`, row l's weights times `scale`, with prefix sums `ends`.
A threshold is an integer t in [0, scale), standing for theta = t / scale;
rounding row l at t picks the first symbol whose end exceeds t.  Rounding
only changes at an end, so the finite threshold set {0} plus every end
below `scale` (at most M * n values) provably covers every theta in [0, 1).
The decoder tries the majority threshold scale // 2 first, which gives each
row its symbol of weight above 1/2 when it has one, and walks the sorted
threshold set only when that rounding certifies no codeword.

The local-view distributions compare the word's (n, d) left-view array
with the code's (M, d) `codebook` array in one broadcast.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from .ael import AELCode
from .codes import hamming_distance, word_tuples
from .errors import Mismatch
from .gf import _ints
from .outer import RSOuterCode, rs_unique_decode


def _count_dtype(scale: int):
    """int64 when it holds every count and prefix sum (all at most `scale`),
    else Python ints in an object array, exact at any scale."""
    return np.int64 if scale < 1 << 63 else object


class InnerDistributionEnsemble:
    """Per left vertex, a probability vector over the M inner codewords,
    indexed by outer symbol: entry sigma is the weight of phi(sigma), the
    sigma-th codeword in the codebook order.

    Built from rows of exact weights (Fractions, ints or numpy ints; a bool,
    a float or anything else raises ValueError), stored
    as `scale`, the lcm of their denominators, and the (n, M) integer array
    `counts` of weights times `scale`; `ends` is its row-wise cumulative sum,
    so symbol sigma of row l owns [ends[l, sigma-1], ends[l, sigma]) / scale.
    """

    def __init__(self, weights):
        rows = [[w if isinstance(w, Fraction) else Fraction(_ints(w, "non-Fraction weight"))
                 for w in row] for row in weights]
        scale = math.lcm(*(w.denominator for row in rows for w in row))
        counts = [[w.numerator * (scale // w.denominator) for w in row] for row in rows]
        for row in counts:
            if any(c < 0 for c in row) or sum(row) != scale:
                raise ValueError("each distribution must be nonnegative and sum to 1")
        if len({len(row) for row in counts}) != 1:
            raise ValueError("weights must be a nonempty table of equal-length rows")
        self._store(scale, np.array(counts, dtype=_count_dtype(scale)))

    @classmethod
    def _from_counts(cls, scale: int, counts: np.ndarray) -> InnerDistributionEnsemble:
        """An ensemble from integer counts already known to be nonnegative
        with every row summing to `scale`."""
        ensemble = cls.__new__(cls)
        ensemble._store(scale, counts)
        return ensemble

    def _store(self, scale: int, counts: np.ndarray) -> None:
        self.scale = scale
        self.counts = counts
        self.ends = counts.cumsum(axis=1)

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @property
    def m(self) -> int:
        return self.counts.shape[1]

    def _round(self, t: int) -> list[int]:
        """Outer symbol per left vertex at integer threshold t: the first
        symbol whose end exceeds t, or the last symbol when none does."""
        return np.minimum((self.ends <= t).sum(axis=1), self.m - 1).tolist()

    def _thresholds(self) -> list[int]:
        """0 and every end below `scale`, ascending and distinct."""
        ends = self.ends
        return sorted({0, *ends[ends < self.scale].tolist()})

    def _rounding_order(self):
        """One threshold per distinct rounding: the majority threshold
        scale // 2 first, then the rest of `_thresholds()` ascending, which
        is built only when a second threshold is asked for.  The largest
        threshold at most scale // 2 rounds as scale // 2 does (no end lies
        above it and at or below scale // 2), so it is skipped."""
        majority = self.scale // 2
        yield majority
        thresholds = self._thresholds()
        same = bisect_right(thresholds, majority) - 1
        yield from thresholds[:same]
        yield from thresholds[same + 1:]

    def _disagreement(self, symbols) -> int:
        """n * scale * ED(symbols), as a Python int."""
        agree = sum(self.counts[np.arange(self.n), symbols].tolist())
        return self.n * self.scale - agree


def decode_from_distributions(code: AELCode, ensemble: InnerDistributionEnsemble):
    """Threshold rounding + outer unique decoding.

    Returns the AEL codeword of the one certified outer codeword h: one
    that the outer unique decoder (`rs_unique_decode`) recovers from the
    rounding at some integer threshold and whose expected ensemble
    disagreement ED(h) is at most delta_dec = floor((n - k) / 2) / n; None
    if no threshold yields one.  The test is n * scale - agree <=
    floor((n - k) / 2) * scale in Python ints, agree being h's total count.
    Mismatch, before any rounding, unless the outer code is an
    `RSOuterCode`.  The outer decoder returns a word only when all its
    syndromes are zero, an outer codeword, so it is folded with no
    membership test.

    No other codeword can meet that guarantee, so stopping at the first
    certified one, in any order, is the same as scanning every threshold.
    RS[n, k] on distinct points is MDS: distinct outer codewords h, h'
    differ in at least n - k + 1 positions l, and at each of them
    w_l(h_l) + w_l(h'_l) <= 1.  Hence n * (ED(h) + ED(h')) >= n - k + 1
    > 2 * floor((n - k) / 2) = 2 * n * delta_dec, so at most one of them is
    within delta_dec.

    The majority threshold t = scale // 2 is tried first: a symbol of weight
    above 1/2 owns [a, b) with b - a > scale / 2, so a < scale / 2, hence
    a <= scale // 2 < b, and one rounding gives every row its strict-majority
    symbol.  Only if that certifies nothing are the other distinct roundings
    tried, each once, in ascending threshold order (`_rounding_order`).
    """
    outer = _rs_outer(code)
    if ensemble.n != code.n or ensemble.m != code.inner.size:
        raise ValueError("ensemble shape does not match the AEL code")
    allowed = outer.unique_decoding_radius * ensemble.scale
    for t in ensemble._rounding_order():
        h_star = rs_unique_decode(outer, ensemble._round(t))
        if h_star is not None and ensemble._disagreement(h_star) <= allowed:
            return word_tuples(code._fold_phi([h_star]))[0]
    return None


def _rs_outer(code: AELCode) -> RSOuterCode:
    """The code's outer code; Mismatch unless it is Reed-Solomon, the one
    outer code this module decodes."""
    if not isinstance(code.outer, RSOuterCode):
        raise Mismatch(f"unique decoding needs a Reed-Solomon outer code, got {code.outer!r}")
    return code.outer


def local_views_to_distributions(code: AELCode, word) -> InnerDistributionEnsemble:
    """Uniform distribution over the nearest inner codewords per left view:
    with `ties` nearest codewords in row l and scale the lcm of the ties,
    each of them gets count scale // ties."""
    codebook = code.codebook  # (M, d)
    views = code._view_array(word)  # (n, d)
    dists = (views[:, None, :] != codebook[None, :, :]).sum(axis=2)  # (n, M)
    nearest = dists == dists.min(axis=1, keepdims=True)
    ties = nearest.sum(axis=1).tolist()
    scale = math.lcm(*ties)
    share = np.array([scale // t for t in ties], dtype=_count_dtype(scale))
    return InnerDistributionEnsemble._from_counts(scale, nearest * share[:, None])


def ael_unique_decode(code: AELCode, word):
    """Nearest-inner-codeword distributions, then threshold-rounding decode.

    Returns (codeword, Delta_R(word, codeword)) or None.  Raises
    Mismatch before any decoding when the outer code is not Reed-Solomon or
    a symbol is erased, and refuses what `AELCode.read_word` refuses; the
    entries it reads are the ones decoded.
    """
    _rs_outer(code)
    rows, erased = code.read_word(word)
    if np.count_nonzero(erased):
        raise Mismatch(f"symbol {erased.argmax()} is erased; unique decoding needs an unerased word")
    h = decode_from_distributions(code, local_views_to_distributions(code, rows))
    if h is None:
        return None
    return h, hamming_distance(h, map(tuple, rows.tolist()))

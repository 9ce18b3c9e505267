"""
Decode-from-distributions via threshold rounding, and the composition
giving AEL unique decoding from a corrupted right-folded word.

An ensemble is exact integers throughout: one common `scale` and an (n, M)
array of `counts`, row l's weights times `scale`, with prefix sums `ends`.
A threshold is an integer t in [0, scale), standing for theta = t / scale;
rounding row l at t picks the first symbol whose end exceeds t.  Rounding
only changes at an end, so the finite threshold set {0} plus every end
below `scale` (at most M * n values) provably covers every theta in [0, 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .ael import AELCode
from .codes import ERASED, hamming_distance
from .errors import Mismatch
from .outer import RSOuterCode, rs_unique_decode


def _count_dtype(scale: int):
    """int64 when it holds every count and prefix sum (all at most `scale`),
    else Python ints in an object array, exact at any scale."""
    return np.int64 if scale < 1 << 63 else object


class InnerDistributionEnsemble:
    """Per left vertex, a probability vector over the M inner codewords,
    indexed by outer symbol: entry sigma is the weight of phi(sigma), the
    sigma-th codeword in the codebook order.

    Built from rows of exact weights (Fractions, ints or numpy ints), stored
    as `scale`, the lcm of their denominators, and the (n, M) integer array
    `counts` of weights times `scale`; `ends` is its row-wise cumulative sum,
    so symbol sigma of row l owns [ends[l, sigma-1], ends[l, sigma]) / scale.
    """

    def __init__(self, weights):
        rows = [[w if isinstance(w, Fraction) else Fraction(w) for w in row] for row in weights]
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

    def _disagreement(self, symbols) -> int:
        """n * scale * ED(symbols), as a Python int."""
        agree = sum(self.counts[np.arange(self.n), symbols].tolist())
        return self.n * self.scale - agree


def decode_from_distributions(code: AELCode, ensemble: InnerDistributionEnsemble):
    """Threshold rounding + outer unique decoding.

    Returns the AEL codeword of the first outer codeword h, over the
    integer thresholds in ascending order, that the outer unique decoder
    (`rs_unique_decode`) recovers and whose expected ensemble disagreement
    ED(h) is at most delta_dec = floor((n - k) / 2) / n; None if no
    threshold yields one.  The test is n * scale - agree <=
    floor((n - k) / 2) * scale in Python ints, agree being h's total count.

    No other codeword can meet that guarantee, so stopping at the first is
    the same as scanning every threshold.  RS[n, k] on distinct points is
    MDS: distinct outer codewords h, h' differ in at least n - k + 1
    positions l, and at each of them w_l(h_l) + w_l(h'_l) <= 1.  Hence
    n * (ED(h) + ED(h')) >= n - k + 1 > 2 * floor((n - k) / 2)
    = 2 * n * delta_dec, so at most one of them is within delta_dec.
    """
    outer = code.outer
    if not isinstance(outer, RSOuterCode):
        raise TypeError("decode_from_distributions needs an RSOuterCode outer code")
    if ensemble.n != code.n or ensemble.m != code.inner.size:
        raise ValueError("ensemble shape does not match the AEL code")
    allowed = outer.unique_decoding_radius * ensemble.scale
    for t in ensemble._thresholds():
        h_star = rs_unique_decode(outer, ensemble._round(t))
        if h_star is not None and ensemble._disagreement(h_star) <= allowed:
            return code.encode(h_star)
    return None


def local_views_to_distributions(code: AELCode, word) -> InnerDistributionEnsemble:
    """Uniform distribution over the nearest inner codewords per left view:
    with `ties` nearest codewords in row l and scale the lcm of the ties,
    each of them gets count scale // ties."""
    codebook = np.array(code.phi)  # (M, d)
    views = np.array(code.left_views(word))  # (n, d)
    dists = (views[:, None, :] != codebook[None, :, :]).sum(axis=2)  # (n, M)
    nearest = dists == dists.min(axis=1, keepdims=True)
    ties = nearest.sum(axis=1).tolist()
    scale = math.lcm(*ties)
    share = np.array([scale // t for t in ties], dtype=_count_dtype(scale))
    return InnerDistributionEnsemble._from_counts(scale, nearest * share[:, None])


def ael_unique_decode(code: AELCode, word):
    """Nearest-inner-codeword distributions, then threshold-rounding decode.

    Returns (codeword, Delta_R(word, codeword)) or None.  Raises
    Mismatch before any decoding when the word's shape does not match
    the graph or a symbol is erased.
    """
    code._check(word)
    erased = [r for r, sym in enumerate(word) if sym is ERASED]
    if erased:
        raise Mismatch(f"symbol {erased[0]} is erased; unique decoding needs an unerased word")
    ensemble = local_views_to_distributions(code, word)
    h = decode_from_distributions(code, ensemble)
    if h is None:
        return None
    return h, hamming_distance(word, h)  # the word's shape is checked above

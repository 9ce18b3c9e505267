"""
Decode-from-distributions via threshold rounding, and the composition
giving AEL unique decoding from a corrupted right-folded word.

Weights are exact rationals, held as integer prefix sums over one common
scale, so the finite threshold set (one per interval endpoint, at most
M * n values) provably covers every theta in [0, 1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .ael import AELCode
from .codes import ERASED
from .errors import AelcertError
from .outer import RSOuterCode, rs_unique_decode


@dataclass
class InnerDistributionEnsemble:
    """Per left vertex, a probability vector over the M inner codewords
    (indexed in the fixed codebook order).  Weights are exact Fractions;
    `counts` are the weights times `scale`, the lcm of their denominators,
    and codebook index i of row l owns [ends[l][i-1], ends[l][i]) / scale."""

    weights: list[list[Fraction]]

    def __post_init__(self):
        self.weights = [
            [w if isinstance(w, Fraction) else Fraction(w) for w in row]
            for row in self.weights
        ]
        self.scale = math.lcm(*(w.denominator for row in self.weights for w in row))
        self.counts = [
            [w.numerator * (self.scale // w.denominator) for w in row]
            for row in self.weights
        ]
        for row in self.counts:
            if any(c < 0 for c in row) or sum(row) != self.scale:
                raise ValueError("each distribution must be nonnegative and sum to 1")
        self.ends = [list(accumulate(row)) for row in self.counts]

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.weights[0])

    def round_at(self, theta: Fraction) -> list[int]:
        """Codebook index per left vertex: the interval containing theta, or
        the last index when no interval does (theta < 0 or theta >= 1)."""
        t = math.floor(Fraction(theta) * self.scale)
        if t < 0:
            t = self.scale
        return [min(bisect_right(ends, t), len(ends) - 1) for ends in self.ends]

    def expected_disagreement(self, inner_indices) -> Fraction:
        """E_l E_{f~D_l}[1{f != given inner codeword index at l}]."""
        agree = sum(self.counts[l][idx] for l, idx in enumerate(inner_indices))
        return Fraction(self.n * self.scale - agree, self.n * self.scale)


def threshold_endpoints(ensemble: InnerDistributionEnsemble) -> list[Fraction]:
    """All interval endpoints in [0, 1); rounding is constant between them."""
    scale = ensemble.scale
    points = {0, *(e for ends in ensemble.ends for e in ends if e < scale)}
    return [Fraction(p, scale) for p in sorted(points)]


def decode_from_distributions(code: AELCode, ensemble: InnerDistributionEnsemble):
    """Threshold rounding + outer unique decoding.

    Returns the AEL codeword of the first outer codeword h, over the
    endpoint thresholds in ascending order, that the outer unique decoder
    (`rs_unique_decode`) recovers and whose expected ensemble disagreement ED(h) is at most
    delta_dec = floor((n - k) / 2) / n; None if no threshold yields one.

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
    delta_dec = outer.delta_dec
    for theta in threshold_endpoints(ensemble):
        picks = ensemble.round_at(theta)
        f_star = [code.inner_index_to_outer_symbol(i) for i in picks]
        h_star = rs_unique_decode(outer, f_star)
        if h_star is None:
            continue
        inner_indices = [code.outer_symbol_to_inner_index(sigma) for sigma in h_star]
        if ensemble.expected_disagreement(inner_indices) <= delta_dec:
            return code.encode(h_star)
    return None


def local_views_to_distributions(code: AELCode, word) -> InnerDistributionEnsemble:
    """Uniform distribution over the nearest inner codewords per left view."""
    codebook = np.array(code.inner.enumerate_codewords())  # (M, d)
    views = np.array(code.left_views(word))  # (n, d)
    dists = (views[:, None, :] != codebook[None, :, :]).sum(axis=2)  # (n, M)
    nearest = (dists == dists.min(axis=1, keepdims=True)).tolist()
    zero = Fraction(0)
    weights = []
    for row in nearest:
        share = Fraction(1, row.count(True))
        weights.append([share if hit else zero for hit in row])
    return InnerDistributionEnsemble(weights)


def ael_unique_decode(code: AELCode, word):
    """Nearest-inner-codeword distributions, then threshold-rounding decode.

    Returns (codeword, Delta_R(word, codeword)) or None.  Raises
    GraphMismatch before any decoding when the word's shape does not match
    the graph, and AelcertError when a symbol is erased.
    """
    code._check(word)
    erased = [r for r, sym in enumerate(word) if sym is ERASED]
    if erased:
        raise AelcertError(
            f"symbol {erased[0]} is erased; unique decoding needs an unerased word"
        )
    ensemble = local_views_to_distributions(code, word)
    h = decode_from_distributions(code, ensemble)
    if h is None:
        return None
    return h, code.delta_R(tuple(word), h)

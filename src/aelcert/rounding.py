"""
Decode-from-distributions via threshold rounding, and the composition
giving AEL unique decoding from a corrupted right-folded word.

Weights are exact rationals, so the finite threshold set (one per interval
endpoint, at most M * n values) provably covers every theta in [0, 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .ael import AELCode
from .codes import hamming_distance
from .outer import RSOuterCode, rs_unique_decode


@dataclass
class InnerDistributionEnsemble:
    """Per left vertex, a probability vector over the M inner codewords
    (indexed in the fixed codebook order).  Weights are exact Fractions."""

    weights: list[list[Fraction]]

    def __post_init__(self):
        self.weights = [[Fraction(w) for w in row] for row in self.weights]
        for row in self.weights:
            if any(w < 0 for w in row) or sum(row) != 1:
                raise ValueError("each distribution must be nonnegative and sum to 1")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.weights[0])

    def round_at(self, theta: Fraction) -> list[int]:
        """Codebook index per left vertex: the interval containing theta."""
        picks = []
        for l in range(self.n):
            acc = Fraction(0)
            pick = self.m - 1
            for i, w in enumerate(self.weights[l]):
                if acc <= theta < acc + w:
                    pick = i
                    break
                acc += w
            picks.append(pick)
        return picks

    def expected_disagreement(self, inner_indices) -> Fraction:
        """E_l E_{f~D_l}[1{f != given inner codeword index at l}]."""
        total = Fraction(0)
        for l, idx in enumerate(inner_indices):
            total += 1 - self.weights[l][idx]
        return total / self.n


def threshold_endpoints(ensemble: InnerDistributionEnsemble) -> list[Fraction]:
    """All interval endpoints in [0, 1); rounding is constant between them."""
    points = {Fraction(0)}
    for l in range(ensemble.n):
        acc = Fraction(0)
        for w in ensemble.weights[l]:
            acc += w
            if acc < 1:
                points.add(acc)
    return sorted(points)


def decode_from_distributions(code: AELCode, ensemble: InnerDistributionEnsemble):
    """Threshold rounding + outer unique decoding.

    Returns the AEL codeword h with expected ensemble disagreement at most
    the outer unique-decoding radius, or None.  Scans every endpoint
    threshold in ascending order; warns if distinct codewords satisfy the
    guarantee (impossible below half the outer distance, checked anyway).
    """
    outer = code.outer
    if not isinstance(outer, RSOuterCode):
        raise TypeError("decode_from_distributions needs an RSOuterCode outer code")
    if ensemble.n != code.n or ensemble.m != code.inner.size:
        raise ValueError("ensemble shape does not match the AEL code")
    radius = outer.unique_decoding_radius
    delta_dec = outer.delta_dec
    found: list[tuple] = []
    for theta in threshold_endpoints(ensemble):
        picks = ensemble.round_at(theta)
        f_star = [code.inner_index_to_outer_symbol(i) for i in picks]
        h_star = rs_unique_decode(outer, f_star, radius)
        if h_star is None:
            continue
        inner_indices = [code.outer_symbol_to_inner_index(sigma) for sigma in h_star]
        if ensemble.expected_disagreement(inner_indices) <= delta_dec:
            h = code.encode(h_star)
            if h not in found:
                found.append(h)
    if len(found) > 1:
        warnings.warn("multiple codewords satisfy the decoding guarantee")
    return found[0] if found else None


def local_views_to_distributions(
    code: AELCode, word
) -> InnerDistributionEnsemble:
    """Uniform distribution over the nearest inner codewords per left view."""
    inner_words = code.inner.enumerate_codewords()
    views = code.left_views(word)
    weights = []
    for v in views:
        dists = [hamming_distance(v, c) for c in inner_words]
        best = min(dists)
        nearest = [i for i, dst in enumerate(dists) if dst == best]
        share = Fraction(1, len(nearest))
        weights.append(
            [share if i in set(nearest) else Fraction(0) for i in range(len(inner_words))]
        )
    return InnerDistributionEnsemble(weights)


def ael_unique_decode(code: AELCode, word):
    """Nearest-inner-codeword distributions, then threshold-rounding decode.

    Returns (codeword, Delta_R(word, codeword)) or None.
    """
    ensemble = local_views_to_distributions(code, word)
    h = decode_from_distributions(code, ensemble)
    if h is None:
        return None
    return h, code.delta_R(tuple(word), h)

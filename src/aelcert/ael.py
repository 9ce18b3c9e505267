"""
The AEL distance-amplification construction: route inner-code symbols along
the edges of a d-regular bipartite graph and refold them on the right
vertices.

Codewords are represented right-folded: a tuple of n symbols, each a
d-tuple over the inner alphabet.  Fold/unfold move between this
representation and edge labellings (indexed by edge id) through the graph's
one `route` array: folding gathers through it, unfolding scatters.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arld import intern_symbols, pair_disagreements
from .codes import (DEFAULT_ENUMERATION_CAP, ERASED, ErasedWord, LinearCode,
                    dist_with_erasures, hamming_distance)
from .errors import (
    AmplificationViolation,
    GraphMismatch,
    LengthMismatch,
    NotAnOuterCodeword,
)
from .graphs import BipartiteGraph, verify_eml_sets


class AELCode:
    """
    Composite (G, C_out, C_in, phi) code.

    phi maps outer-alphabet symbols (integer representatives of the outer
    field) to inner codewords.  The default is message-lexicographic: symbol
    sigma maps to the sigma-th inner codeword in lexicographic message order.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        inner: LinearCode,
        outer: LinearCode,
        phi: list | None = None,
    ):
        if inner.n != graph.d:
            raise GraphMismatch(
                f"inner block length {inner.n} != graph degree {graph.d}"
            )
        if outer.n != graph.n:
            raise GraphMismatch(f"outer length {outer.n} != graph size {graph.n}")
        if outer.field.q != inner.size:
            raise GraphMismatch(
                f"|Sigma_out| = {outer.field.q} != |C_in| = {inner.size}"
            )
        self.graph = graph
        self.inner = inner
        self.outer = outer
        inner_words = inner.enumerate_codewords()
        if phi is None:
            phi = list(inner_words)
        self.phi = [tuple(w) for w in phi]
        if sorted(self.phi) != sorted(inner_words) or len(set(self.phi)) != len(
            self.phi
        ):
            raise ValueError("phi is not a bijection onto the inner codebook")
        self._phi_inv = {w: sigma for sigma, w in enumerate(self.phi)}
        inner_index = {w: i for i, w in enumerate(inner_words)}
        self._symbol_of_index = [self._phi_inv[w] for w in inner_words]
        self._index_of_symbol = [inner_index[w] for w in self.phi]
        self._codewords: list[tuple] | None = None

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d(self) -> int:
        return self.graph.d

    # computed on first access, so an EnumerationTooLarge surfaces there
    @cached_property
    def delta_in(self) -> Fraction:
        return self.inner.min_distance()

    @cached_property
    def delta_out(self) -> Fraction:
        return self.outer.min_distance()

    # -- encoding and views --------------------------------------------------

    def encode(self, outer_codeword) -> tuple:
        """Right-folded AEL codeword from an outer codeword."""
        outer_codeword = tuple(outer_codeword)
        if not self.outer.contains(outer_codeword):
            raise NotAnOuterCodeword(f"{outer_codeword} is not in C_out")
        return self.fold([x for sigma in outer_codeword for x in self.phi[sigma]])

    def encode_message(self, msg) -> tuple:
        return self.encode(self.outer.encode(msg))

    def fold(self, edge_vals) -> tuple:
        """Edge labelling -> right-folded word."""
        return tuple(map(tuple, np.asarray(edge_vals)[self.graph.route].tolist()))

    def unfold(self, word) -> list:
        """Right-folded word -> edge labelling."""
        return self._edge_array(word).tolist()

    def left_views(self, word) -> list[tuple]:
        """The d-tuple seen by each left vertex (in its edge order)."""
        return list(map(tuple, self._edge_array(word).reshape(self.n, self.d).tolist()))

    def _edge_array(self, word) -> np.ndarray:
        edge_vals = np.empty(self.n * self.d, dtype=np.int64)
        edge_vals[self.graph.route] = word
        return edge_vals

    def inner_index_to_outer_symbol(self, i: int) -> int:
        """Codebook index (message-lex order of C_in) -> outer symbol via phi^{-1}."""
        return self._symbol_of_index[i]

    def outer_symbol_to_inner_index(self, sigma: int) -> int:
        return self._index_of_symbol[sigma]

    def decode_to_outer(self, word) -> tuple:
        """phi^{-1} applied to every left view; raises KeyError off-codebook."""
        return tuple(self._phi_inv[v] for v in self.left_views(word))

    def enumerate_codewords(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[tuple]:
        # the outer code checks the cap on every call, cached or not
        outer_words = self.outer.enumerate_codewords(cap)
        if self._codewords is None:
            self._codewords = [self.encode(w) for w in outer_words]
        return self._codewords

    # -- metrics ---------------------------------------------------------------

    def _check(self, word) -> None:
        if len(word) != self.n or any(len(t) != self.d for t in word if t is not ERASED):
            raise GraphMismatch("word shape does not match the graph")

    def delta_L(self, w1, w2) -> Fraction:
        """Fraction of left vertices whose full d-symbol view differs."""
        self._check(w1)
        self._check(w2)
        return hamming_distance(self.left_views(w1), self.left_views(w2))

    def delta_R(self, w1, w2) -> Fraction:
        """Fraction of right vertices whose folded symbol differs."""
        self._check(w1)
        self._check(w2)
        return hamming_distance(w1, w2)

    def delta_R_erased(self, erased: ErasedWord, word) -> Fraction:
        """Erased-distance on the right: erased vertices contribute nothing."""
        if erased.n != self.n:
            raise LengthMismatch("length mismatch with graph size")
        return dist_with_erasures(erased, word)

    def rate(self) -> Fraction:
        """log_|Sigma| |C_AEL| / n, exact: the constructor fixes q_out =
        |C_in| = q_in^dim_in, so this is the outer rate times the inner rate."""
        return self.outer.rate * self.inner.rate


def pair_counting_check(code: AELCode, f, g) -> dict:
    """Re-execute the edge-counting argument behind distance amplification.

    L' is the set of left vertices whose views fully differ; every such
    vertex sends at least delta_in * d differing edges, all landing in the
    differing right set R'.  The mixing lemma upper-bounds E(L', R'); the
    count and the set-form verdict come from `verify_eml_sets`.
    """
    views_f, views_g = code.left_views(f), code.left_views(g)
    L = [l for l in range(code.n) if views_f[l] != views_g[l]]
    R = [r for r in range(code.n) if f[r] != g[r]]
    e_lr, _, mixing_ok = verify_eml_sets(code.graph, L, R)
    delta_in = code.delta_in
    return {
        "L_size": len(L),
        "R_size": len(R),
        "edges": e_lr,
        "lower_ok": e_lr * delta_in.denominator >= delta_in.numerator * code.d * len(L),
        # a deviation at or below zero meets the upper bound outright
        "upper_ok": code.n * e_lr <= code.d * len(L) * len(R) or mixing_ok,
    }


def verify_distance_amplification(code: AELCode, cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    """Check Delta_R >= delta_in - lam/Delta_L for every distinct codeword pair.

    Uses the conservative lam_bound.  When the global bound
    delta_in - lam/delta_out is non-positive the report flags vacuity and
    only the per-pair form is asserted.  Raises AmplificationViolation on
    any failing pair.  Delta_R and Delta_L are integer counts from
    `pair_disagreements` on the folded words and on their left views; one
    exact integer threshold per Delta_L count decides every pair.
    """
    words = code.enumerate_codewords(cap)
    delta_in, delta_out = code.delta_in, code.delta_out
    lam = code.graph.lam_bound
    global_bound = delta_in - lam / delta_out
    n = code.n
    # limit[c]: the least Delta_R count allowed to a pair with Delta_L count c
    asserted = [global_bound] if global_bound > 0 else []
    limit = np.array([n + 1] + [
        math.ceil(n * max([delta_in - lam * n / c] + asserted)) for c in range(1, n + 1)
    ])
    iu = np.triu_indices(len(words), k=1)
    dr = pair_disagreements(intern_symbols(words)[0])[iu]
    dl = pair_disagreements(intern_symbols(code.left_views(w) for w in words)[0])[iu]
    bad = np.flatnonzero(dr < limit[dl])
    if bad.size:
        p = int(bad[0])
        pair = f"pair ({iu[0][p]},{iu[1][p]})"
        pair_dl, pair_dr = Fraction(int(dl[p]), n), Fraction(int(dr[p]), n)
        if pair_dl == 0:
            raise AmplificationViolation(f"{pair} has Delta_L = 0")
        if pair_dr < delta_in - lam / pair_dl:
            raise AmplificationViolation(f"{pair}: Delta_R={pair_dr} < {delta_in - lam / pair_dl}")
        raise AmplificationViolation(f"{pair}: Delta_R={pair_dr} below global bound {global_bound}")
    return {
        "pairs_checked": int(dr.size),
        "min_delta_R": Fraction(int(dr.min()), n) if dr.size else None,
        "delta_in": delta_in,
        "delta_out": delta_out,
        "lam_bound": lam,
        "global_bound": global_bound,
        "global_bound_vacuous": global_bound <= 0,
    }

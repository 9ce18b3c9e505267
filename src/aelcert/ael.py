"""
The AEL distance-amplification construction: route inner-code symbols along
the edges of a d-regular bipartite graph and refold them on the right
vertices.

The codewords are one (N, n, d) int64 array, `word_array`: right vertex r
of a word holds the d entries its edges bring, gathered through phi, the
inner code's (M, d) `word_array` (`codebook`), and the graph's `route`.
Tuples of d-tuples are built only for callers that ask for them, and
symbols are compared through their `arld.symbol_keys`, never interned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .arld import key_ids, pair_disagreements, symbol_keys
from .codes import DEFAULT_ENUMERATION_CAP, ERASED, ErasedWord, LinearCode, word_tuples
from .errors import AmplificationViolation, Mismatch
from .gf import _ints
from .graphs import BipartiteGraph, verify_eml_sets


class AELCode:
    """
    Composite (G, C_out, C_in) code.  phi is part of the construction, not
    a parameter: it sends outer symbol sigma (an integer representative of
    the outer field) to the sigma-th inner codeword in message order, so an
    outer symbol is its inner codebook index.

    phi is GF(p)-linear, so the AEL code is too.  The constructor fixes
    q_out = |C_in| = q_in^dim, so both fields have characteristic p, and
    both add their integer representatives digit by digit in base p.  The
    sigma-th message in `itertools.product` order has the base-q_in digits
    of sigma as its symbols, so sigma's base-p digits are its message's
    digits, and outer addition is message addition.  Inner encoding is
    linear, so phi(sigma + tau) = phi(sigma) + phi(tau).  Nothing relies on
    this: `translation_closed` still checks closure on the words.
    """

    def __init__(self, graph: BipartiteGraph, inner: LinearCode, outer: LinearCode):
        if inner.n != graph.d:
            raise Mismatch(f"inner block length {inner.n} != graph degree {graph.d}")
        if outer.n != graph.n:
            raise Mismatch(f"outer length {outer.n} != graph size {graph.n}")
        if outer.field.q != inner.size:
            raise Mismatch(f"|Sigma_out| = {outer.field.q} != |C_in| = {inner.size}")
        self.graph = graph
        self.inner = inner
        self.outer = outer
        # the field whose coordinatewise addition acts on the folded symbols
        self.field = inner.field
        self._words = self._keys = self._codewords = None  # built on first use

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d(self) -> int:
        return self.graph.d

    # computed on first access, so a TooLarge surfaces there
    @cached_property
    def delta_in(self) -> Fraction:
        return self.inner.min_distance()

    @cached_property
    def delta_out(self) -> Fraction:
        return self.outer.min_distance()

    @cached_property
    def codebook(self) -> np.ndarray:
        """phi, row sigma = phi(sigma), held once: the inner `word_array`.
        Encoding gathers its rows; decoding compares the left views with all."""
        return self.inner.word_array()

    # -- encoding and views --------------------------------------------------

    def encode(self, outer_codeword) -> tuple:
        """Right-folded AEL codeword from an outer codeword."""
        outer_codeword = tuple(outer_codeword)
        if not self.outer.contains(outer_codeword):
            raise Mismatch(f"{outer_codeword} is not in C_out")
        return word_tuples(self._fold_phi([outer_codeword]))[0]

    def encode_message(self, msg) -> tuple:
        return word_tuples(self._fold_phi([self.outer.encode(msg)]))[0]

    def _fold_phi(self, outer_words) -> np.ndarray:
        """The (N, n, d) AEL words of N outer words the outer code made, in
        one gather through `codebook` and `route`, with no membership test."""
        edges = self.codebook[np.asarray(outer_words)].reshape(len(outer_words), -1)
        return edges[:, self.graph.route].reshape(-1, self.n, self.d)

    def left_views(self, word) -> list[tuple]:
        """The d-tuple seen by each left vertex (in its edge order)."""
        return list(map(tuple, self._view_array(word).tolist()))

    def _view_array(self, word) -> np.ndarray:
        """The left views as one (n, d) int64 array, row l the view of l."""
        edge_vals = np.empty(self.n * self.d, dtype=np.int64)
        edge_vals[self.graph.route] = word
        return edge_vals.reshape(self.n, self.d)

    def outer_symbol_to_inner_index(self, sigma: int) -> int:
        """The inner codebook index of phi(sigma): sigma itself."""
        return sigma

    def decode_to_outer(self, word) -> tuple:
        """phi^{-1} of every left view, the codebook row with the same key;
        raises KeyError off-codebook.  A key is exact only for entries in
        [0, q), so a view with an entry outside finds no row."""
        q, views = self.field.q, self._view_array(word)
        found = (symbol_keys(views, q)[:, None]
                 == symbol_keys(self.codebook, q)).all(-1)  # (n, M)
        found &= ((views >= 0) & (views < q)).all(1)[:, None]
        if not found.any(1).all():
            raise KeyError(self.left_views(word)[int(found.any(1).argmin())])
        return tuple(found.argmax(1).tolist())

    def word_array(self, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """Every codeword, in outer enumeration order, as one read-only
        (N, n, d) int64 array, gathered once; the outer code checks the cap
        on every call.  `word_keys` are computed with it."""
        outer_words = self.outer.word_array(cap)
        if self._words is None:
            self._words = self._fold_phi(outer_words)
            self._words.flags.writeable = False
            # word index fastest: a count over a word's symbols adds rows of N
            self._keys = np.asfortranarray(symbol_keys(self._words, self.field.q))
        return self._words

    def word_keys(self, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """The (N, n, c) `arld.symbol_keys` of `word_array`."""
        self.word_array(cap)
        return self._keys

    def enumerate_codewords(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[tuple]:
        """`word_array` as tuples of d-tuples, built on first use."""
        words = self.word_array(cap)
        if self._codewords is None:
            self._codewords = word_tuples(words)
        return self._codewords

    # -- metrics ---------------------------------------------------------------

    def read_word(self, word) -> tuple[np.ndarray, np.ndarray]:
        """(rows, erased) of a received word, an `ErasedWord` or n symbols,
        each ERASED or d integer entries in [0, q_in): the (n, d) int64
        entries, -1 in an erased row, and the (n,) bool erasure mask.
        Mismatch for the shape (an int or a string is no symbol) or an entry
        out of range; ValueError for a bool, float or string entry."""
        symbols = word.symbols if isinstance(word, ErasedWord) else word
        try:
            held = [t for t in symbols if t is not ERASED]
            length = len(symbols)
            shaped = all(len(t) == self.d and not isinstance(t, (str, bytes)) for t in held)
        except TypeError:  # a word or a symbol with no length
            shaped = False
        if not shaped:
            raise Mismatch("word shape does not match the graph")
        if length != self.n:
            raise Mismatch("word shape does not match the graph: "
                           f"length mismatch with graph size, {length} != {self.n}")
        # every entry, not a set of them: {1, True} is {1}
        entries, q = _ints(chain.from_iterable(held), "word entry", 1), self.field.q
        if entries and not (0 <= min(entries) and max(entries) < q):
            raise Mismatch(f"word has an entry outside [0, {q})")
        if len(held) == length:  # nothing erased: the entries fill every row
            return np.array(entries, dtype=np.int64).reshape(length, self.d), np.zeros(length, bool)
        erased = np.array([t is ERASED for t in symbols])
        rows = np.full((length, self.d), -1, dtype=np.int64)
        rows[~erased] = np.array(entries, dtype=np.int64).reshape(-1, self.d)
        return rows, erased

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
    `pair_disagreements` on the folded words' symbol keys and on the outer
    words: phi is injective, so two left views differ exactly where the
    outer symbols differ.  One exact integer threshold per Delta_L count
    decides every pair.
    """
    keys = key_ids(code.word_keys(cap))
    delta_in, delta_out = code.delta_in, code.delta_out
    lam = code.graph.lam_bound
    global_bound = delta_in - lam / delta_out
    n = code.n
    # limit[c]: the least Delta_R count allowed to a pair with Delta_L count c
    asserted = [global_bound] if global_bound > 0 else []
    limit = np.array([n + 1] + [
        math.ceil(n * max([delta_in - lam * n / c] + asserted)) for c in range(1, n + 1)
    ])
    iu = np.triu_indices(len(keys), k=1)
    dr = pair_disagreements(keys)[iu]
    dl = pair_disagreements(code.outer.word_array(cap))[iu]
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

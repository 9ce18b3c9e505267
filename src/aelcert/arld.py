"""
Worst-case average-radius slack computation over codeword subsets.

The quantity minimized over subsets H (and implicitly over all centers g,
via the coordinate-wise plurality argument) is the total disagreement count

    D(H) = sum_i (|H| - maxcount_i)

where maxcount_i is the largest symbol multiplicity among {h_i : h in H}.
D(H)/n equals min_g sum_{h in H} Delta(g, h), so a single exact integer per
subset settles the universally-quantified center.  Erasures never help the
adversary: erasing coordinate i changes the slack by (maxcount_i - 1)/n >= 0,
so the erasure-free worst case covers every erasure fraction (this fact is
also machine-checked on small instances in the test suite).

Size-2 subsets read the distance matrix of `pair_disagreements`; every
larger size runs one numpy kernel over the pairwise symbol-equality tensor.  Each reported
witness is the lexicographically smallest minimizing index tuple, so it is
a function of the word list alone.  `_search_generic`, a direct plurality
enumeration, is the reference the tests hold the kernel to.

Translation symmetry: adding one vector v to every word of H keeps every
coordinate's equality pattern (a_i + v_i = b_i + v_i iff a_i = b_i), so
D(H + v) = D(H).  When the distinct words W form a group under
coordinatewise field addition (`translation_closed`, checked exactly on the
words, never assumed), every subset H has the translate H - h + w_0, for
any h in H, which lies in W, contains word 0 and has the same D.  The
sweep then visits only the subsets of size >= 3 that contain index 0: the
minimum is unchanged, and since some minimizer contains index 0 and every
index tuple starting with 0 precedes every tuple that does not, so is the
lexicographically smallest witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .errors import EmptySet, SubsetEnumerationTooLarge

DEFAULT_SUBSET_CAP = 2 * 10**8


def intern_symbols(codewords) -> tuple[np.ndarray, list]:
    """Map codewords over an arbitrary hashable alphabet to integer ids.

    Ids are assigned in sorted symbol order, so id comparisons agree with
    the canonical "smallest element encoding" tie-break.
    """
    words = [tuple(w) for w in codewords]
    alphabet = sorted({s for w in words for s in w})
    index = {s: i for i, s in enumerate(alphabet)}
    mat = np.array([[index[s] for s in w] for w in words], dtype=np.int64)
    return mat, alphabet


def translation_closed(words, field) -> bool:
    """Whether the words are distinct and closed under coordinatewise
    `field` addition, i.e. form a group, so the sweep may fix word 0.

    Nested symbols (AEL d-tuples, FRS b-tuples) are flattened.  The test
    is W + w == W for every w in W, one translate at a time: over GF(2^m)
    addition is XOR of the representatives, otherwise digit-wise mod p on
    their base-p digits.  Rows are packed into int64 keys and sorted, so a
    translate equals W exactly when its sorted keys equal W's.  Without a
    field there is no addition, and the answer is False.
    """
    if field is None or not words:
        return False
    p, q = field.p, field.q
    vals = np.array(
        [[x for s in w for x in (s if isinstance(s, tuple) else (s,))] for w in words],
        dtype=np.int64,
    )
    if vals.min() < 0 or vals.max() >= q:
        return False
    if p == 2:
        base, add = q, np.bitwise_xor
    else:
        vals = (vals[:, :, None] // p ** np.arange(field.m) % p).reshape(len(words), -1)
        base = p

        def add(a, b):
            s = a + b
            return np.where(s >= p, s - p, s)
    # `per` base-`base` digits fit one int64 key; zero padding is fixed by
    # every translate
    per = 1
    while base ** (per + 1) < 2**63:
        per += 1
    vals = np.pad(vals, ((0, 0), (0, -vals.shape[1] % per)))
    vals = vals.reshape(len(words), -1, per)
    weights = base ** np.arange(per, dtype=np.int64)

    def sorted_keys(v):
        keys = v @ weights
        return keys[np.lexsort(keys.T)]

    ref = sorted_keys(vals)
    if (ref[1:] == ref[:-1]).all(axis=1).any():
        return False  # a repeated word
    return all(np.array_equal(sorted_keys(add(vals, w)), ref) for w in vals)


def plurality_center(words) -> tuple[tuple, list[int]]:
    """Coordinate-wise plurality of a set of equal-length words.

    Returns (center, contributions) where contributions[i] = |H| - maxcount_i,
    the minimum possible number of disagreements at coordinate i over any
    center symbol.  Ties break to the smallest symbol.
    """
    words = [tuple(w) for w in words]
    if not words:
        raise EmptySet("plurality of an empty set")
    n = len(words[0])
    center = []
    contribs = []
    for i in range(n):
        counts = Counter(w[i] for w in words)
        best = max(counts.values())
        center.append(min(s for s, c in counts.items() if c == best))
        contribs.append(len(words) - best)
    return tuple(center), contribs


@dataclass
class SubsetWitness:
    """The minimum D(H) over the subsets H of one size, and a subset that
    attains it: the lexicographically smallest such index tuple."""

    size: int
    indices: tuple[int, ...]
    disagreement_count: int  # D(H), an exact integer over n coordinates


def subset_search_count(m_words: int, k: int, closed: bool = False) -> int:
    """Subsets of sizes 2..k: all of them, or with `closed` the number the
    translation-reduced sweep evaluates (sizes >= 3 only those holding 0)."""
    return sum(
        comb(m_words - 1, j - 1) if closed and j > 2 else comb(m_words, j)
        for j in range(2, min(k, m_words) + 1)
    )


def pair_disagreements(sym: np.ndarray) -> np.ndarray:
    """(M, M) int64 disagreement counts between the rows of `sym`, summed one
    coordinate at a time so that memory stays O(M^2)."""
    M, n = sym.shape
    dist = np.zeros((M, M), dtype=np.int64)
    for i in range(n):
        dist += sym[:, None, i] != sym[None, :, i]
    return dist


def min_disagreement_by_size(
    sym: np.ndarray,
    k: int,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    closed: bool = False,
) -> dict[int, SubsetWitness]:
    """For each subset size m in 2..k, the minimum D(H) and a witness subset.

    `sym` is an (M, n) integer matrix of interned codeword symbols.  Size 2
    reads `pair_disagreements`; every larger size runs the same kernel,
    `_search_subsets`.  Each witness is the lexicographically smallest
    minimizing index tuple, so it depends on the word list alone.

    Pass `closed=True` only when `translation_closed` holds for the words
    `sym` was interned from.  Sizes >= 3 then visit only the C(M-1, m-1)
    subsets that contain index 0.  That is exact: every subset H has a
    translate H - h + w_0 inside the group W that contains word 0 and has
    the same D (see the module docstring).  The witness is unchanged too:
    some minimizer contains index 0, and every index tuple that starts with
    0 is lexicographically smaller than every tuple that does not.
    `subset_cap` bounds the subsets evaluated: the reduced count with
    `closed`, all of them otherwise.
    """
    M, n = sym.shape
    evaluated = subset_search_count(M, k, closed)
    if evaluated > subset_cap:
        raise SubsetEnumerationTooLarge(
            f"{evaluated} subsets to evaluate ({subset_search_count(M, k)}"
            f" covered) exceed cap {subset_cap}"
        )
    out: dict[int, SubsetWitness] = {}
    if M < 2 or k < 2:
        return out

    iu = np.triu_indices(M, k=1)
    flat = pair_disagreements(sym)[iu]
    best = int(flat.argmin())
    out[2] = SubsetWitness(2, (int(iu[0][best]), int(iu[1][best])), int(flat[best]))

    if k >= 3:
        eq = (sym[:, None, :] == sym[None, :, :]).astype(np.uint8)  # (M, M, n)
        for m in range(3, min(k, M) + 1):
            out[m] = _search_subsets(eq, m, closed)
    return out


def _search_subsets(eq: np.ndarray, m: int, closed: bool) -> SubsetWitness:
    """Minimum D(H) over all m-subsets (m >= 3), from the pairwise equality
    tensor `eq`, with the lexicographically smallest witness; with `closed`,
    over the m-subsets that contain index 0.

    H is written prefix + (last, c, d) with prefix < last < c < d.  Python
    loops fix `last` and the m - 3 prefix indices below it; numpy evaluates
    every pair (c, d) above `last` at once.  D(H) = m*n - sum_i t_i, where
    t_i is the largest symbol multiplicity at coordinate i.  A member's count
    at i is 1 plus the later members equal to it there; the first member of
    each symbol class counts the whole class, so t_i is the largest count.
    """
    M, _, n = eq.shape
    best = None
    # with `closed`, index 0 is `last` when m = 3 and the prefix head otherwise
    lasts = range(1) if closed and m == 3 else range(m - 3, M - 2)
    for last in lasts:
        ci, di = np.triu_indices(M - last - 1, k=1)
        C, D = ci + last + 1, di + last + 1
        # the counts of last and c; d, counted 1, is never above them
        top = np.maximum(
            1 + eq[last].take(C, 0) + eq[last].take(D, 0), 1 + eq[C, D]
        )
        if closed and m > 3:
            prefixes = ((0,) + rest for rest in combinations(range(1, last), m - 4))
        else:
            prefixes = combinations(range(last), m - 3)
        for prefix in prefixes:
            fixed = prefix + (last,)
            maxc = top
            for i, a in enumerate(prefix):
                count = eq[a, fixed[i:]].sum(axis=0, dtype=np.uint8)
                maxc = np.maximum(maxc, count + eq[a].take(C, 0) + eq[a].take(D, 0))
            # einsum sums the short rows several times faster than .sum
            kept = np.einsum("ij->i", maxc, dtype=np.int64)
            j = int(kept.argmax())
            cand = (m * n - int(kept[j]), fixed + (int(C[j]), int(D[j])))
            if best is None or cand < best:
                best = cand
    return SubsetWitness(m, best[1], best[0])


def _search_generic(sym: np.ndarray, m: int) -> SubsetWitness:
    M, n = sym.shape
    rows = [tuple(r) for r in sym]
    best = (n * m + 1, None)
    for idx in combinations(range(M), m):
        _, contribs = plurality_center([rows[i] for i in idx])
        d = sum(contribs)
        if d < best[0]:
            best = (d, idx)
    return SubsetWitness(m, best[1], best[0])


def epsilon_min(
    witnesses: dict[int, SubsetWitness], n: int, delta0: Fraction
) -> tuple[Fraction, SubsetWitness | None]:
    """Smallest eps for which every subset satisfies
    D(H)/n >= (|H|-1)(delta0 - eps), clamped below at 0."""
    eps = Fraction(0)
    worst = None
    for m, w in witnesses.items():
        cand = delta0 - Fraction(w.disagreement_count, n * (m - 1))
        if cand > eps:
            eps, worst = cand, w
    if worst is None and witnesses:
        # eps_min = 0: report the tightest subset anyway
        worst = min(
            witnesses.values(),
            key=lambda w: Fraction(w.disagreement_count, w.size - 1),
        )
    return eps, worst

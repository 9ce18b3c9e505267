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
larger size runs one numpy kernel, `_search_subsets`, over the pairwise
symbol equalities packed in byte lanes: an (L, M, M) uint64 array, L =
ceil(n/8), whose lane l holds coordinates 8l..8l+7 one byte each (1 where
the two words agree, 0 where they differ and in the padding bytes past n).
A byte of a subset's count lane is at most its size m, so counts add as
whole words without carries, and one multiply sums a lane's eight bytes
exactly while 8m < 256; larger sizes are refused before the sweep starts.
The kernel runs one Python iteration per third-largest member `last` of
H and evaluates every subset with that `last` in bounded numpy blocks, so
its Python overhead grows with M, not with the number of subsets.
Each reported witness is the lexicographically smallest minimizing index
tuple, so it is a function of the word list alone.  `_search_generic`, a
direct plurality enumeration, is the reference the tests hold the kernel to.

Translation symmetry: adding one vector v to every word of H keeps every
coordinate's equality pattern (a_i + v_i = b_i + v_i iff a_i = b_i), so
D(H + v) = D(H).  When the distinct words W form a group under
coordinatewise field addition (`translation_closed`, checked exactly on the
words, never assumed: W is a group iff it has p^r words, r its rank over
GF(p) from `codes.rref`), every subset H has the translate H - h + w_0,
for any h in H, which lies in W, contains word 0 and has the same D.  The
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

from .codes import rref
from .errors import Mismatch, TooLarge
from .gf import make_field

DEFAULT_SUBSET_CAP = 2 * 10**8
# a lane's byte sum is the top byte of lane * _BYTE_SUM: exact while the
# eight bytes, each at most the subset size m, sum below 256, i.e. m <= 31
_BYTE_SUM, _TOP_BYTE = np.uint64(0x0101010101010101), np.uint64(56)
MAX_SUBSET_SIZE = 31
# elements (lanes x prefixes x pairs) of one `_search_subsets` block, 128 KiB
# of uint64, unless a single prefix has more
_BLOCK = 1 << 14


def intern_symbols(codewords) -> tuple[np.ndarray, dict]:
    """The (M, n) integer ids of codewords over a hashable alphabet, and the id map.

    Ids are assigned in sorted symbol order, so id comparisons agree with
    the canonical "smallest element encoding" tie-break.
    """
    words = [tuple(w) for w in codewords]
    index = {s: i for i, s in enumerate(sorted({s for w in words for s in w}))}
    mat = np.array([[index[s] for s in w] for w in words], dtype=np.int64)
    return mat, index


def translation_closed(words, field) -> bool:
    """Whether the words are distinct and closed under coordinatewise
    `field` addition, i.e. form a group, so the sweep may fix word 0.

    Nested symbols (AEL d-tuples, FRS b-tuples) are flattened and written
    as base-p digits, so words are vectors over GF(p).  Distinct words W lie
    in their GF(p)-span, which has p^rank elements, and a group is its own
    span (c*w is w added c times), so W is a group iff |W| = p^rank.  The
    rank is over GF(p), not GF(q): AEL words, whose phi is GF(p)-linear,
    are closed under addition but need not be GF(q)-linear.  Repeated digit
    columns, which leave the rank alone, are dropped first.  A symbol
    outside [0, q), a repeated word or no field gives False.
    """
    if field is None or not words:
        return False
    p = field.p
    vals = np.array(
        [[x for s in w for x in (s if isinstance(s, tuple) else (s,))] for w in words],
        dtype=np.int64,
    )
    if vals.min() < 0 or vals.max() >= field.q:
        return False
    if len({row.tobytes() for row in vals}) != len(vals):
        return False  # a repeated word
    digits = (vals[:, :, None] // p ** np.arange(field.m) % p).reshape(len(vals), -1)
    # the distinct digit columns, as rows: the transpose has the same rank
    cols = {c.tobytes(): c.tolist() for c in digits.T}
    return len(vals) == p ** len(rref(make_field(p), list(cols.values()))[0])


def plurality_center(words) -> tuple[tuple, list[int]]:
    """Coordinate-wise plurality of a set of equal-length words.

    Returns (center, contributions) where contributions[i] = |H| - maxcount_i,
    the minimum possible number of disagreements at coordinate i over any
    center symbol.  Ties break to the smallest symbol.
    """
    words = [tuple(w) for w in words]
    if not words:
        raise Mismatch("plurality of an empty set")
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
    `closed`, all of them otherwise.  Subset sizes above MAX_SUBSET_SIZE
    are refused first, whatever the cap (see `_search_subsets`).
    """
    M, n = sym.shape
    if min(k, M) > MAX_SUBSET_SIZE:
        raise TooLarge(
            f"subset size {min(k, M)} exceeds the byte-lane limit {MAX_SUBSET_SIZE}:"
            " a uint64 lane sums eight byte counts exactly only while 8m < 256"
        )
    evaluated = subset_search_count(M, k, closed)
    if evaluated > subset_cap:
        raise TooLarge(
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
        eq = _equality_lanes(sym)
        for m in range(3, min(k, M) + 1):
            out[m] = _search_subsets(eq, m, closed)
    return out


def _equality_lanes(sym: np.ndarray) -> np.ndarray:
    """(L, M, M) uint64 pairwise equality, L = ceil(n/8): byte i % 8 of
    lane i // 8 is 1 where words a and b agree at coordinate i; padding
    bytes are 0.  Built one coordinate at a time, like `pair_disagreements`."""
    M, n = sym.shape
    eq = np.zeros((-(-n // 8), M, M), dtype=np.uint64)
    for i in range(n):
        same = (sym[:, None, i] == sym[None, :, i]).astype(np.uint64)
        eq[i // 8] |= same << np.uint64(8 * (i % 8))
    return eq


def _search_subsets(eq: np.ndarray, m: int, closed: bool) -> SubsetWitness:
    """Minimum D(H) over all m-subsets (m >= 3), from the equality lanes
    `eq` of `_equality_lanes`, with the lexicographically smallest witness;
    with `closed`, over the m-subsets that contain index 0.

    H is written prefix + (last, c, d) with prefix < last < c < d.  One
    Python iteration fixes `last`; numpy evaluates its (m - 3)-prefixes and
    every pair (c, d) above it at once, as (L, prefixes, pairs) blocks of at
    most _BLOCK elements (one prefix per block if a prefix alone is larger).
    D(H) = m*n - sum_i t_i, where t_i is the largest symbol multiplicity at
    coordinate i.  A member's count at i is 1 plus the later members equal
    to it there; the first member of each symbol class counts the whole
    class, so t_i is the largest count.

    Counts are uint64 blocks, one coordinate per byte as in `eq`.  A count
    byte is at most m, so counts add as whole lanes with no carry between
    bytes and maxima are taken on the uint8 view of the same memory.
    sum_i t_i is, per lane, the top byte of x * 0x0101010101010101 (the
    running byte sums stay below 8m < 256, so no carry reaches it), summed
    over the lanes.  Padding bytes are 0 in `eq` and in `one`, so they add
    nothing.  The pairs are built once: `np.triu_indices` is row-major, so
    the pairs above `last` are a suffix of it.  Prefixes are in
    `combinations` order and pairs in row-major order, so a block's first
    maximum is its lexicographically smallest minimizer, and blocks are
    compared on (D, indices).
    """
    L, M, _ = eq.shape
    one = eq[:, 0, 0][:, None]  # 1 in every real byte, 0 in padding
    n = int(one.view(np.uint8).sum())
    flat = eq.reshape(L, M * M)
    C_all, D_all = np.triu_indices(M, k=1)
    # the count of c: d, counted 1, is never above it
    c_count = flat.take(C_all * M + D_all, 1) + one
    # with `closed`, index 0 is `last` when m = 3 and the prefix head otherwise
    if closed and m > 3:
        heads = [(0,) + rest for rest in combinations(range(1, M - 3), m - 4)]
    else:
        heads = list(combinations(range(M - 3), m - 3))
    heads = np.array(heads, dtype=np.intp)
    head_max = heads.max(1, initial=-1)
    best = None
    lasts = range(1) if closed and m == 3 else range(m - 3, M - 2)
    for last in lasts:
        s = (last + 1) * (2 * M - 2 - last) // 2  # the pairs with c <= last
        C, D = C_all[s:], D_all[s:]
        ci, di = C - (last + 1), D - (last + 1)
        # the counts of last and c
        row = eq[:, last]
        top = row.take(C, 1) + row.take(D, 1) + one
        np.maximum(top.view(np.uint8), c_count[:, s:].view(np.uint8), out=top.view(np.uint8))
        top = top[:, None]
        # the prefixes below `last`, in `combinations` order, then `last`
        fixed = heads[head_max < last]
        fixed = np.column_stack((fixed, np.full(len(fixed), last)))
        # per prefix position: 1 plus the later fixed members equal to it
        later = [(eq[:, fixed[:, i, None], fixed[:, i + 1:]].sum(2) + one)[:, :, None]
                 for i in range(m - 3)]
        step = max(1, _BLOCK // (L * len(C)))
        for b in range(0, len(fixed), step):
            maxc = top
            for i in range(m - 3):
                rows = eq[:, fixed[b:b + step, i], last + 1:]
                count = rows.take(ci, 2)
                count += rows.take(di, 2)
                count += later[i][:, b:b + step]
                np.maximum(maxc.view(np.uint8), count.view(np.uint8), out=count.view(np.uint8))
                maxc = count
            # each lane's byte sum, then their total over the lanes
            lanes = maxc * _BYTE_SUM
            lanes >>= _TOP_BYTE
            kept = lanes[0]
            for lane in lanes[1:]:
                kept += lane
            k, j = divmod(int(kept.argmax()), len(C))
            cand = (m * n - int(kept[k, j]),
                    tuple(fixed[b + k].tolist()) + (int(C[j]), int(D[j])))
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
    D(H)/n >= (|H|-1)(delta0 - eps), clamped below at 0, and the witness
    that sets it; on ties the smallest size's."""
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

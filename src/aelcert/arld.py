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

The sweep reads one integer id per symbol from `inner.resolve_words`: an
entry, a folded symbol's `symbol_keys`, or an `intern_symbols` id.  Every
subset size reads the pairwise symbol equalities packed in byte lanes: an
(L, M, M) uint64 array, L = ceil(n/8), whose lane l holds
coordinates 8l..8l+7 one byte each (1 where the two words agree, 0 where
they differ and in the padding bytes past n).  Size 2 reads each pair's
count as n minus its byte sum, and every larger size runs one numpy
kernel, `_search_subsets`.  A byte of a subset's count lane is at most
its size m, so counts add as whole words without carries, and one
multiply sums a lane's eight bytes exactly while 8m < 256; larger sizes
are refused before the sweep starts.

The kernel is an exact branch-and-bound (Land and Doig, 1960) on one fact:
D is superadditive over disjoint subsets.  For disjoint S and R a symbol's
count at coordinate i in S + R is its count in S plus its count in R, so
maxcount_i(S + R) <= maxcount_i(S) + maxcount_i(R), and summing
|S| + |R| - maxcount_i(S + R) over i gives D(S + R) >= D(S) + D(R).  Let
least_r be the minimum of D over all r-subsets (least_1 = 0: one word
disagrees with nothing); the sweep runs the sizes in ascending order, so it
knows least_r exactly for every r < m.  Take an upper bound U >= least_m;
the kernel's U is D(W + {x}), the best x added to the (m-1)-witness W, a
real m-subset.  A minimizer H is its prefix S of c members, in index
order, plus m - c later words R, so D(S) + least_(m-c) <= D(S) + D(R) <=
D(H) = least_m <= U.  Dropping each partial subset S of size c with
D(S) > U - least_(m-c) (strictly greater) therefore keeps every prefix of
every minimizer.  The walk starts at the pairs, the prefixes of size 2:
their D is what the size-2 step has scored, and the pairs with
D > U - least_(m-2), or with no room after them for m - 2 more members,
are never roots.  The kernel grows subsets one index at a time, depth
first and in index order, and prunes there; the m-subsets it does score it
scores exactly, so the minimum is the same as a full sweep's.  Each
reported witness is the lexicographically smallest minimizing index tuple,
so it is a function of the word list alone.

Translation symmetry: adding one vector v to every word of H keeps every
coordinate's equality pattern (a_i + v_i = b_i + v_i iff a_i = b_i), so
D(H + v) = D(H).  When the distinct words W form a group under
coordinatewise field addition (`translation_closed`, checked exactly on the
words, never assumed: it grows the span of W coset by coset, and W is a
group iff W is its own span, which holds once W lies in a span of at most
|W| words), every subset H has the translate H - h + w_0, for any h in H,
which lies in W, contains word 0 and has the same D.  The sweep then
visits only the subsets of size >= 3 that contain index 0, starting from
the pairs (0, b): the minimum is unchanged, and since some minimizer
contains index 0 and every index tuple starting with 0 precedes every
tuple that does not, so is the lexicographically smallest witness.  For
the same reason each reduced minimum is least_r over all r-subsets, so the
look-ahead bound holds as it stands.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb

import numpy as np

from .errors import Mismatch, TooLarge

DEFAULT_SUBSET_CAP = 2 * 10**8
# a lane's byte sum is the top byte of lane * _BYTE_SUM: exact while the
# eight bytes, each at most the subset size m, sum below 256, i.e. m <= 31
_BYTE_SUM, _TOP_BYTE = np.uint64(0x0101010101010101), np.uint64(56)
MAX_SUBSET_SIZE = 31
# elements (lanes x children) of one `_search_subsets` block, 128 KiB of
# uint64, unless a single subset has more children
_BLOCK = 1 << 14
# a `_pair_table` entry that is no pair: above every bound the sweep tests
_NO_PAIR = np.iinfo(np.int64).max


def intern_symbols(codewords) -> tuple[np.ndarray, dict]:
    """The (M, n) integer ids of codewords over a hashable alphabet, and the id map.

    Ids are assigned in sorted symbol order, so id comparisons agree with
    the canonical "smallest element encoding" tie-break.
    """
    words = [tuple(w) for w in codewords]
    index = {s: i for i, s in enumerate(sorted({s for w in words for s in w}))}
    mat = np.array([[index[s] for s in w] for w in words], dtype=np.int64)
    return mat, index


def symbol_keys(entries: np.ndarray, q: int) -> np.ndarray:
    """Each symbol of `entries`, its last axis of w entries in [0, q), as a
    row of c int64 keys, (..., w) -> (..., c), in one product: a key packs
    e = 63 // ceil(log2 q) entries in base q, first entry most significant,
    so q^e <= 2^63 and every key lies in [0, 2^63); c = ceil(w / e).  Two
    symbols are equal exactly when their key rows are, and key rows compare
    lexicographically as the symbols' tuples do."""
    return entries @ _key_powers(q, entries.shape[-1])


@cache
def _key_powers(q: int, w: int) -> np.ndarray:
    """The read-only (w, c) weights of `symbol_keys`: entry i counts in key
    i // e, times q to the number of entries after it in that key."""
    i, e = np.arange(w), 63 // (q - 1).bit_length()
    powers = np.zeros((w, -(-w // e)), dtype=np.int64)
    powers[i, i // e] = q ** (np.minimum(i - i % e + e, w) - 1 - i)
    powers.flags.writeable = False
    return powers


def key_ids(keys: np.ndarray) -> np.ndarray:
    """(..., c) `symbol_keys` rows as (...) ids in their order: the one key,
    or the row's rank among the distinct rows (`np.unique` sorts rows)."""
    if keys.shape[-1] == 1:
        return keys[..., 0]
    ranks = np.unique(keys.reshape(-1, keys.shape[-1]), axis=0, return_inverse=True)[1]
    return ranks.reshape(keys.shape[:-1])


def translation_closed(words, field) -> bool:
    """Whether the words are distinct and closed under coordinatewise
    `field` addition, i.e. form a group, so the sweep may fix word 0.

    `words` is what `inner.resolve_words` gives, an integer `word_array` or
    word tuples; nested symbols (AEL d-tuples, FRS b-tuples) are flattened,
    and words add entry by entry through `Field.add_arrays`.  The span S
    of the words grows from {0}: a word w outside it gives S, S + w, ..., S + (p-1)w, p
    disjoint cosets (c*w in S for some 0 < c < p would put w in S), so |S|
    grows p-fold, and the test fails the moment that would exceed |W|, W
    the words.  Once every word is in S, W lies in S and |S| <= |W|, so
    W = S is a group, with no rank computed.  Nothing is cast: an entry
    that is not an integer (2.5), a symbol outside [0, q), a repeated word
    or no field gives False.
    """
    if field is None or len(words) == 0:
        return False
    if not isinstance(words, np.ndarray):
        words = [[x for s in w for x in (s if isinstance(s, tuple) else (s,))] for w in words]
    vals = np.asarray(words).reshape(len(words), -1)
    keys = [row.tobytes() for row in vals]
    if (vals.dtype.kind not in "iu" or vals.min() < 0 or vals.max() >= field.q
            or len(set(keys)) < len(keys)):
        return False  # an entry that is not an element, or a repeated word
    span, members = vals[:1] * 0, {bytes(vals[0].nbytes)}  # {0}
    for w, key in zip(vals, keys):
        if key not in members:
            if len(span) * field.p > len(vals):
                return False
            span = np.vstack([*accumulate([w] * (field.p - 1), field.add_arrays, initial=span)])
            members.update(row.tobytes() for row in span)
    return True


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
    # the subsets of this size whose D the sweep computed
    scored: int = dc_field(default=0, compare=False)


def subset_search_count(m_words: int, k: int, closed: bool = False) -> int:
    """Subsets of sizes 2..k: all of them, or with `closed` the number the
    translation-reduced sweep evaluates (sizes >= 3 only those holding 0)."""
    return sum(
        comb(m_words - 1, j - 1) if closed and j > 2 else comb(m_words, j)
        for j in range(2, min(k, m_words) + 1)
    )


def pair_disagreements(sym: np.ndarray) -> np.ndarray:
    """(M, M) disagreement counts between the rows of `sym`, summed one
    coordinate at a time so that memory stays O(M^2); uint8 while no count
    can reach 256."""
    M, n = sym.shape
    dist = np.zeros((M, M), dtype=np.uint8 if n < 256 else np.int64)
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

    `sym` is an (M, n) integer matrix of codeword symbol ids.  Size 2
    reads each pair's count as n minus its byte sum in the lanes of
    `_equality_lanes`; every larger size m runs the same kernel,
    `_search_subsets`, from those pairs, bounded by the size m - 1 witness
    and pruned ahead by the minima of the sizes below m.  Each witness is
    the lexicographically smallest minimizing index tuple, so it depends on
    the word list alone, and its `scored` counts the subsets of its size
    whose D the kernel computed.

    Pass `closed=True` only when `translation_closed` holds for the words
    of `sym`.  Sizes >= 3 then visit only the C(M-1, m-1) subsets that
    contain index 0, with the same minimum and witness (see the module
    docstring).  `subset_cap` bounds the subsets evaluated: the reduced
    count with `closed`, all of them otherwise.  Subset sizes above MAX_SUBSET_SIZE
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

    eq = _equality_lanes(sym)
    table = _pair_table(eq, n)
    best = int(table.argmin())
    out[2] = SubsetWitness(2, divmod(best, M), int(table.flat[best]), M * (M - 1) // 2)
    # the rows of the pairs the sweep starts from: with `closed` row 0 alone,
    # the pairs that hold index 0
    pairs = table[:1] if closed else table
    least = [0, 0]  # least[r]: the minimum D over r-subsets, known for r < m
    for m in range(3, min(k, M) + 1):
        least.append(out[m - 1].disagreement_count)
        table[:, M - m + 2] = _NO_PAIR  # b = M - m + 2 has no room for m - 2 more
        out[m] = _search_subsets(eq, m, pairs, least, out[m - 1])
    return out


def _equality_lanes(sym: np.ndarray) -> np.ndarray:
    """(L, M, M) uint64 pairwise equality, L = ceil(n/8): byte i % 8 of
    lane i // 8 is 1 where words a and b agree at coordinate i; padding
    bytes are 0.  Each coordinate is written straight into its byte through
    a uint8 view.  Where that byte sits in the lane depends on the byte
    order, and no reader depends on it: they take bytewise maxima or sum
    all eight bytes of a lane."""
    M, n = sym.shape
    eq = np.zeros((-(-n // 8), M, M), dtype=np.uint64)
    lane_bytes = eq.view(np.uint8).reshape(*eq.shape, 8)
    for i in range(n):
        np.equal(sym[:, None, i], sym[None, :, i], out=lane_bytes[i // 8, ..., i % 8])
    return eq


def _byte_sum(lanes: np.ndarray) -> np.ndarray:
    """Every byte of the (L, ...) lanes summed at each position: per lane
    the top byte of lane * _BYTE_SUM, exact while it is below 256."""
    lanes = lanes * _BYTE_SUM
    lanes >>= _TOP_BYTE
    total = lanes[0]
    for lane in lanes[1:]:
        total += lane
    return total


def _pair_table(eq: np.ndarray, n: int) -> np.ndarray:
    """(M, M) int64: D(a, b), n minus the byte sum of eq[:, a, b], at a < b
    and _NO_PAIR on and below the diagonal, so its row-major order is the
    lexicographic order of the pairs, that of `np.triu_indices(M, 1)`."""
    pair = n - _byte_sum(eq).astype(np.int64)
    r = np.arange(len(pair))
    pair[r[:, None] >= r] = _NO_PAIR
    return pair


def _lane_max_sum(top: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Raise the (L, P) count lanes `top` to `count` byte by byte, in place,
    and return the byte sum of each column: sum_i max(t_i, count_i)."""
    np.maximum(top.view(np.uint8), count.view(np.uint8), out=top.view(np.uint8))
    return _byte_sum(top)


def _upper_bound(eq: np.ndarray, smaller: SubsetWitness, one: np.ndarray, n: int) -> int:
    """min over x outside W of D(W + {x}), W the (m-1)-witness: the D of a
    real m-subset, so at least the minimum over m-subsets.  One pass: byte
    i of agree[:, x] counts the members of W that agree with x at i.  For a
    member h that includes h (eq[h, h] is 1 in every real byte), so
    agree[:, h] is the size of h's class in W, and W's largest class t is
    their bytewise maximum, taken on a contiguous `take`: the uint8 view of
    the gather agree[:, W], not C-contiguous, fails at two lanes or more."""
    W = list(smaller.indices)
    agree = eq[:, W].sum(1)
    t = agree.take(W, 1).view(np.uint8).reshape(len(one), len(W), 8).max(1).view(np.uint64)
    score = _lane_max_sum(t.repeat(agree.shape[1], 1), agree + one)
    score[W] = 0  # x must be a new word
    return (smaller.size + 1) * n - int(score.max())


def _search_subsets(
    eq: np.ndarray, m: int, pairs: np.ndarray, least: list[int], smaller: SubsetWitness
) -> SubsetWitness:
    """Minimum D(H) over all m-subsets (m >= 3), from the equality lanes
    `eq` of `_equality_lanes`, with the lexicographically smallest witness.
    `pairs` is the `_pair_table` of the sweep, or its row 0 alone: D(a, b)
    at the pairs a < b that have room after b for m - 2 more members,
    _NO_PAIR elsewhere; `least[r]` is the minimum D over all r-subsets for
    every r < m (0 for r <= 1); `smaller` is the witness of size m - 1
    that `_upper_bound` extends to the bound U.

    Branch and bound: a subset S = (s_1 < ... < s_d) grows to its children
    S + {j}, s_d < j, with j small enough to leave room for the m - d - 1
    members still to come.  A child of size m is scored; a smaller child S
    of size c with D(S) > U - least[m - c] is dropped, with every subset
    that contains it.  That is exact: a minimizer H with prefix S is S plus
    m - c later words R, and D is superadditive over disjoint unions (see
    the module docstring), so D(S) + least[m - c] <= D(S) + D(R) <= D(H)
    <= U.  The roots are the pairs (a, b) with room after b for the m - 2
    other members and D(a, b) <= U - least[m - 2]: they are the prefixes of
    size 2, so the same rule admits them, and their D is the one the size-2
    step has scored.  With `closed` the caller hands only the pairs that
    hold index 0.

    D(S) = |S| n - sum_i t_i, where t_i is the largest symbol multiplicity
    at coordinate i.  A subset carries its t as a count lane: a pair's is
    1 + eq[a, b], and when j joins S its symbol's class at i becomes
    1 + sum_{h in S} eq[h, j]_i and no other class changes, so the child's
    t is the bytewise maximum of the parent's t and that count.  A count
    byte is at most m, so counts add as whole lanes with no carry between
    bytes, and the maxima are taken on the uint8 view of the same memory.
    sum_i t_i is, per lane, the top byte of x * 0x0101010101010101 (the
    running byte sums stay below 8m < 256, so no carry reaches it), summed
    over the lanes.  Padding bytes are 0 in `eq` and in `one`, so they add
    nothing.

    The walk is depth first: the root lanes are built one block of at most
    _BLOCK elements at a time, the children of a block of parents form one
    numpy block of at most _BLOCK elements (L lanes per child; one parent
    per block if its children alone are more), and the kept ones are walked
    before the next block, so each depth holds one block and memory stays
    O(m^2 * _BLOCK) however many subsets survive.  Children are laid out
    parent by parent and j ascending, so the walk meets the m-subsets in
    lexicographic order: a block's first maximum of sum_i t_i is its
    smallest minimizer, and a later block replaces the best only with a
    strictly smaller D.
    """
    L, M, _ = eq.shape
    one = eq[:, 0, 0][:, None]  # 1 in every real byte, 0 in padding
    n = int(one.view(np.uint8).sum())
    flat = eq.reshape(L, M * M)
    bound = _upper_bound(eq, smaller, one, n)
    step = max(1, _BLOCK // L)  # children per block
    best, scored = None, 0

    def extend(members, t):
        # members[:, p] is parent p's index tuple, t[:, p] its count lane
        nonlocal best, scored
        d, last = len(members), members[-1]
        # children S + {j}, last < j <= M - m + d: room for m - d - 1 more members
        width = M - m + d - last
        ends = width.cumsum()
        lo = 0
        while lo < len(last):
            hi = max(lo + 1, int(ends.searchsorted(ends[lo] - width[lo] + step, "right")))
            w = width[lo:hi]
            cum = w.cumsum()
            # column p of the block is the child (members[:, lo + r], p - shift[r])
            shift = cum - w - last[lo:hi] - 1
            pos = np.arange(int(cum[-1]))
            first, *rest = members[:, lo:hi] * M - shift
            count = one + flat.take(pos + first.repeat(w), 1)
            for h in rest:
                count += flat.take(pos + h.repeat(w), 1)
            top = t[:, lo:hi].repeat(w, 1)
            score = _lane_max_sum(top, count)
            if d + 1 == m:
                scored += len(pos)
                a = int(score.argmax())
                r = int(cum.searchsorted(a, "right"))
                dis = m * n - int(score[a])
                if best is None or dis < best[0]:
                    best = (dis, tuple(members[:, lo + r].tolist()) + (a - int(shift[r]),))
            else:
                dis = (d + 1) * n - score.astype(np.int64)
                keep = (dis <= bound - least[m - d - 1]).nonzero()[0]
                r = cum.searchsorted(keep, "right")
                kids = np.empty((d + 1, len(keep)), dtype=members.dtype)
                kids[:d] = members[:, lo:hi].take(r, 1)
                kids[d] = keep - shift[r]
                extend(kids, top.take(keep, 1))
            lo = hi

    # the roots' flat indices a * M + b in the table, in lexicographic order
    roots = (pairs <= bound - least[m - 2]).ravel().nonzero()[0]
    for lo in range(0, len(roots), step):
        ab = roots[lo:lo + step]
        extend(np.array(np.divmod(ab, M)), one + flat.take(ab, 1))
    return SubsetWitness(m, best[1], best[0], scored)


def epsilon_min(
    witnesses: dict[int, SubsetWitness], n: int, delta0: Fraction
) -> tuple[Fraction, SubsetWitness]:
    """Smallest eps for which every subset satisfies
    D(H)/n >= (|H|-1)(delta0 - eps), clamped below at 0, and the witness
    that sets it: of the (nonempty) witnesses, the least D/(|H| - 1), on
    ties the first (smallest) size's, reported even when eps is 0."""
    worst = min(witnesses.values(), key=lambda w: Fraction(w.disagreement_count, w.size - 1))
    eps = delta0 - Fraction(worst.disagreement_count, n * (worst.size - 1))
    return max(Fraction(0), eps), worst

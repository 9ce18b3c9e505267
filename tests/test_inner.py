"""Average-radius list-decodability verification and inner-code search."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aelcert import (
    ERASED,
    AELCode,
    LinearCode,
    complete_bipartite,
    exhaustive_arld_check,
    frs_as_linear_code,
    make_field,
    make_folded_rs,
    min_arld_slack,
    plurality_center,
    sample_random_linear_code,
    search_inner_code,
)
from aelcert import arld, inner
from aelcert.arld import (
    MAX_SUBSET_SIZE,
    SubsetWitness,
    _NO_PAIR,
    _byte_sum,
    _equality_lanes,
    _pair_table,
    _upper_bound,
    epsilon_min,
    intern_symbols,
    key_ids,
    min_disagreement_by_size,
    pair_disagreements,
    subset_search_count,
    symbol_keys,
    translation_closed,
)
from aelcert.errors import FieldMismatch, Mismatch, SearchExhausted, TooLarge
from instances import InternedBlockCode, pairwise_min_distance
from aelcert.inner import BlockCode, FoldedRSCode
from aelcert.outer import RSOuterCode
from aelcert.seeds import derive_seed


# -- plurality center oracle ------------------------------------------------------


def test_plurality_single_codeword():
    center, contribs = plurality_center([(1, 0, 1)])
    assert center == (1, 0, 1)
    assert contribs == [0, 0, 0]


def test_plurality_three_words():
    h = [(0, 0, 0), (1, 1, 0), (1, 0, 1)]
    center, contribs = plurality_center(h)
    assert center == (1, 0, 0)
    assert contribs == [1, 1, 1]
    assert sum(contribs) == 3  # min total disagreements over all centers


def test_plurality_tie_breaks_low():
    center, contribs = plurality_center([(0, 0, 0), (1, 1, 1)])
    assert center == (0, 0, 0)
    assert sum(contribs) == 3  # one disagreement per coordinate


def test_plurality_empty_raises():
    with pytest.raises(Mismatch, match="plurality of an empty set"):
        plurality_center([])


def test_plurality_is_globally_optimal():
    # cross-check against the sweep over all centers, for every subset of a
    # small codebook
    rng = np.random.default_rng(5)
    words = [tuple(int(x) for x in rng.integers(0, 3, 4)) for _ in range(6)]
    for m in (2, 3, 4):
        for idx in combinations(range(6), m):
            subset = [words[i] for i in idx]
            center, contribs = plurality_center(subset)
            best = min(
                sum(sum(1 for a, b in zip(g, h) if a != b) for h in subset)
                for g in product(range(3), repeat=4)
            )
            assert sum(contribs) == best


# -- subset minimization ----------------------------------------------------------


def test_subset_search_count():
    assert subset_search_count(4, 3) == 6 + 4
    assert subset_search_count(16, 4) == 120 + 560 + 1820


def test_subset_cap_enforced():
    sym = np.zeros((100, 4), dtype=np.int64)
    with pytest.raises(TooLarge, match="subsets to evaluate .* exceed cap 1000"):
        min_disagreement_by_size(sym, 4, subset_cap=1000)


def test_subset_cap_bounds_the_evaluated_subsets(gf2):
    # GF(2)^4 is a group: 2500 subsets covered at k = 4, 680 evaluated
    code = BlockCode(list(product(range(2), repeat=4)), field=gf2)
    assert subset_search_count(16, 4) == 2500
    assert subset_search_count(16, 4, closed=True) == 680
    free = min_arld_slack(code, 4, Fraction(1, 2))
    capped = min_arld_slack(code, 4, Fraction(1, 2), subset_cap=1000)
    assert capped.reduction == "translation"
    assert capped.min_disagreements_by_size == free.min_disagreements_by_size
    assert capped.witness_indices == free.witness_indices
    with pytest.raises(TooLarge, match="680 .*2500"):
        min_arld_slack(code, 4, Fraction(1, 2), subset_cap=679)


def test_pair_disagreements_matches_pairwise_counts():
    rng = np.random.default_rng(4)
    sym = rng.integers(0, 3, size=(9, 7))
    dist = pair_disagreements(sym)
    assert dist.dtype == np.uint8 and dist.shape == (9, 9)
    for i in range(9):
        for j in range(9):
            assert dist[i, j] == sum(1 for a, b in zip(sym[i], sym[j]) if a != b)
    # at n = 256 a uint8 count of two words that differ everywhere would wrap to 0
    wide = pair_disagreements(np.arange(512).reshape(2, 256))
    assert wide.dtype == np.int64 and wide[0, 1] == 256


@st.composite
def _nested_symbols(draw):
    """q, and 2..12 symbols of one width w over [0, q): tuples drawn so that
    many coincide or share a prefix, with w large enough at times that
    q^w >= 2^63 and a symbol takes several keys."""
    q = draw(st.sampled_from([2, 3, 4, 16, 17, 256]))
    w = draw(st.integers(1, 70))
    base = draw(st.tuples(*[st.integers(0, q - 1)] * w))
    symbols = []
    for _ in range(draw(st.integers(2, 12))):
        cut = draw(st.integers(0, w))
        tail = draw(st.tuples(*[st.sampled_from([0, 1, q - 1])] * (w - cut)))
        symbols.append(base[:cut] + tail)
    return q, symbols


@given(case=_nested_symbols())
# binary (1, 0) and (0, 1): weights in base q - 1 = 1 give both the key 1
@example(case=(2, [(1, 0), (0, 1)]))
@settings(max_examples=300, deadline=None)
def test_symbol_keys_match_tuple_equality_and_order(case):
    q, symbols = case
    keys = symbol_keys(np.array(symbols, dtype=np.int64), q)
    ids = key_ids(keys)
    assert keys.min() >= 0
    rows = [tuple(r) for r in keys.tolist()]
    for a, b in combinations(range(len(symbols)), 2):
        sa, sb = symbols[a], symbols[b]
        assert (rows[a] == rows[b]) == (ids[a] == ids[b]) == (sa == sb)
        assert (rows[a] < rows[b]) == (ids[a] < ids[b]) == (sa < sb)


def test_symbol_keys_pack_up_to_2_63_per_key():
    # 63 // ceil(log2 q) entries share a key: 63 binary entries, 31 over GF(4)
    for q, e in ((2, 63), (4, 31), (3, 31), (17, 12), (256, 7)):
        top = np.full(e, q - 1)
        assert symbol_keys(top, q).tolist() == [q**e - 1]
        assert symbol_keys(np.append(top, 1), q).tolist() == [q**e - 1, 1]
    assert symbol_keys(np.array([[1, 0, 2], [0, 3, 3]]), 4).tolist() == [[18], [15]]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
def test_pair_counts_from_the_lanes_match_pair_disagreements(n):
    rng = np.random.default_rng(derive_seed(n, "lane-pairs"))
    words = [tuple(w) for w in rng.integers(0, 3, size=(40, n)).tolist()]
    sym = intern_symbols(words)[0]
    assert np.array_equal(n - _byte_sum(_equality_lanes(sym)), pair_disagreements(sym))
    from_lanes = min_disagreement_by_size(sym, 3)[2]
    assert from_lanes == min_disagreement_by_size(sym, 2)[2]  # read from pair_disagreements
    assert Fraction(from_lanes.disagreement_count, n) == pairwise_min_distance(words)


@pytest.mark.parametrize("M", [*range(2, 41), 300])
def test_pair_table_lists_the_pairs_in_triu_order(M):
    # the sweep reads its pairs off `_pair_table`: the entries a < b in the
    # order of np.triu_indices(M, 1), each holding its pair_disagreements
    # count, and the first least of them as the argmin
    rng = np.random.default_rng(derive_seed(M, "pair-table"))
    sym = rng.integers(0, 3, size=(M, 9))
    table = _pair_table(_equality_lanes(sym), 9)
    iu = np.triu_indices(M, 1)
    assert all(map(np.array_equal, (table < _NO_PAIR).nonzero(), iu))
    dist = pair_disagreements(sym)[iu]
    assert np.array_equal(table[iu], dist)
    first = int(dist.argmin())
    assert divmod(int(table.argmin()), M) == (iu[0][first], iu[1][first])


def _subset_disagreements(sym, k):
    """D of every subset of 1..k rows of `sym`, index tuple -> D, from the
    plurality centers; sizes ascend and each size is in index order."""
    rows = [tuple(r) for r in sym]
    return {idx: sum(plurality_center([rows[i] for i in idx])[1])
            for m in range(1, k + 1) for idx in combinations(range(len(rows)), m)}


def _search_generic(dis, m):
    """Reference for the kernel: the least D over the m-subsets of
    `_subset_disagreements`, and the first minimizer in index order."""
    first = min((idx for idx in dis if len(idx) == m), key=dis.__getitem__)
    return SubsetWitness(m, first, dis[first])


def _bound_oracle(dis, m):
    """U = min_x D(W + {x}) over the words x outside the first
    (m-1)-minimizer W of `_subset_disagreements`."""
    M = sum(1 for idx in dis if len(idx) == 1)
    W = _search_generic(dis, m - 1).indices
    return min(dis[tuple(sorted(W + (x,)))] for x in range(M) if x not in W)


def _scored_oracle(dis, m, closed=False, look_ahead=True):
    """How many m-subsets the kernel scores: those (holding index 0 with
    `closed`) whose every prefix S of size c in 2..m-1 has D(S) <= U -
    least[c], U the `_bound_oracle`, and least[c] the least D over (m -
    c)-subsets (0 throughout without `look_ahead`, the rule D(S) <= U
    alone)."""
    U = _bound_oracle(dis, m)
    least = {c: _search_generic(dis, m - c).disagreement_count
             if look_ahead and m - c > 1 else 0 for c in range(2, m)}
    return sum(1 for idx in dis if len(idx) == m and (idx[0] == 0 or not closed)
               and all(dis[idx[:c]] <= U - least[c] for c in range(2, m)))


def _assert_kernel_matches_oracle(words, k, closed=False):
    sym, _ = intern_symbols(words)
    got = min_disagreement_by_size(sym, k, closed=closed)
    assert sorted(got) == list(range(2, min(k, len(words)) + 1))
    dis = _subset_disagreements(sym, min(k, len(words)))
    eq = _equality_lanes(sym)
    for m in got:
        ref = _search_generic(dis, m)
        if m > 2:  # the bound the kernel extends from the (m-1)-witness
            assert _upper_bound(eq, got[m - 1], eq[:, 0, 0][:, None], sym.shape[1]) \
                == _bound_oracle(dis, m)
        assert got[m].disagreement_count == ref.disagreement_count
        # the witness is the lexicographically smallest minimizer
        assert got[m].indices == ref.indices
        # the kernel scores exactly the subsets its pruning rule admits
        assert got[m].scored == (comb(len(words), 2) if m == 2 else _scored_oracle(dis, m, closed))
    return got


def test_vectorized_search_matches_generic_oracle():
    # the vectorized scans must agree with direct plurality enumeration
    # over every subset, on the minimum and on the witness
    rng = np.random.default_rng(11)
    for trial in range(5):
        words = [tuple(int(x) for x in rng.integers(0, 4, 5)) for _ in range(9)]
        _assert_kernel_matches_oracle(list(dict.fromkeys(words)), 5)
    # tie-heavy: every binary word of length 4, many subsets share a minimum
    _assert_kernel_matches_oracle(list(product(range(2), repeat=4)), 5)
    # (1, 2, 3, 4) and (0, 3, 4, 5) both attain the m=4 minimum; a scan that
    # keeps the first minimum in its own order reports the former
    _assert_kernel_matches_oracle(
        [(0, 0, 0, 1), (0, 1, 2, 2), (1, 1, 1, 2), (2, 1, 0, 1), (1, 0, 0, 2),
         (2, 0, 1, 0), (2, 2, 1, 2)],
        4,
    )


def test_kernel_matches_oracle_on_lanes_and_edges(gf2):
    rng = np.random.default_rng(21)
    # two and three byte lanes
    for n in (9, 17):
        words = [tuple(int(x) for x in rng.integers(0, 3, n)) for _ in range(11)]
        _assert_kernel_matches_oracle(words, 5)
    # a GF(2)-linear word set two lanes long, translation-reduced
    words = sample_random_linear_code(gf2, 9, 4, np.random.default_rng(5)).enumerate_codewords()
    assert translation_closed(words, gf2)
    _assert_kernel_matches_oracle(words, 5, closed=True)
    # M == m: one subset of the largest size, with and without `closed`
    for M in (3, 4, 5):
        _assert_kernel_matches_oracle(words[:M], M)
    assert translation_closed(words[:4], gf2)
    _assert_kernel_matches_oracle(words[:4], 4, closed=True)


def test_kernel_keeps_a_minimizer_whose_prefix_is_at_the_bound():
    # a, b, a, c, e: W = (0, 2) is the pair witness, D = 0, so the bound at
    # m = 3 is U = D(a, a, b) = 2.  The only minimizer is (0, 1, 2), D = 2,
    # and its prefix (0, 1) has D = 2 = U: a prune on D >= U would lose it
    a, b = (0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)
    c, e = (2, 2, 2, 2, 0, 0), (0, 0, 1, 1, 1, 1)
    got = _assert_kernel_matches_oracle([a, b, a, c, e], 5)
    sym, _ = intern_symbols([a, b, a, c, e])
    assert got[2].indices == (0, 2) and got[2].disagreement_count == 0
    assert got[3].indices == (0, 1, 2) and got[3].disagreement_count == 2
    assert pair_disagreements(sym)[0, 1] == 2
    assert got[3].scored < subset_search_count(5, 3) - subset_search_count(5, 2)


# the only m = 4 minimizer is (0, 2, 4, 5), D = 3; the m = 3 witness
# (0, 2, 5) extends to U = 3, and the least pair D is 1
_LOOK_AHEAD_WORDS = [(0, 1, 0, 0), (1, 1, 1, 0), (0, 0, 0, 1),
                     (1, 0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 0)]


def test_kernel_keeps_a_minimizer_whose_prefixes_meet_the_look_ahead_bound():
    # the root (0, 2) has D(0, 2) + least_2 = 2 + 1 = U, and the prefix
    # (0, 2, 4) has D = 3 = U - least_1: a prune on D(pair) + least_2 >= U,
    # on least_2 + 1 or on D(triple) >= U loses the only minimizer
    got = _assert_kernel_matches_oracle(_LOOK_AHEAD_WORDS, 4)
    dis = _subset_disagreements(intern_symbols(_LOOK_AHEAD_WORDS)[0], 4)
    assert got[4].indices == (0, 2, 4, 5) and got[4].disagreement_count == 3
    assert [idx for idx in dis if len(idx) == 4 and dis[idx] == 3] == [(0, 2, 4, 5)]
    assert got[3].indices == (0, 2, 5)
    assert min(dis[tuple(sorted((0, 2, 5, x)))] for x in (1, 3, 4)) == 3
    assert got[2].disagreement_count == 1
    assert dis[0, 2] + 1 == 3 and dis[0, 2, 4] == 3


def test_look_ahead_drops_a_pair_the_distance_bound_keeps():
    # pairs (0, 3) and (2, 3) have D = 3 = U, so the rule D <= U alone
    # starts from them and scores (0, 3, 4, 5) and (2, 3, 4, 5); every
    # quadruple through them has D >= 3 + least_2 = 4 > U, so the
    # look-ahead drops them, and the minimum and witness stay the oracle's
    sym = intern_symbols(_LOOK_AHEAD_WORDS)[0]
    dis = _subset_disagreements(sym, 4)
    assert dis[0, 3] == dis[2, 3] == 3 and dis[0, 3, 4] == dis[2, 3, 4] == 3
    got = _assert_kernel_matches_oracle(_LOOK_AHEAD_WORDS, 4)
    assert got[4] == _search_generic(dis, 4)
    assert got[4].scored == _scored_oracle(dis, 4) == 5
    assert _scored_oracle(dis, 4, look_ahead=False) == 7


@pytest.mark.parametrize("seed", range(4))
def test_disagreement_is_superadditive_over_disjoint_subsets(seed):
    # maxcount_i(S + R) <= maxcount_i(S) + maxcount_i(R), so
    # D(S + R) >= D(S) + D(R): the look-ahead bound of the subset kernel
    rng = np.random.default_rng(derive_seed(seed, "superadditive"))
    q, n = 2 + seed % 3, 3 + seed
    words = [tuple(r) for r in rng.integers(0, q, size=(8, n)).tolist()]
    dis = _subset_disagreements(intern_symbols(words)[0], 5)
    tight = 0
    for union in (idx for idx in dis if len(idx) >= 2):
        for size in range(1, len(union)):
            for S in combinations(union, size):
                R = tuple(i for i in union if i not in S)
                assert dis[union] >= dis[S] + dis[R]
                tight += dis[union] == dis[S] + dis[R]
    assert tight > 0


def test_kernel_scores_every_subset_when_nothing_prunes():
    # every D is 0, so the bound is 0 and no subset exceeds it
    words = [(1, 2, 0)] * 7
    got = _assert_kernel_matches_oracle(words, 5)
    for m in (3, 4, 5):
        assert got[m].indices == tuple(range(m))
        assert got[m].scored == subset_search_count(7, m) - subset_search_count(7, m - 1)


def test_kernel_prunes_on_acceptance_words(acceptance):
    # AC4 at m = 4, translation-reduced: the minimum is 19, and fewer than
    # 4% of the C(255, 3) quadruples {0, a, b, c} are scored
    words = acceptance["ac4"]["ael"].enumerate_codewords()
    sym, _ = intern_symbols(words)
    got = min_disagreement_by_size(sym, 4, closed=True)
    assert got[4].disagreement_count == 19
    assert got[4].scored * 25 < comb(255, 3)


@pytest.mark.parametrize("block", [1, 20, 100])
def test_kernel_witness_does_not_depend_on_the_blocking(monkeypatch, gf2, block):
    # L = 1 lane, so a block holds at most `block` children, or the children
    # of one parent where those are more.  On the 16 binary words of length 4
    # at m = 5, the 16 minimizers fall in 16 leaf blocks at 1 and at 20 and
    # in 13 at 100; translation-reduced, the 5 that hold word 0 fall in 5,
    # 5 and 4 blocks.  So tied minima always meet in different blocks
    monkeypatch.setattr(arld, "_BLOCK", block)
    words = list(product(range(2), repeat=4))
    _assert_kernel_matches_oracle(words, 5)
    _assert_kernel_matches_oracle(words, 5, closed=True)
    rng = np.random.default_rng(block)
    _assert_kernel_matches_oracle(
        [tuple(int(x) for x in rng.integers(0, 2, 17)) for _ in range(10)], 5)


@st.composite
def _small_word_lists(draw):
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, 20))  # one to three byte lanes, with padding
    word = st.tuples(*[st.integers(0, q - 1)] * n)
    return draw(st.lists(word, min_size=2, max_size=10))


@given(words=_small_word_lists(), k=st.integers(2, 5))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_oracle_on_random_word_lists(words, k):
    _assert_kernel_matches_oracle(words, k)


# -- translation-reduced sweep ------------------------------------------------------


def test_reduced_kernel_matches_oracle_on_closed_sets(gf2, gf4):
    # the full sweep's minima and lexicographically smallest witnesses,
    # from the subsets that contain index 0 only
    words = list(product(range(2), repeat=4))
    assert translation_closed(words, gf2)
    _assert_kernel_matches_oracle(words, 5, closed=True)
    # word 0 need not be the zero word
    assert translation_closed(words[::-1], gf2)
    _assert_kernel_matches_oracle(words[::-1], 5, closed=True)
    gf5 = make_field(5, 1)
    frs_words = make_folded_rs(gf5, 2, 2, Fraction(1, 2)).enumerate_codewords()
    assert translation_closed(frs_words, gf5)
    _assert_kernel_matches_oracle(frs_words, 4, closed=True)
    # words longer than one byte lane: two full lanes, three with padding
    for field, length, dim in [(gf2, 16, 4), (gf4, 17, 2), (gf4, 10, 2)]:
        words = sample_random_linear_code(
            field, length, dim, np.random.default_rng(7)).enumerate_codewords()
        assert translation_closed(words, field)
        _assert_kernel_matches_oracle(words, 5, closed=True)


def test_subset_size_beyond_the_byte_lanes_fails_closed(monkeypatch):
    # 32 members can make a lane's byte sum 256: refused before any work,
    # even with a cap that admits the 2**32 - 33 subsets
    def no_work(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(arld, "pair_disagreements", no_work)
    monkeypatch.setattr(arld, "_equality_lanes", no_work)
    words = list(product(range(2), repeat=5))
    assert subset_search_count(32, 32) < 10**10
    sym, _ = intern_symbols(words)
    with pytest.raises(TooLarge, match=f"byte-lane limit {MAX_SUBSET_SIZE}"):
        min_disagreement_by_size(sym, 32, subset_cap=10**10)
    with pytest.raises(TooLarge, match=f"byte-lane limit {MAX_SUBSET_SIZE}"):
        min_arld_slack(words, 32, Fraction(1, 2), subset_cap=10**10)
    assert MAX_SUBSET_SIZE == 31 and 8 * MAX_SUBSET_SIZE < 256


@st.composite
def _shuffled_linear_codes(draw):
    p, m, max_dim = draw(st.sampled_from([(2, 1, 4), (3, 1, 2), (2, 2, 2)]))
    field = make_field(p, m)
    dim = draw(st.integers(1, max_dim))
    length = draw(st.integers(dim, 5))
    code = sample_random_linear_code(
        field, length, dim, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    words = code.enumerate_codewords()
    order = draw(st.permutations(range(len(words))))
    return [words[i] for i in order], field


@given(code=_shuffled_linear_codes(), k=st.integers(3, 4))
@settings(max_examples=100, deadline=None)
def test_reduced_kernel_matches_oracle_on_random_linear_codes(code, k):
    words, field = code
    assert translation_closed(words, field)
    _assert_kernel_matches_oracle(words, k, closed=True)


@pytest.mark.parametrize("key,words_of,k", [
    ("ac1", lambda inst: inst["code"].enumerate_codewords(), 4),
    ("ac4", lambda inst: inst["ael"].enumerate_codewords(), 3),
], ids=["ac1-k4", "ac4-k3"])
def test_reduced_sweep_matches_full_sweep_on_acceptance_words(acceptance, key, words_of, k):
    words = words_of(acceptance[key])
    sym, _ = intern_symbols(words)
    reduced = min_disagreement_by_size(sym, k, closed=True)
    full = min_disagreement_by_size(sym, k)
    assert reduced == full


def test_translation_closed_rejects_non_groups(gf4):
    code = sample_random_linear_code(gf4, 4, 2, np.random.default_rng(3))
    words = code.enumerate_codewords()
    assert translation_closed(words, gf4)
    assert not translation_closed(words[:5] + words[6:], gf4)  # one word removed
    shift = next(v for v in product(range(4), repeat=4) if v not in words)
    coset = [tuple(gf4.add(a, b) for a, b in zip(w, shift)) for w in words]
    assert not translation_closed(coset, gf4)  # a nonzero coset w + C
    assert not translation_closed(words + [words[3]], gf4)  # a repeated word
    assert not translation_closed(words + words, gf4)  # every word twice
    assert not translation_closed(words, None)
    # closed under XOR of integers, but 2 and 3 are not elements of GF(2)
    assert not translation_closed([(0,), (1,), (2,), (3,)], make_field(2, 1))


def test_translation_closed_on_nested_and_odd_characteristic_symbols(gf17):
    # base-p digits: GF(9) has two digits per symbol, FRS symbols are tuples
    gf9 = make_field(3, 2)
    words = sample_random_linear_code(gf9, 3, 1, np.random.default_rng(5)).enumerate_codewords()
    assert translation_closed(words, gf9)
    assert not translation_closed(words[1:], gf9)
    frs_words = make_folded_rs(gf17, 2, 4, Fraction(1, 4)).enumerate_codewords()
    assert translation_closed(frs_words, gf17)
    assert not translation_closed(frs_words[:-1], gf17)
    shifted = [((w[0][0], (w[0][1] + 1) % 17),) + w[1:] for w in frs_words]
    assert not translation_closed(shifted, gf17)


def test_translation_closed_on_a_subgroup_of_gf4():
    # {0, 1} is the prime subfield GF(2) inside GF(4): closed under addition
    assert translation_closed([(0,), (1,)], make_field(2, 2))


def _flatten(w):
    return tuple(x for s in w for x in (s if isinstance(s, tuple) else (s,)))


def _closure_oracle(words, field) -> bool:
    """Brute force: the words are distinct, every symbol is in [0, q), and
    every digit-wise sum a + b of two words is again a word."""
    flat = [_flatten(w) for w in words]
    if field is None or not flat or len(set(flat)) != len(flat):
        return False
    if any(not 0 <= x < field.q for w in flat for x in w):
        return False
    members = set(flat)
    return all(
        tuple(field.add(x, y) for x, y in zip(a, b)) in members for a in flat for b in flat
    )


@st.composite
def _perturbed_word_sets(draw):
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    field = make_field(p, m)
    length = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # a random GF(q)-linear code
        dim = draw(st.integers(1, min(length, {2: 4, 3: 2, 4: 2, 9: 1}[field.q])))
        words = sample_random_linear_code(field, length, dim, rng).enumerate_codewords()
    else:  # the GF(p)-span of random vectors: additive, often not GF(q)-linear
        gens = rng.integers(0, field.q, size=(draw(st.integers(1, 2)), length)).tolist()
        words = {(0,) * length}
        for g in gens:
            for _ in range(p - 1):
                words |= {tuple(field.add(x, y) for x, y in zip(w, g)) for w in words}
        words = sorted(words)
    words = list(words)
    kind = draw(st.sampled_from(["none", "drop", "add", "coset", "subset", "duplicate"]))
    i = int(rng.integers(len(words)))
    extra = tuple(int(x) for x in rng.integers(0, field.q, size=length))
    if kind == "drop":
        words.pop(i)
    elif kind == "add":
        words.append(extra)
    elif kind == "coset":
        words = [tuple(field.add(x, y) for x, y in zip(w, extra)) for w in words]
    elif kind == "subset":
        words = [w for w in words if rng.random() < 0.5] or words[:1]
    elif kind == "duplicate":
        words.append(words[i])
    if draw(st.booleans()):  # nested symbols, as in AEL and FRS words
        words = [tuple(w[j:j + 2] for j in range(0, length, 2)) for w in words]
    return [words[j] for j in rng.permutation(len(words))], field


@given(case=_perturbed_word_sets())
@settings(max_examples=300, deadline=None)
def test_translation_closed_matches_closure_oracle(case):
    words, field = case
    assert translation_closed(words, field) == _closure_oracle(words, field)


def _all_pairs_closure_oracle(words, field) -> bool:
    """`_closure_oracle` in numpy for word sets of AEL size: every sum of two
    words, digit by digit in base p, is looked up among the words."""
    vals = np.array([_flatten(w) for w in words], dtype=np.int64)
    if vals.min() < 0 or vals.max() >= field.q:
        return False
    members = {row.tobytes() for row in vals}
    if len(members) != len(vals):
        return False
    place = field.p ** np.arange(field.m)
    digits = vals[..., None] // place % field.p
    sums = ((digits[:, None] + digits[None, :]) % field.p * place).sum(-1)
    return all(row.tobytes() in members for row in sums.reshape(-1, vals.shape[1]))


@pytest.mark.parametrize("which", ["ac3", "ac4"])
@pytest.mark.parametrize("change", ["none", "drop-zero", "drop-one", "coset", "duplicate"])
def test_translation_closed_matches_all_pairs_oracle_on_ael_words(acceptance, which, change):
    # the AC4 word set, and the AC3 one, which has the shape of the CLI
    # pipeline's bundle: 256 words of n = 12 folded GF(4) symbols
    code = acceptance[which]["ael"]
    words, field = list(code.enumerate_codewords()), code.field
    rng = np.random.default_rng(derive_seed(2024, "closure", which, change))
    if change.startswith("drop"):
        words.pop(0 if change == "drop-zero" else int(rng.integers(1, len(words))))
    elif change == "coset":  # plus a vector that is not a codeword
        shift = rng.integers(0, field.q, size=(code.n, code.d))
        words = [tuple(tuple(field.add(x, int(y)) for x, y in zip(s, v)) for s, v in zip(w, shift))
                 for w in words]
    elif change == "duplicate":
        words.append(words[int(rng.integers(len(words)))])
    expected = _all_pairs_closure_oracle(words, field)
    assert expected == (change == "none")
    assert translation_closed(words, field) == expected


def test_certificate_reports_the_reduction(gf4):
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    words = code.enumerate_codewords()
    reduced = min_arld_slack(code, k=4, delta0=Fraction(3, 4))
    full = min_arld_slack(words, k=4, delta0=Fraction(3, 4))
    assert reduced.reduction == "translation" and full.reduction == "none"
    assert reduced.subsets_examined == full.subsets_examined == subset_search_count(16, 4)
    assert reduced.subsets_evaluated == 120 + 105 + 455
    assert full.subsets_evaluated == full.subsets_examined
    assert (reduced.eps_min, reduced.witness_indices, reduced.min_disagreements_by_size) == (
        full.eps_min, full.witness_indices, full.min_disagreements_by_size)


# -- min_arld_slack ---------------------------------------------------------------


def test_slack_repetition_code(gf2):
    code = LinearCode(gf2, [[1, 1, 1]])
    cert = min_arld_slack(code, k=2, delta0=1)
    assert cert.eps_min == 0
    assert cert.witness_disagreements == 3


def test_slack_k1_always_zero(gf4):
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    cert = min_arld_slack(code, k=1, delta0=1)
    assert cert.eps_min == 0


def test_slack_rs42(gf4):
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    cert = min_arld_slack(code, k=2, delta0=Fraction(3, 4))
    assert cert.eps_min == 0
    assert cert.witness_disagreements == 3  # min pairwise distance 3/4


def test_certificate_witness_reevaluates(gf4):
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    cert = min_arld_slack(code, k=3, delta0=Fraction(9, 10))
    assert cert.reevaluate(code) == cert.eps_min


def test_reevaluate_interns_no_word(gf4, monkeypatch):
    # the witness rows alone are read: a word list is not interned
    words = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]).enumerate_codewords()
    cert = min_arld_slack(words, k=3, delta0=Fraction(9, 10))

    def no_interning(words):
        raise AssertionError("reevaluate interned the words")

    monkeypatch.setattr(inner, "intern_symbols", no_interning)
    assert cert.reevaluate(words) == cert.eps_min


@pytest.mark.parametrize("indices", [(0, 16), (0, 1, 99), (-1, 0)])
def test_reevaluate_refuses_a_witness_index_the_words_lack(gf4, indices):
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    cert = replace(min_arld_slack(code, k=3, delta0=Fraction(9, 10)), witness_indices=indices)
    for words in (code, code.enumerate_codewords()):
        with pytest.raises(Mismatch, match="word indices"):
            cert.reevaluate(words)


@pytest.mark.parametrize("value", [0.1, True, "1/2", None, 1.0],
                         ids=["float", "bool", "string", "none", "integral-float"])
@pytest.mark.parametrize("parameter", ["delta0", "eps", "eps_target", "rho"])
def test_exact_parameters_refuse_inexact_values(gf4, gf17, parameter, value):
    # 0.1 would certify against 3602879701896397/36028797018963968
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    calls = {
        "delta0": [lambda: min_arld_slack(code, 3, value),
                   lambda: exhaustive_arld_check(code, 2, value, 0),
                   lambda: search_inner_code(gf4, 4, 2, 2, value, 0, seed=1, max_tries=1)],
        "eps": [lambda: exhaustive_arld_check(code, 2, 1, value)],
        "eps_target": [lambda: search_inner_code(gf4, 4, 2, 2, 1, value, seed=1, max_tries=1)],
        "rho": [lambda: FoldedRSCode(gf17, 2, 4, value)],
    }[parameter]
    for call in calls:
        with pytest.raises(ValueError, match=f"{parameter}: expected a Fraction or an integer"):
            call()


@pytest.mark.parametrize("k", [True, 2.5, "3", np.float64(3)])
def test_certifiers_refuse_a_k_that_is_not_an_integer(gf4, k):
    # k = True once gave an empty certificate that load_certificate refused,
    # and k = 2.5 a bare TypeError
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    for call in (lambda: min_arld_slack(code, k, 1),
                 lambda: exhaustive_arld_check(code, k, 1, 0)):
        with pytest.raises(ValueError, match="k: expected an integer"):
            call()


def test_exact_parameters_take_numpy_integers(gf4):
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    cert = min_arld_slack(code, np.int64(3), np.int64(1))
    assert cert == replace(min_arld_slack(code, 3, Fraction(1)),
                           runtime_seconds=cert.runtime_seconds)
    assert isinstance(cert.k, int) and isinstance(cert.delta0, Fraction)


@pytest.mark.parametrize("words", [[], [(0, 1), (1, 0, 1)], [(0, 1, 1), (1, 0)]],
                         ids=["empty", "longer-second", "shorter-second"])
@pytest.mark.parametrize("certifier", ["min_arld_slack", "exhaustive", "reevaluate"])
def test_certifiers_refuse_empty_and_ragged_word_lists(gf2, words, certifier):
    cert = min_arld_slack(LinearCode(gf2, [[1, 1]]), k=2, delta0=Fraction(1, 2))
    run = {
        "min_arld_slack": lambda: min_arld_slack(words, 3, Fraction(1, 2)),
        "exhaustive": lambda: exhaustive_arld_check(words, 2, Fraction(1, 2), Fraction(0)),
        "reevaluate": lambda: cert.reevaluate(words),
    }[certifier]
    with pytest.raises(Mismatch, match="all of one length"):
        run()


def test_epsilon_min_clamps_at_zero():
    from aelcert.arld import SubsetWitness

    eps, worst = epsilon_min(
        {2: SubsetWitness(2, (0, 1), 10)}, n=4, delta0=Fraction(1, 2)
    )
    assert eps == 0
    assert worst is not None


def test_epsilon_min_reports_the_smallest_size_on_ties():
    from aelcert.arld import SubsetWitness

    # sizes 2 and 3 both meet delta0 = 1/2 exactly (eps 0), then both miss
    # it by 1/4
    for (d2, d3), eps in [((2, 4), 0), ((1, 2), Fraction(1, 4))]:
        got, worst = epsilon_min(
            {2: SubsetWitness(2, (0, 1), d2), 3: SubsetWitness(3, (0, 1, 2), d3)},
            n=4, delta0=Fraction(1, 2),
        )
        assert got == eps and worst.size == 2


# -- exhaustive oracle ------------------------------------------------------------


def test_exhaustive_pass_repetition(gf2):
    code = LinearCode(gf2, [[1, 1]])
    ok, witness = exhaustive_arld_check(code, k=2, delta0=1, eps=0)
    assert ok and witness is None


def test_exhaustive_fail_with_witness(gf2):
    code = LinearCode(gf2, [[1, 1]])
    ok, witness = exhaustive_arld_check(
        code, k=2, delta0=1, eps=Fraction(-1, 10)
    )
    assert not ok
    assert witness["lhs"] < witness["rhs"]
    assert len(witness["subset"]) >= 2


def test_exhaustive_all_erased_center_boundary(gf2):
    # s = 1: LHS is 0 and the bound is (m-1)(delta0 - 1 - eps) <= 0 whenever
    # delta0 <= 1 + eps, so the all-erased center can never be a witness there
    code = LinearCode(gf2, [[1, 1, 1]])
    ok, witness = exhaustive_arld_check(code, k=2, delta0=1, eps=0)
    assert ok
    # past it, S = {} fails first: the center h_1 gives a sum of at most
    # m - 1 < (m - 1)(delta0 - eps), so the witness erases nothing
    bad, witness = exhaustive_arld_check(code, k=2, delta0=2, eps=0)
    assert not bad
    assert ERASED not in witness["center"]
    assert (witness["lhs"], witness["rhs"]) == (1, 2)


def test_exhaustive_center_cap_fails_closed(gf2, monkeypatch):
    # with no erasure the sweep enumerates 2^2 centers of a length-2 code
    code = LinearCode(gf2, [[1, 1]])
    monkeypatch.setattr(inner, "CENTER_CAP", 4)
    assert exhaustive_arld_check(code, k=2, delta0=1, eps=0) == (True, None)
    monkeypatch.setattr(inner, "CENTER_CAP", 3)
    with pytest.raises(TooLarge, match="centers exceed cap 3"):
        exhaustive_arld_check(code, k=2, delta0=1, eps=0)


def test_oracle_agreement_random_instances(gf4):
    # verdicts of the plurality verifier and the literal sweep must match
    rng = np.random.default_rng(17)
    for trial in range(3):
        code = sample_random_linear_code(gf4, 4, 1, rng)
        for delta0, eps in [
            (Fraction(1, 2), Fraction(0)),
            (Fraction(3, 4), Fraction(1, 8)),
            (Fraction(1), Fraction(0)),
        ]:
            cert = min_arld_slack(code, k=3, delta0=delta0)
            fast_verdict = cert.eps_min <= eps
            slow_verdict, _ = exhaustive_arld_check(
                code, k=3, delta0=delta0, eps=eps
            )
            assert fast_verdict == slow_verdict


def test_erasure_monotonicity_small_instance(gf2):
    # slack(center, S) - slack(filled center, {}) = sum over S of
    # (maxcount_i - 1)/n >= 0, so erasures never make the bound harder
    code = LinearCode(gf2, [[1, 0, 1], [0, 1, 1]])
    words = code.enumerate_codewords()
    n = 3
    for m in (2, 3):
        for idx in combinations(range(len(words)), m):
            subset = [words[i] for i in idx]
            _, contribs = plurality_center(subset)
            min_full_slack = min(
                Fraction(
                    sum(sum(1 for a, b in zip(g, h) if a != b) for h in subset), n
                )
                - (m - 1) * Fraction(1)  # delta0 = 1, s = 0
                for g in product(range(2), repeat=n)
            )
            for r in range(n + 1):
                for s_set in combinations(range(n), r):
                    keep = [i for i in range(n) if i not in s_set]
                    s_frac = Fraction(r, n)
                    for partial in product(range(2), repeat=len(keep)):
                        lhs = Fraction(
                            sum(
                                sum(1 for i, p in zip(keep, partial) if h[i] != p)
                                for h in subset
                            ),
                            n,
                        )
                        slack = lhs - (m - 1) * (1 - s_frac)
                        assert slack >= min_full_slack


# -- random code sampling and search ----------------------------------------------


def test_sample_deterministic(gf8):
    c1 = sample_random_linear_code(gf8, 6, 2, np.random.default_rng(42))
    c2 = sample_random_linear_code(gf8, 6, 2, np.random.default_rng(42))
    assert c1.generator == c2.generator


def test_sample_shape():
    f16 = make_field(2, 4)
    code = sample_random_linear_code(f16, 6, 3, np.random.default_rng(0))
    assert code.n == 6 and code.dim == 3
    assert code.rate == Fraction(1, 2)


def test_random_code_calibration(gf8):
    # >= 90% of seeds should certify eps_min <= 1/6 at
    # delta0 = 1 - rate - 1/6 = 1/2, k = 3 (frozen after a 100-seed sweep
    # measuring 100%); spot-check a 20-seed slice here to keep runtime down
    good = 0
    for s in range(20):
        rng = np.random.default_rng(derive_seed(s, "calib-k3"))
        code = sample_random_linear_code(gf8, 6, 2, rng)
        cert = min_arld_slack(code, k=3, delta0=Fraction(1, 2))
        good += cert.eps_min <= Fraction(1, 6)
    assert good >= 18


def test_search_vacuous_target(gf8):
    code, cert = search_inner_code(
        gf8, 6, 2, k=3, delta0=Fraction(1, 2), eps_target=1, seed=0
    )
    assert cert.eps_min <= 1


def test_search_accepts_a_code_exactly_at_its_target(gf8):
    # the first try's code, asked for exactly its own eps_min
    rng = np.random.default_rng(derive_seed(5, "inner-search", 0))
    first = sample_random_linear_code(gf8, 6, 2, rng)
    eps_min = min_arld_slack(first, k=3, delta0=Fraction(1, 2)).eps_min
    code, cert = search_inner_code(
        gf8, 6, 2, k=3, delta0=Fraction(1, 2), eps_target=eps_min, seed=5, max_tries=1
    )
    assert code.generator == first.generator and cert.eps_min == eps_min


def test_search_impossible_target(gf8):
    with pytest.raises(SearchExhausted, match="no code with eps_min <= -1 in"):
        search_inner_code(
            gf8, 6, 2, k=3, delta0=Fraction(1, 2), eps_target=Fraction(-1),
            seed=0, max_tries=3,
        )


def test_sample_refuses_dim_above_length_before_any_draw(gf2):
    # no generator with more rows than columns has full row rank
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(Mismatch, match="^dim 5 > length 3: no generator has full row rank$"):
        sample_random_linear_code(gf2, 3, 5, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(Mismatch, match="dim 5 > length 3"):
        search_inner_code(gf2, 3, 5, k=2, delta0=Fraction(1, 2), eps_target=1, seed=0)


def test_sample_refuses_dim_zero(gf2):
    with pytest.raises(Mismatch, match="at least one row"):
        sample_random_linear_code(gf2, 3, 0, np.random.default_rng(0))


def test_search_deterministic(gf8):
    a1 = search_inner_code(
        gf8, 6, 2, k=4, delta0=Fraction(2, 3), eps_target=Fraction(1, 6), seed=9
    )
    a2 = search_inner_code(
        gf8, 6, 2, k=4, delta0=Fraction(2, 3), eps_target=Fraction(1, 6), seed=9
    )
    assert a1[0].generator == a2[0].generator
    assert a1[1].eps_min == a2[1].eps_min


# -- folded Reed-Solomon ----------------------------------------------------------


def test_frs_b1_is_plain_rs(gf17):
    frs = make_folded_rs(gf17, 1, 4, Fraction(1, 2))
    words = frs.enumerate_codewords()
    assert len(words) == 17**2
    # each folded symbol is a 1-tuple of a polynomial evaluation
    assert all(len(sym) == 1 for w in words for sym in w)


def test_frs_acceptance_instance(gf17):
    frs = make_folded_rs(gf17, 2, 4, Fraction(1, 4))
    assert frs.dim == 2
    assert frs.gamma == 3
    words = frs.enumerate_codewords()
    assert len(words) == 289
    assert len(set(words)) == 289


def test_frs_appropriateness_distinct_points(gf17):
    frs = make_folded_rs(gf17, 2, 4, Fraction(1, 4))
    points = {
        gf17.mul(gf17.pow(frs.gamma, i), a)
        for i in range(frs.b)
        for a in frs.alphas
    }
    assert len(points) == frs.b * frs.n


def test_frs_repeated_point_rejected(gf17):
    # alpha_1 = gamma * alpha_0 makes gamma^1*alpha_0 = gamma^0*alpha_1 collide
    with pytest.raises(Mismatch, match="collide"):
        make_folded_rs(gf17, 2, 4, Fraction(1, 4), alphas=[1, 3, 9, 13])


def test_frs_rate_above_one_rejected(gf17):
    # 17^6 messages cannot map injectively into the 17^4 words of length 2
    with pytest.raises(ValueError, match=r"\[1, bn = 4\]"):
        make_folded_rs(gf17, 2, 2, Fraction(3, 2))
    assert make_folded_rs(gf17, 2, 2, 1).dim == 4


@pytest.mark.parametrize("b,n,alphas,name", [
    (2, 4, [1.9, 2, 4, 8], "alphas"),
    (2.0, 4, [1, 2, 4, 8], "b"),
    (2, True, [1, 2, 4, 8], "n"),
    (2.0, 4, None, "b"),  # the default anchors are computed only after b is read
])
def test_frs_input_that_is_not_an_integer_rejected(gf17, b, n, alphas, name):
    with pytest.raises(ValueError, match=name):
        make_folded_rs(gf17, b, n, Fraction(1, 4), alphas=alphas)


@pytest.mark.parametrize("alphas", [[-1, 3, 5, 7], [20, 3, 5, 7], [True, 3, 5, 7]])
def test_frs_anchor_outside_the_field_rejected(gf17, alphas):
    with pytest.raises(FieldMismatch, match="alphas"):
        FoldedRSCode(gf17, 2, 4, Fraction(1, 4), alphas)


@pytest.mark.parametrize("alphas", [[1, 9, 13], [1, 9, 13, 15, 16]])
def test_frs_needs_one_anchor_per_folded_symbol(gf17, alphas):
    with pytest.raises(ValueError, match="one evaluation anchor per folded symbol"):
        FoldedRSCode(gf17, 2, 4, Fraction(1, 4), alphas)


def test_frs_reads_numpy_integers(gf17):
    frs = FoldedRSCode(gf17, np.int64(2), np.int32(4), Fraction(1, 4), np.array([1, 9, 13, 15]))
    assert frs.alphas == make_folded_rs(gf17, 2, 4, Fraction(1, 4)).alphas == (1, 9, 13, 15)
    assert all(type(x) is int for x in (frs.b, frs.n, *frs.alphas))


def _horner_frs_encode(frs, msg):
    """Oracle: evaluate the message polynomial (coefficients low to high)
    by Horner's rule at alpha_j, gamma*alpha_j, ..., gamma^{b-1}*alpha_j."""
    F, out = frs.field, []
    for a in frs.alphas:
        x, tup = a, []
        for _ in range(frs.b):
            acc = 0
            for c in reversed(msg):
                acc = F.add(F.mul(acc, x), c)
            tup.append(acc)
            x = F.mul(x, frs.gamma)
        out.append(tuple(tup))
    return tuple(out)


@pytest.mark.parametrize("p,m,b,n,rho", [
    (17, 1, 1, 4, Fraction(1, 2)), (17, 1, 2, 4, Fraction(1, 4)),
    (5, 1, 1, 4, Fraction(1, 2)), (5, 1, 2, 2, Fraction(1, 2)),
    (3, 2, 1, 4, Fraction(1, 2)), (3, 2, 2, 4, Fraction(1, 4)),
])
def test_frs_codewords_match_horner_oracle(p, m, b, n, rho):
    frs = make_folded_rs(make_field(p, m), b, n, rho)
    messages = list(product(range(frs.field.q), repeat=frs.dim))
    expected = [_horner_frs_encode(frs, msg) for msg in messages]
    assert frs.enumerate_codewords() == expected
    assert [frs.encode(msg) for msg in messages[::7]] == expected[::7]


def test_frs_field_too_small(gf4):
    with pytest.raises(Mismatch, match="q=4 < bn=8"):
        make_folded_rs(gf4, 2, 4, Fraction(1, 4))


def test_frs_folded_min_distance(gf17):
    # a nonzero difference polynomial of degree < 2 vanishes at no more than
    # one of the 8 distinct evaluation points, so no folded 2-tuple can ever
    # agree between distinct codewords: the folded distance is exactly 1
    block = frs_as_linear_code(make_folded_rs(gf17, 2, 4, Fraction(1, 4)))
    assert block.min_distance() == 1
    assert block.min_distance() >= Fraction(3, 4)


def test_frs_certificate(gf17):
    block = frs_as_linear_code(make_folded_rs(gf17, 2, 4, Fraction(1, 4)))
    cert = min_arld_slack(block, k=3, delta0=Fraction(3, 4))
    assert cert.eps_min == 0
    assert cert.min_disagreements_by_size == {2: 4, 3: 8}


def test_code_objects_certify_as_their_block_codes(gf17, acceptance):
    # a folded RS code (AC8) and an AEL code (AC3) certify as themselves: the
    # certificate is the one of the block code of their words and field
    frs, ael = make_folded_rs(gf17, 2, 4, Fraction(1, 4)), acceptance["ac3"]["ael"]
    for code, delta0 in ((frs, Fraction(3, 4)), (ael, Fraction(1, 2))):
        cert = min_arld_slack(code, 3, delta0)
        block = min_arld_slack(InternedBlockCode(code.enumerate_codewords(), code.field), 3, delta0)
        assert replace(cert, runtime_seconds=0) == replace(block, runtime_seconds=0)
        assert cert.witnesses == block.witnesses
        assert cert.reevaluate(code) == cert.eps_min
        assert cert.reduction == "translation"
    assert cert.subsets_evaluated == 65_025


def test_exhaustive_oracle_reads_code_objects(gf4):
    # the oracle draws centers from the symbols a folded RS or AEL code uses,
    # as it does for the plain list of its words; both codes are MDS, so
    # eps = 0 passes at delta0 = 1 and eps = -1/4 finds a witness
    gf5 = make_field(5, 1)
    ael = AELCode(complete_bipartite(2), RSOuterCode(gf4, 2, 1, points=[0, 1]),
                  RSOuterCode(gf4, 2, 1))
    for code in (make_folded_rs(gf5, 2, 2, Fraction(1, 2)), ael):
        assert min_arld_slack(code, 3, 1).eps_min == 0
        for eps in (0, Fraction(-1, 4)):
            got = exhaustive_arld_check(code, 3, 1, eps)
            assert got == exhaustive_arld_check(code.enumerate_codewords(), 3, 1, eps)
            assert got[0] == (eps == 0)


def test_block_code_checks_its_words_once_in_its_constructor(gf4):
    # with a field, every entry is a field element and the words share one
    # shape, so the word array always exists; without one there is none
    words = [((0, 1), (2, 3)), ((1, 0), (3, 2))]
    array = BlockCode(words, gf4).word_array()
    assert np.array_equal(array, words) and not array.flags.writeable
    assert BlockCode(words).word_array() is None
    for bad in ([((1, 1.5), (0, 0))], [((1, True), (0, 0))], [((1, "2"), (0, 0))],
                [((1, -4), (0, 0))], [((1, 4), (0, 0))]):
        with pytest.raises(FieldMismatch):
            BlockCode(bad + words, gf4)
    for ragged in ([((0, 1), (2,))], [((0, 1),)], [(0, 1)]):
        with pytest.raises(Mismatch, match="one shape"):
            BlockCode(ragged + words, gf4)
    for field in (gf4, None):
        with pytest.raises(Mismatch, match="one or more codewords"):
            BlockCode([], field)
    # (1, -4) packs to the key of (0, 0) over GF(4): as a plain list it is
    # interned, and the two words differ in one symbol
    off = [((1, -4), (0, 0)), ((0, 0), (0, 0))]
    assert min_arld_slack(off, 2, Fraction(1, 2)).min_disagreements_by_size == {2: 1}


# GF(3) [3,2] codewords with five entries shifted by one half: no group
HALF_SHIFTED_GF3 = [(0, 0, 0), (2.5, 2.5, 2), (1, 1, 1), (1.5, 0, 2.5), (0, 2.5, 1),
                    (2.5, 1.5, 0), (2, 0, 1.5), (1, 2, 0), (0, 1, 2)]


def test_non_integer_words_are_not_cast_into_a_group():
    # casting 2.5 to 2 would turn these words into a group and let the
    # sweep fix word 0, so the certificate would miss the true size-3 minimum
    gf3 = make_field(3)
    with pytest.raises(FieldMismatch):
        BlockCode(HALF_SHIFTED_GF3, gf3)
    assert not translation_closed(HALF_SHIFTED_GF3, gf3)
    # integral floats add up to a group, yet they are not field elements
    assert translation_closed([(0,), (1,), (2,)], gf3)
    assert not translation_closed([(0.0,), (1.0,), (2.0,)], gf3)
    assert not translation_closed(np.array([[0.0], [1.0], [2.0]]), gf3)
    cert = min_arld_slack(HALF_SHIFTED_GF3, 3, 1)
    assert cert.min_disagreements_by_size == {2: 2, 3: 3}
    assert cert.eps_min == Fraction(1, 2) and cert.reduction == "none"
    assert cert.reevaluate(HALF_SHIFTED_GF3) == cert.eps_min


def test_block_code_distance():
    code = BlockCode([(0, 0), (0, 1), (1, 1)])
    assert code.min_distance() == Fraction(1, 2)
    assert len(code) == 3


@pytest.mark.parametrize("n,rho", [(4, Fraction(1, 4)), (8, Fraction(1, 8))])
def test_block_code_distance_matches_pairwise_oracle_on_frs(gf17, n, rho):
    block = frs_as_linear_code(make_folded_rs(gf17, 2, n, rho))
    assert block.min_distance() == pairwise_min_distance(block.codewords)


def test_block_code_distance_matches_pairwise_oracle_on_random_tuple_words():
    # few symbols over a small alphabet, so repeated words (distance 0) and
    # near neighbours both occur
    rng = np.random.default_rng(283)
    for _ in range(40):
        m, n, width = (int(x) for x in rng.integers(2, [30, 7, 4]))
        words = [
            tuple(tuple(int(x) for x in rng.integers(0, 2, width)) for _ in range(n))
            for _ in range(m)
        ]
        assert BlockCode(words).min_distance() == pairwise_min_distance(words)
    with pytest.raises(Mismatch, match="need at least two codewords"):
        BlockCode([((0, 1),)]).min_distance()

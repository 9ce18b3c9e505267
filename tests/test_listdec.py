"""List-decoding oracle and the subset/partition/sampling verifiers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aelcert import (
    AELCode,
    BlockCode,
    ERASED,
    ErasedWord,
    brute_force_list,
    complete_bipartite,
    hamming_distance,
    min_arld_slack,
    partition_profile,
    plurality_center,
    random_regular_bipartite,
    sample_random_linear_code,
    sampling_bound_check,
    verify_common_error_bound,
    verify_generalized_singleton,
)
from aelcert.errors import Mismatch
from aelcert.arld import intern_symbols, subset_search_count, translation_closed
from aelcert.gf import make_field
from aelcert.graphs import LAMBDA_SAFETY
from aelcert.outer import RSOuterCode
from aelcert.seeds import derive_seed
from instances import (
    common_error_fraction, common_error_oracle, dist_with_erasures, erasure_fraction, fold,
)


@pytest.fixture(scope="module")
def instance12(gf4, gf16):
    graph = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    inner = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    outer = RSOuterCode(gf16, 12, 2)
    return AELCode(graph, inner, outer)


def test_list_radius_zero(instance12):
    w = instance12.encode_message([3, 1])
    assert brute_force_list(instance12, w, 0) == [w]
    # numpy integers are integers
    assert brute_force_list(instance12, np.array(w), 0) == [w]


def test_list_radius_one_is_everything(instance12):
    w = instance12.encode_message([3, 1])
    assert len(brute_force_list(instance12, w, 1)) == 256


def test_list_agrees_with_distances(instance12):
    words = instance12.enumerate_codewords()
    rng = np.random.default_rng(8)
    idx = [int(i) for i in rng.choice(256, 3, replace=False)]
    center, _ = plurality_center([words[i] for i in idx])
    erasure_masks = [(), (0,), (1, 4, 7), tuple(range(0, 12, 2)), tuple(range(12))]
    for mask in erasure_masks:
        erased = ErasedWord(
            tuple(ERASED if r in mask else s for r, s in enumerate(center))
        )
        hits = {dist_with_erasures(erased, w) * 12 for w in words}
        # beta = k/n exactly keeps the words at k disagreements; just below
        # it drops them
        betas = {Fraction(1, 2)} | {Fraction(int(h), 12) for h in hits}
        betas |= {b - Fraction(1, 10**9) for b in betas}
        for beta in sorted(betas):
            center_arg = erased if mask else center
            lst = brute_force_list(instance12, center_arg, beta)
            expect = [w for w in words if dist_with_erasures(erased, w) <= beta]
            assert lst == expect


def test_list_rejects_a_center_of_the_wrong_length(instance12):
    with pytest.raises(Mismatch, match="length mismatch with graph size"):
        brute_force_list(instance12, ErasedWord((ERASED,) * 11), Fraction(1, 2))


def _bent(bend):
    """The center h with its first symbol bent and its second erased."""
    return lambda h: (bend(h[0]), ERASED) + h[2:]


@pytest.mark.parametrize("center,error,message", [
    (_bent(lambda t: t[:3]), Mismatch, "word shape"),
    (_bent(lambda t: t + (0,)), Mismatch, "word shape"),
    (_bent(lambda t: (99,) * 4), Mismatch, "entry outside"),
    (_bent(lambda t: (-1, 0, 0, 0)), Mismatch, "entry outside"),
    (_bent(lambda t: (4, 0, 0, 0)), Mismatch, "entry outside"),
    (_bent(lambda t: 5), Mismatch, "word shape"),
    (_bent(lambda t: "abcd"), Mismatch, "word shape"),
    (lambda h: 5, Mismatch, "word shape"), (lambda h: None, Mismatch, "word shape"),
    (_bent(lambda t: (0.5,) + t[1:]), ValueError, "word entry"),
    (_bent(lambda t: (True,) + t[1:]), ValueError, "word entry"),
], ids=["narrow", "wide", "entry-above-q", "entry-negative", "entry-at-q", "int-symbol",
        "string-symbol", "int-center", "none-center", "float-entry", "bool-entry"])
def test_list_rejects_what_unique_decoding_rejects(instance12, center, error, message):
    # the center of `decode`'s check, `AELCode.read_word`: n symbols, each
    # erased or d integer entries in GF(4)
    h = instance12.encode_message([3, 3])
    with pytest.raises(error, match=message):
        brute_force_list(instance12, center(h), Fraction(1, 2))


@pytest.mark.parametrize("value", [0.5, True, "1/2"], ids=["float", "bool", "string"])
def test_listdec_parameters_refuse_inexact_values(instance12, value):
    h = instance12.encode_message([3, 3])
    half = Fraction(1, 2)
    calls = {
        "beta": lambda: brute_force_list(instance12, h, value),
        "delta0": lambda: verify_generalized_singleton(instance12, 2, value, 0),
        "eps": lambda: verify_generalized_singleton(instance12, 2, half, value),
    }
    common = {
        "delta0": lambda: verify_common_error_bound(instance12, 2, value, 0, [h], half),
        "eps": lambda: verify_common_error_bound(instance12, 2, half, value, [h], half),
    }
    for name, call in [*calls.items(), *common.items()]:
        with pytest.raises(ValueError, match=f"{name}: expected a Fraction or an integer"):
            call()
    for call in (lambda: verify_generalized_singleton(instance12, value, half, 0),
                 lambda: verify_common_error_bound(instance12, value, half, 0, [h], half)):
        with pytest.raises(ValueError, match="k: expected an integer"):
            call()


def _brute_force_list_scan_oracle(code, center, beta):
    """Reference: the list scan as one symbol comparison per unerased vertex
    and codeword."""
    center = center if isinstance(center, ErasedWord) else ErasedWord(center)
    limit = math.floor(Fraction(beta) * code.n)
    kept = [(r, g) for r, g in enumerate(center.symbols) if g is not ERASED]
    words = code.enumerate_codewords()
    return [w for w in words if sum(1 for r, g in kept if w[r] != g) <= limit]


def _ael12(graph_seed, outer_dim):
    gf4, gf16 = make_field(2, 2), make_field(2, 4)
    return AELCode(random_regular_bipartite(12, 4, seed=graph_seed, lam_target=0.95),
                   RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]), RSOuterCode(gf16, 12, outer_dim))


_LIST_CODES = {
    "instance12": _ael12(7, 2),
    "ac3": _ael12(derive_seed(2024, "ac3-graph"), 2),
    # 16 words: at most 192 of the 256 GF(4)^4 symbols occur, so a center
    # can hold symbols that no codeword has anywhere
    "ac3-outer-dim1": _ael12(derive_seed(2024, "ac3-graph"), 1),
}


@st.composite
def _list_case(draw):
    code = _LIST_CODES[draw(st.sampled_from(sorted(_LIST_CODES)))]
    words = code.enumerate_codewords()
    center = list(words[draw(st.integers(0, len(words) - 1))])
    for r in range(code.n):
        kind = draw(st.sampled_from(["keep", "codeword", "any", "erased"]))
        if kind == "codeword":  # another codeword's symbol at this vertex
            center[r] = words[draw(st.integers(0, len(words) - 1))][r]
        elif kind == "any":  # any symbol over GF(4), on the codebook or off it
            center[r] = draw(st.tuples(*[st.integers(0, 3)] * code.d))
        elif kind == "erased":
            center[r] = ERASED
    beta = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    return code, center, beta


@given(case=_list_case())
@settings(max_examples=300, deadline=None)
def test_list_matches_scan_oracle(case):
    code, center, beta = case
    as_word = brute_force_list(code, ErasedWord(center), beta)
    assert as_word == brute_force_list(code, center, beta)
    assert as_word == _brute_force_list_scan_oracle(code, center, beta)


def _brute_force_list_interned(code, center, beta):
    """Reference: the list scan over interned symbol ids, as it was written
    before the symbol keys: ids from `intern_symbols` of the codeword
    tuples, and -1 for a center symbol no codeword has."""
    center = center if isinstance(center, ErasedWord) else ErasedWord(center)
    limit = math.floor(Fraction(beta) * code.n)
    words = code.enumerate_codewords()
    mat, ids = intern_symbols(words)
    kept = [r for r, g in enumerate(center.symbols) if g is not ERASED]
    center_ids = [ids.get(tuple(center.symbols[r]), -1) for r in kept]
    return [words[i] for i in ((mat[:, kept] != center_ids).sum(1) <= limit).nonzero()[0]]


@pytest.mark.parametrize("which", ["ac3", "ac4"])
def test_list_matches_the_interned_scan_on_acceptance_codes(acceptance, which):
    code = acceptance[which]["ael"]
    words = code.enumerate_codewords()
    rng = np.random.default_rng(derive_seed(2024, "list-interned", which))
    for _ in range(40):
        center = list(words[int(rng.integers(len(words)))])
        for r in rng.permutation(code.n)[:int(rng.integers(0, code.n + 1))]:
            kind = int(rng.integers(3))
            if kind == 0:
                center[r] = ERASED
            elif kind == 1:  # another codeword's symbol here
                center[r] = words[int(rng.integers(len(words)))][r]
            else:  # any symbol over the inner field
                center[r] = tuple(int(x) for x in rng.integers(0, code.field.q, code.d))
        for beta in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
            got = brute_force_list(code, center, beta)
            assert got == _brute_force_list_interned(code, center, beta)
    for i in rng.integers(len(words), size=4):  # centers of numpy rows
        rows = list(code.word_array()[i])
        rows[int(rng.integers(code.n))] = ERASED
        for center in (code.word_array()[i], rows):
            for beta in (Fraction(0), Fraction(1, 4)):
                got = brute_force_list(code, center, beta)
                assert got == _brute_force_list_interned(code, center, beta)


def test_list_center_symbol_off_the_alphabet_disagrees_with_every_word():
    code = _LIST_CODES["ac3-outer-dim1"]
    used = {s for w in code.enumerate_codewords() for s in w}
    off = next(t for t in np.ndindex(4, 4, 4, 4) if t not in used)
    w = code.enumerate_codewords()[5]
    center = (off,) + w[1:]
    assert brute_force_list(code, center, Fraction(0)) == []
    assert brute_force_list(code, center, Fraction(1, 12)) == [w]
    assert brute_force_list(code, (ERASED,) + w[1:], Fraction(0)) == [w]


def test_singleton_k1_trivial(instance12):
    report = verify_generalized_singleton(instance12, 1, Fraction(1, 2), 0)
    assert report["empirical_pass"]
    assert report["min_disagreements_by_size"] == {}
    assert report["worst_witness"] is None
    assert report["subsets_evaluated"] == 0 and report["reduction"] == "none"


def test_singleton_impossible_margin_fails(instance12):
    report = verify_generalized_singleton(
        instance12, 2, Fraction(1, 2), Fraction(-1, 2)
    )
    assert not report["empirical_pass"]
    assert report["violations"][0]["size"] == 2
    assert report["theorem_assertion"] in ("FAIL", "NOT APPLICABLE")


def test_singleton_hypothesis_gate(instance12):
    # lambda ~ 0.66 on this graph never satisfies lambda <= delta_out*eps/(6k^k)
    report = verify_generalized_singleton(
        instance12, 3, Fraction(1, 2), Fraction(1, 4)
    )
    assert not report["hypothesis_satisfied"]
    assert report["theorem_assertion"] == "NOT APPLICABLE"


def test_singleton_passes_at_its_empirical_eps_min(instance12):
    # at eps = eps_min the worst witness meets the bound with equality,
    # which is no violation
    eps_min = verify_generalized_singleton(instance12, 3, 1, 0)["empirical_eps_min"]
    assert eps_min > 0
    report = verify_generalized_singleton(instance12, 3, 1, eps_min)
    assert report["empirical_pass"] and not report["violations"]
    below = verify_generalized_singleton(instance12, 3, 1, eps_min - Fraction(1, 10**6))
    assert not below["empirical_pass"]


def test_singleton_hypothesis_holds_at_equality(instance12, monkeypatch):
    # lambda exactly delta_out * eps / (6 k^k) satisfies the hypothesis
    k, eps = 2, Fraction(1, 4)
    boundary = instance12.delta_out * eps / (6 * k**k)
    monkeypatch.setattr(instance12.graph, "lam_bound", boundary)
    report = verify_generalized_singleton(instance12, k, Fraction(1, 2), eps)
    assert report["lam_bound"] == report["hypothesis_rhs"] == boundary
    assert report["hypothesis_satisfied"]
    assert report["theorem_assertion"] == "PASS"


def test_singleton_report_counts_the_reduced_sweep(acceptance):
    report = acceptance["ac4"]["report"]
    assert report["reduction"] == "translation"
    # C(256, 2) pairs, then the triples and quadruples that hold word 0
    assert report["subsets_evaluated"] == 32_640 + 32_385 + 2_731_135
    assert report["subsets_examined"] == subset_search_count(256, 4)


@pytest.mark.parametrize("which", ["instance12", "ac4"])
def test_ael_words_are_translation_closed(instance12, acceptance, which):
    # phi is GF(p)-linear, so the AEL words form a group under addition
    code = instance12 if which == "instance12" else acceptance["ac4"]["ael"]
    assert translation_closed(code.enumerate_codewords(), code.inner.field)


def test_word_set_that_is_not_a_group_sweeps_in_full(instance12):
    # the AEL words with phi(1) and phi(2) swapped: no longer closed under
    # addition, so the sweep is not reduced
    swap, phi = {1: 2, 2: 1}, instance12.inner.enumerate_codewords()
    words = [
        fold(instance12, [x for s in h for x in phi[swap.get(s, s)]])
        for h in instance12.outer.enumerate_codewords()
    ]
    field = instance12.inner.field
    assert not translation_closed(words, field)
    cert = min_arld_slack(BlockCode(words, field), 3, Fraction(1, 2))
    assert cert.reduction == "none"
    assert cert.subsets_evaluated == cert.subsets_examined == subset_search_count(256, 3)


def test_list_size_corollary(instance12):
    # whenever the bound holds at (delta0, k, eps), any ball of radius
    # ((k-1)/k)(delta0-eps) holds at most k-1 codewords
    k, delta0 = 3, Fraction(1, 2)
    report = verify_generalized_singleton(instance12, k, delta0, Fraction(0))
    if report["empirical_pass"]:
        radius = Fraction(k - 1, k) * delta0
        words = instance12.enumerate_codewords()
        rng = np.random.default_rng(10)
        for _ in range(20):
            idx = [int(i) for i in rng.choice(256, k, replace=False)]
            center, _ = plurality_center([words[i] for i in idx])
            assert len(brute_force_list(instance12, center, radius)) <= k - 1


def test_common_error_fraction_examples(instance12):
    w = instance12.encode_message([1, 0])
    assert common_error_fraction(w, [w]) == 0
    other = instance12.encode_message([2, 5])
    assert common_error_fraction(w, [other]) == hamming_distance(w, other)


def test_common_error_fraction_hand_built():
    g = (0, 0, 0, 0)
    h1 = (1, 0, 1, 0)
    h2 = (1, 1, 1, 0)
    # both disagree with g at coordinates 0 and 2
    assert common_error_fraction(g, [h1, h2]) == Fraction(2, 4)


def test_common_error_requires_prerequisite(instance12):
    with pytest.raises(Mismatch, match="verify_generalized_singleton must pass first"):
        verify_common_error_bound(
            instance12, 3, Fraction(1, 2), 0, [], beta=Fraction(1, 2)
        )


def test_common_error_requires_the_report_of_its_parameters(instance12):
    # a passing k = 2 report is no premise for the k = 3 check, nor one at
    # another delta0 or eps
    singleton = verify_generalized_singleton(instance12, 2, Fraction(1, 2), 0)
    assert singleton["empirical_pass"]
    w = instance12.encode_message([4, 4])
    for k, delta0, eps in [(3, Fraction(1, 2), 0), (2, Fraction(2, 3), 0),
                           (2, Fraction(1, 2), Fraction(1, 12))]:
        with pytest.raises(Mismatch, match=r"report is for k, delta0, eps = 2, 1/2, 0,"):
            verify_common_error_bound(instance12, k, delta0, eps, [w], beta=Fraction(1, 2),
                                      singleton_report=singleton)
    assert verify_common_error_bound(instance12, 2, Fraction(1, 2), 0, [w], beta=Fraction(1, 2),
                                     singleton_report=singleton)["passed"]


def test_common_error_center_in_subset(instance12):
    # g = h1: the product term is 0 and the plain bound remains
    singleton = verify_generalized_singleton(instance12, 2, Fraction(1, 2), 0)
    assert singleton["empirical_pass"]
    w = instance12.encode_message([4, 4])
    report = verify_common_error_bound(
        instance12, 2, Fraction(1, 2), 0, [w], beta=Fraction(1, 2),
        singleton_report=singleton,
    )
    assert report["passed"]


def test_common_error_violation_is_reported(instance12):
    # a genuine report at the call's parameters implies every inequality (a
    # center symbol no h has costs |H|, one more than the plurality's count),
    # so a violation needs a report that claims delta0 = 1 for its k = 2
    # sweep at 1/2: its size-2 minimum, 11 of 12 coordinates, falls short of
    # the (2 - 1)(1 - 0) that delta0 = 1 asks for
    singleton = {**verify_generalized_singleton(instance12, 2, Fraction(1, 2), 0), "delta0": 1}
    assert singleton["min_disagreements_by_size"] == {2: 11}
    w, v = instance12.encode_message([4, 4]), instance12.encode_message([3, 9])
    g = tuple(v[r] if r < 6 else w[r] for r in range(12))
    report = verify_common_error_bound(
        instance12, 2, 1, 0, [g], beta=Fraction(1, 2), singleton_report=singleton,
    )
    assert not report["passed"]
    assert report["violations"] == [{"size": 2, "lhs": Fraction(11, 12), "rhs": 1}]
    assert report["inequalities_checked"] == 1
    # the pair (w, v) is a real counterexample to the claim at delta0 = 1
    assert common_error_oracle(instance12, 2, 1, 0, [g], Fraction(1, 2))[1] == [
        {"center": g, "size": 2, "lhs": Fraction(11, 12), "rhs": 1}]


@pytest.fixture(scope="module")
def tight12(instance12):
    return verify_generalized_singleton(instance12, 3, 1, Fraction(1, 12))


def test_common_error_passes_at_the_boundary(instance12, tight12):
    # at eps = eps_min every size's minimum meets (m - 1)(delta0 - eps)
    # exactly: 11 = 1 * 11/12 * 12 and 22 = 2 * 11/12 * 12
    assert tight12["min_disagreements_by_size"] == {2: 11, 3: 22}
    report = verify_common_error_bound(
        instance12, 3, 1, Fraction(1, 12), [], beta=Fraction(1, 2), singleton_report=tight12,
    )
    assert report == {"centers": 0, "inequalities_checked": 2, "violations": [], "passed": True}


def test_common_error_refuses_a_report_of_another_code(instance12, acceptance):
    # a passing report at the same k, delta0 and eps proves nothing about
    # another code's subsets
    ael4 = acceptance["ac4"]["ael"]
    singleton = verify_generalized_singleton(instance12, 2, Fraction(1, 2), 0)
    assert singleton["empirical_pass"]
    with pytest.raises(Mismatch, match="the Singleton report is for another code"):
        verify_common_error_bound(ael4, 2, Fraction(1, 2), 0, [], beta=Fraction(1, 2),
                                  singleton_report=singleton)
    # nor does a copy of the report whose code is dropped
    own = {**acceptance["ac4"]["report"], "code": None}
    with pytest.raises(Mismatch, match="another code"):
        verify_common_error_bound(ael4, 4, Fraction(2, 3), own["eps"], [],
                                  beta=Fraction(1, 2), singleton_report=own)


def test_common_error_refuses_malformed_centers(instance12):
    singleton = verify_generalized_singleton(instance12, 2, Fraction(1, 2), 0)
    w = instance12.encode_message([4, 4])

    def check(centers):
        return verify_common_error_bound(instance12, 2, Fraction(1, 2), 0, centers,
                                         beta=Fraction(1, 2), singleton_report=singleton)

    with pytest.raises(Mismatch, match="length mismatch"):
        check([w, w[:11]])
    with pytest.raises(Mismatch, match="entry outside"):
        check([((4, 0, 0, 0),) + w[1:]])
    for entry in (0.5, True):
        with pytest.raises(ValueError, match="word entry"):
            check([w, ((entry, 0, 0, 0),) + w[1:]])
    # an erased symbol is a symbol no codeword has: the lemma covers it;
    # numpy integers are integers
    assert check([(ERASED,) + w[1:], ErasedWord(w), np.array(w)])["centers"] == 3


def test_common_error_counts_centers_from_an_iterator(acceptance):
    ael, singleton = acceptance["ac4"]["ael"], acceptance["ac4"]["report"]
    centers = ael.enumerate_codewords()[:5]

    def check(cs):
        return verify_common_error_bound(
            ael, 4, Fraction(2, 3), singleton["eps"], cs,
            beta=Fraction(1, 2), singleton_report=singleton,
        )

    as_list, as_generator = check(centers), check(c for c in centers)
    assert as_list["centers"] == as_generator["centers"] == 5
    assert as_generator["inequalities_checked"] == as_list["inequalities_checked"] > 0
    assert as_generator["passed"] and as_list["passed"]


@st.composite
def _common_error_centers(draw, code):
    """Centers for the common-error oracle: a codeword or the plurality of
    up to four, with some coordinates overwritten by random symbols (often
    one that no codeword has there) and at most two erased; or random codeword
    symbols everywhere, whose radius-1/2 list is mostly empty.  The list
    ignores erased coordinates, so each erasure lengthens it, and with it
    the oracle's subsets (all 256 codewords when every one is erased)."""
    words = code.enumerate_codewords()
    word = st.integers(0, len(words) - 1)
    kind = draw(st.sampled_from(["near", "plurality", "far"]))
    if kind == "far":
        alphabet = sorted({sym for w in words for sym in w})
        return tuple(draw(st.sampled_from(alphabet)) for _ in range(code.n))
    picks = draw(st.lists(word, min_size=1, max_size=1 if kind == "near" else 4))
    g = list(plurality_center([words[i] for i in picks])[0])
    symbol = st.tuples(*[st.integers(0, code.inner.field.q - 1)] * code.d)
    coordinate = st.integers(0, code.n - 1)
    for r in draw(st.lists(coordinate, max_size=code.n)):
        g[r] = draw(symbol)
    for r in draw(st.lists(coordinate, max_size=2)):
        g[r] = ERASED
    return tuple(g)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_common_error_oracle_agrees_with_the_lemma(tight12, acceptance, data):
    # instance12 at k = 3 with eps = eps_min, where the lemma's bounds are
    # tight, and AC4's code at its certified k = 4
    singleton = data.draw(st.sampled_from([tight12, acceptance["ac4"]["report"]]))
    code, k, delta0, eps = (singleton[key] for key in ("code", "k", "delta0", "eps"))
    centers = data.draw(st.lists(_common_error_centers(code), min_size=1, max_size=3))
    report = verify_common_error_bound(code, k, delta0, eps, centers, beta=Fraction(1, 2),
                                       singleton_report=singleton)
    assert report["centers"] == len(centers)
    assert report["passed"]
    assert common_error_oracle(code, k, delta0, eps, centers, Fraction(1, 2))[1] == []


def test_partition_pair(instance12):
    h1 = instance12.encode_message([1, 1])
    h2 = instance12.encode_message([1, 2])
    profile = partition_profile(instance12, [h1, h2])
    # two-element tuples only admit {{1,2}} and {{1},{2}}
    assert set(profile.partitions) <= {((0,), (1,)), ((0, 1),)}
    views = (instance12.left_views(h1), instance12.left_views(h2))
    assert profile.nontrivial_mass == hamming_distance(*views) * 12
    assert profile.nontrivial_mass >= profile.bound


def test_partition_three_disjoint(instance12):
    words = instance12.enumerate_codewords()
    # find three codewords sharing no left views
    views = [instance12.left_views(w) for w in words[:40]]
    found = None
    for i in range(40):
        for j in range(i + 1, 40):
            for k in range(j + 1, 40):
                pairs = [(i, j), (i, k), (j, k)]
                if all(
                    all(views[a][l] != views[b][l] for l in range(12))
                    for a, b in pairs
                ):
                    found = (i, j, k)
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    profile = partition_profile(instance12, [words[i] for i in found])
    assert profile.nontrivial_mass == 12
    assert all(len(p) == 3 for p in profile.partitions)


def test_partition_duplicates_rejected(instance12):
    w = instance12.encode_message([0, 1])
    with pytest.raises(Mismatch, match="codewords in H must be distinct"):
        partition_profile(instance12, [w, w])


def test_partition_bound_random_subsets(instance12):
    words = instance12.enumerate_codewords()
    rng = np.random.default_rng(12)
    for size in (2, 3, 4):
        for _ in range(10):
            idx = [int(i) for i in rng.choice(256, size, replace=False)]
            profile = partition_profile(instance12, [words[i] for i in idx])
            assert len(profile.l_star) >= profile.bound
            assert sum(profile.histogram.values()) == 12


def test_sampling_bound_complete_graph(gf4, gf16):
    # K_{n,n}: every left vertex sees every right vertex, so s_l = s exactly
    graph = complete_bipartite(12)
    inner = sample_random_linear_code(gf4, 12, 2, np.random.default_rng(1))
    code = AELCode(graph, inner, RSOuterCode(gf16, 12, 2))
    erased = ErasedWord(tuple(ERASED if r < 3 else ((0,) * 12) for r in range(12)))
    for l in range(12):
        assert sampling_bound_check(code, erased, [l])["lhs"] == Fraction(3, 12)
    result = sampling_bound_check(code, erased, list(range(12)))
    assert result["passed"]
    # lambda(K_{n,n}) = 0 exactly, so both sides are s: equality passes
    graph.lam_bound = Fraction(0)
    result = sampling_bound_check(code, erased, list(range(12)))
    assert result["lhs"] == result["rhs"] == Fraction(3, 12)
    assert result["passed"]


def test_sampling_bound_expander(instance12):
    rng = np.random.default_rng(14)
    mask = rng.permutation(12)[:3]
    w = instance12.encode_message([0, 0])
    erased = ErasedWord(
        tuple(ERASED if r in set(int(x) for x in mask) else w[r] for r in range(12))
    )
    result = sampling_bound_check(instance12, erased, list(range(12)))
    assert result["passed"]
    assert result["lhs"] == Fraction(1, 4)  # E_l[s_l] = s by edge counting


def test_sampling_bound_small_lstar_rejected(instance12):
    w = instance12.encode_message([0, 0])
    with pytest.raises(Mismatch, match="L\\* is empty"):
        sampling_bound_check(instance12, ErasedWord(tuple(w)), [])


def test_sampling_bound_accepts_lstar_of_exactly_the_required_size(instance12):
    # k = 1 requires |L*| >= delta_out * n = 11/12 * 12 = 11
    erased = ErasedWord(tuple(instance12.encode_message([0, 0])))
    assert instance12.delta_out * instance12.n == 11
    assert sampling_bound_check(instance12, erased, list(range(11)), k=1)["l_star_size"] == 11
    with pytest.raises(Mismatch, match=r"\|L\*\| = 10 < 11"):
        sampling_bound_check(instance12, erased, list(range(10)), k=1)


def _local_erasure_fractions_oracle(code, erased):
    """Reference: the per-vertex erased-edge fractions, one edge at a time."""
    erased_set = {r for r, sym in enumerate(erased.symbols) if sym is ERASED}
    return [
        Fraction(sum(1 for r in code.graph.left_adj[l] if r in erased_set), code.d)
        for l in range(code.n)
    ]


def _sampling_bound_fraction_oracle(code, erased, l_star):
    """Reference: the sampling-bound inequality in Fraction arithmetic."""
    fractions = _local_erasure_fractions_oracle(code, erased)
    lhs = sum((fractions[l] for l in l_star), Fraction(0)) / len(l_star)
    rhs = erasure_fraction(erased) + code.graph.lam_bound * code.n / len(l_star)
    return {"lhs": lhs, "rhs": rhs, "passed": lhs <= rhs, "l_star_size": len(l_star)}


@pytest.mark.parametrize("lam", [None, 0.0])
def test_sampling_bound_matches_fraction_oracle(gf4, gf16, lam):
    graph = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    if lam is not None:
        # an understated lambda makes some checks fail
        graph.lam_bound = Fraction(str(lam)) + LAMBDA_SAFETY
    code = AELCode(
        graph, RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]), RSOuterCode(gf16, 12, 2)
    )
    w = code.encode_message([5, 9])
    rng = np.random.default_rng(31)
    verdicts = set()
    for _ in range(200):
        mask = rng.integers(0, 2, 12)
        erased = ErasedWord(tuple(ERASED if m else w[r] for r, m in enumerate(mask)))
        # L* is a set: drawn with repeats, each vertex kept once
        l_star = list(dict.fromkeys(int(x) for x in rng.integers(0, 12, int(rng.integers(1, 13)))))
        fractions = _local_erasure_fractions_oracle(code, erased)
        for l in range(12):
            assert sampling_bound_check(code, erased, [l])["lhs"] == fractions[l]
        got = sampling_bound_check(code, erased, l_star)
        assert got == _sampling_bound_fraction_oracle(code, erased, l_star)
        verdicts.add(got["passed"])
    assert verdicts == ({True} if lam is None else {True, False})


def test_sampling_bound_refuses_a_repeated_vertex(instance12):
    # L* is a set: [0, 0, 0] is the one vertex 0, which the premise
    # |L*| >= 11/4 at k = 2 refuses, not three vertices that meet it
    erased = ErasedWord((ERASED,) + instance12.encode_message([0, 0])[1:])
    with pytest.raises(Mismatch, match=r"\|L\*\| = 1 < 11/4"):
        sampling_bound_check(instance12, erased, [0], k=2)
    with pytest.raises(Mismatch, match=r"L\* repeats vertex 0"):
        sampling_bound_check(instance12, erased, [0, 0, 0], k=2)
    with pytest.raises(Mismatch, match=r"L\* repeats vertex 5"):
        sampling_bound_check(instance12, erased, [1, 5, 2, 5])


def test_sampling_bound_rejects_vertices_outside_range(instance12):
    w = instance12.encode_message([0, 0])
    with pytest.raises(ValueError):
        sampling_bound_check(instance12, ErasedWord(tuple(w)), [-1, -2])
    with pytest.raises(ValueError):
        sampling_bound_check(instance12, ErasedWord(tuple(w)), [0, 12])


def test_erased_word_length_must_match_graph(instance12):
    short = ErasedWord((ERASED, ERASED, ERASED))
    with pytest.raises(Mismatch, match="length mismatch with graph size, 3 != 12"):
        sampling_bound_check(instance12, short, [0, 1])

"""Threshold-rounding decoder over inner-codeword distribution ensembles."""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aelcert.rounding
from aelcert import (
    AELCode,
    InnerDistributionEnsemble,
    ael_unique_decode,
    decode_from_distributions,
    hamming_distance,
    local_views_to_distributions,
    plurality_center,
    random_regular_bipartite,
    threshold_endpoints,
)
from aelcert.errors import AelcertError, GraphMismatch
from aelcert.outer import RSOuterCode, rs_unique_decode
from aelcert.seeds import derive_seed
from instances import ROOT_SEED, planted_weights


@pytest.fixture(scope="module")
def instance12(gf4, gf16):
    graph = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    inner = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    outer = RSOuterCode(gf16, 12, 2)
    return AELCode(graph, inner, outer)


# -- Fraction oracles: the prefix-sum walks the integer form replaced ---------


def _round_at_oracle(weights, theta):
    picks = []
    for row in weights:
        acc = Fraction(0)
        pick = len(weights[0]) - 1
        for i, w in enumerate(row):
            if acc <= theta < acc + w:
                pick = i
                break
            acc += w
        picks.append(pick)
    return picks


def _threshold_endpoints_oracle(weights):
    points = {Fraction(0)}
    for row in weights:
        acc = Fraction(0)
        for w in row:
            acc += w
            if acc < 1:
                points.add(acc)
    return sorted(points)


def _expected_disagreement_oracle(weights, inner_indices):
    total = Fraction(0)
    for l, idx in enumerate(inner_indices):
        total += 1 - weights[l][idx]
    return total / len(weights)


def _full_scan_oracle(code, weights):
    """Reference decode: try every threshold and keep every distinct codeword
    within the guarantee, as (index of its first threshold, codeword)."""
    outer = code.outer
    found = []
    for j, theta in enumerate(_threshold_endpoints_oracle(weights)):
        picks = _round_at_oracle(weights, theta)
        f_star = [code.inner_index_to_outer_symbol(i) for i in picks]
        h_star = rs_unique_decode(outer, f_star)
        if h_star is None:
            continue
        inner_indices = [code.outer_symbol_to_inner_index(s) for s in h_star]
        if _expected_disagreement_oracle(weights, inner_indices) <= outer.delta_dec:
            h = code.encode(h_star)
            if all(h != g for _, g in found):
                found.append((j, h))
    return found


def _local_views_oracle(code, word):
    inner_words = code.inner.enumerate_codewords()
    weights = []
    for v in code.left_views(word):
        dists = [hamming_distance(v, c) for c in inner_words]
        best = min(dists)
        nearest = [i for i, dst in enumerate(dists) if dst == best]
        weights.append([
            Fraction(1, len(nearest)) if i in nearest else Fraction(0)
            for i in range(len(inner_words))
        ])
    return weights


def _point_mass_ensemble(code, word):
    picks = [code.outer_symbol_to_inner_index(s) for s in code.decode_to_outer(word)]
    m = code.inner.size
    weights = []
    for idx in picks:
        row = [Fraction(0)] * m
        row[idx] = Fraction(1)
        weights.append(row)
    return InnerDistributionEnsemble(weights), picks


def _planted_ensembles(code):
    # noise up to the outer decoding radius delta_dec = 5/12 in expectation
    for trial in range(20):
        rng = np.random.default_rng(derive_seed(1, "planted", trial))
        h, picks, weights = planted_weights(code, rng)
        yield InnerDistributionEnsemble(weights), h, picks


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        InnerDistributionEnsemble([[Fraction(1, 2), Fraction(1, 3)]])
    with pytest.raises(ValueError):
        InnerDistributionEnsemble([[Fraction(3, 2), Fraction(-1, 2)]])


def _ensemble_oracle(weights):
    """Reference weights, scale, counts and ends, with every weight passed
    through Fraction(...)."""
    fracs = [[Fraction(w) for w in row] for row in weights]
    scale = math.lcm(*(w.denominator for row in fracs for w in row))
    counts = [[w.numerator * (scale // w.denominator) for w in row] for row in fracs]
    return fracs, scale, counts, [list(accumulate(row)) for row in counts]


def _assert_ensemble_matches_oracle(weights):
    ens = InnerDistributionEnsemble(weights)
    fracs, scale, counts, ends = _ensemble_oracle(weights)
    assert all(type(w) is Fraction for row in ens.weights for w in row)
    assert ens.weights == fracs
    assert (ens.scale, ens.counts, ens.ends) == (scale, counts, ends)


def test_ensemble_matches_oracle_on_ac6(acceptance):
    code = acceptance["ac3"]["ael"]
    for trial in range(100):
        rng = np.random.default_rng(derive_seed(ROOT_SEED, "ac6", trial))
        _, _, weights = planted_weights(code, rng)
        _assert_ensemble_matches_oracle(weights)


def test_ensemble_accepts_mixed_weight_types():
    weights = [
        [Fraction(1, 3), 0, Fraction(2, 3)],
        [np.int64(0), 1, np.int32(0)],
        [Fraction(1, 2), np.uint8(0), Fraction(1, 2)],
        [1, 0, 0],
    ]
    _assert_ensemble_matches_oracle(weights)
    assert InnerDistributionEnsemble(weights).scale == 6
    with pytest.raises(ValueError):
        InnerDistributionEnsemble([[Fraction(3, 2), np.int64(-1), Fraction(1, 2)]])
    with pytest.raises(ValueError):
        InnerDistributionEnsemble([[1, 0], [np.int64(1), Fraction(1, 3)]])
    with pytest.raises(ValueError):
        InnerDistributionEnsemble([[0, 2, -1]])


def test_round_at_picks_interval():
    ens = InnerDistributionEnsemble(
        [[Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]]
    )
    assert ens.round_at(Fraction(0)) == [0]
    assert ens.round_at(Fraction(1, 4)) == [1]
    assert ens.round_at(Fraction(499, 1000)) == [1]
    assert ens.round_at(Fraction(1, 2)) == [2]
    assert ens.round_at(Fraction(999, 1000)) == [2]


# name -> (weight rows, expected common scale)
_EDGE_TABLES = {
    "quarters": ([["1/4", "1/4", "1/2"]], 4),
    "zero-width": ([["1/2", "0", "1/2", "0"], ["0", "1/3", "0", "2/3"]], 6),
    "coprime": ([["1/3", "2/3", "0", "0"], ["1/7", "0", "6/7", "0"],
                 ["0", "1/11", "10/11", "0"], ["0", "0", "5/13", "8/13"]], 3 * 7 * 11 * 13),
    "point-mass": ([["0", "0", "1", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "1"]], 1),
}


@pytest.mark.parametrize("name", sorted(_EDGE_TABLES))
def test_integer_rounding_matches_fraction_oracle(name):
    rows, scale = _EDGE_TABLES[name]
    weights = [[Fraction(w) for w in row] for row in rows]
    ens = InnerDistributionEnsemble(weights)
    assert ens.scale == scale
    endpoints = threshold_endpoints(ens)
    assert endpoints == _threshold_endpoints_oracle(weights)
    # every endpoint and a hair either side of it, 1 (reached through a zero
    # last entry in "zero-width"), and theta beyond [0, 1) on both sides
    hair = Fraction(1, 10**9)
    thetas = {t + e for t in endpoints + [Fraction(1)] for e in (-hair, 0, hair)}
    for theta in sorted(thetas | {Fraction(-1, 2), Fraction(3, 2)}):
        picks = ens.round_at(theta)
        assert picks == _round_at_oracle(weights, theta), theta
        assert ens.expected_disagreement(picks) == _expected_disagreement_oracle(weights, picks)


def test_threshold_endpoints_cover_all_thetas():
    rng = np.random.default_rng(derive_seed(0, "theta-test"))
    for trial in range(10):
        weights = []
        for _ in range(3):
            cuts = sorted(int(x) for x in rng.integers(1, 20, size=2))
            weights.append(
                [
                    Fraction(cuts[0], 20),
                    Fraction(cuts[1] - cuts[0], 20),
                    Fraction(20 - cuts[1], 20),
                ]
            )
        ens = InnerDistributionEnsemble(weights)
        endpoints = threshold_endpoints(ens)
        assert endpoints == _threshold_endpoints_oracle(weights)
        assert len(endpoints) <= ens.m * ens.n
        seen = {tuple(ens.round_at(t)) for t in endpoints}
        for _ in range(1000):
            theta = Fraction(int(rng.integers(0, 10**6)), 10**6)
            picks = ens.round_at(theta)
            assert picks == _round_at_oracle(weights, theta)
            assert tuple(picks) in seen


def test_expected_disagreement():
    ens = InnerDistributionEnsemble(
        [
            [Fraction(3, 4), Fraction(1, 4)],
            [Fraction(1), Fraction(0)],
        ]
    )
    assert ens.expected_disagreement([0, 0]) == Fraction(1, 8)
    assert ens.expected_disagreement([1, 0]) == Fraction(3, 8)


def test_point_mass_decodes_exactly(instance12):
    h = instance12.encode_message([7, 2])
    ens, picks = _point_mass_ensemble(instance12, h)
    assert ens.expected_disagreement(picks) == 0
    assert decode_from_distributions(instance12, ens) == h


def test_planted_ensemble_recovery(instance12):
    for ens, h, picks in _planted_ensembles(instance12):
        assert ens.expected_disagreement(picks) <= instance12.outer.delta_dec
        assert decode_from_distributions(instance12, ens) == h


def _count_rs_calls(monkeypatch):
    """Record the result of every outer decoder call the decoder makes."""
    results = []

    def counted(*args, **kwargs):
        results.append(rs_unique_decode(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(aelcert.rounding, "rs_unique_decode", counted)
    return results


def test_decode_stops_at_first_certified_threshold(instance12, monkeypatch):
    results = _count_rs_calls(monkeypatch)
    for ens, h, _ in _planted_ensembles(instance12):
        found = _full_scan_oracle(instance12, ens.weights)
        results.clear()
        assert decode_from_distributions(instance12, ens) == h == found[0][1]
        assert len(results) == found[0][0] + 1


def test_rs_success_rejected_by_certificate(instance12, monkeypatch):
    # weight 1/10 on h's inner codeword and 9/10 on the next one: theta = 0
    # rounds to h wherever h's index comes first, so the outer decoder recovers
    # h, but ED(h) is far beyond delta_dec and no codeword is certified
    h = instance12.encode_message([7, 2])
    _, picks = _point_mass_ensemble(instance12, h)
    m = instance12.inner.size
    weights = []
    for idx in picks:
        row = [Fraction(0)] * m
        row[idx] = Fraction(1, 10)
        row[(idx + 1) % m] = Fraction(9, 10)
        weights.append(row)
    ens = InnerDistributionEnsemble(weights)
    results = _count_rs_calls(monkeypatch)
    assert decode_from_distributions(instance12, ens) is None
    assert instance12.decode_to_outer(h) in results
    assert _full_scan_oracle(instance12, ens.weights) == []


@st.composite
def _ensemble_rows(draw, code):
    """Weight rows for `code`: point masses, AC6-style planted steals, ties,
    low-weight decoys on a codeword, or random rows over mixed denominators."""
    words = code.enumerate_codewords()
    m = code.inner.size
    h = words[draw(st.integers(0, len(words) - 1))]
    picks = [code.outer_symbol_to_inner_index(s) for s in code.decode_to_outer(h)]
    family = draw(st.sampled_from(["point", "planted", "ties", "decoy", "random"]))
    budget = code.outer.delta_dec * code.n * draw(st.sampled_from([1, 2]))
    index = st.integers(0, m - 1)
    rows = []
    for pick in picks:
        row = [Fraction(0)] * m
        if family == "point":
            row[draw(st.one_of(st.just(pick), index))] = Fraction(1)
        elif family in ("planted", "decoy"):
            if family == "planted":
                share = min(Fraction(draw(st.integers(0, 48)), 100), budget)
                budget -= share
            else:
                share = 1 - draw(st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)]))
            other = (pick + draw(st.integers(1, m - 1))) % m
            row[pick] = 1 - share
            row[other] = share
        elif family == "ties":
            support = draw(st.lists(index, min_size=2, max_size=4, unique=True))
            if draw(st.booleans()) and pick not in support:
                support[0] = pick
            for i in support:
                row[i] = Fraction(1, len(support))
        else:
            denom = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
            support = draw(st.lists(index, min_size=1, max_size=4, unique=True))
            cuts = sorted(draw(st.lists(st.integers(0, denom), min_size=len(support) - 1,
                                        max_size=len(support) - 1)))
            for i, lo, hi in zip(support, [0] + cuts, cuts + [denom]):
                row[i] = Fraction(hi - lo, denom)
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decode_matches_full_scan_oracle(instance12, data):
    rows = data.draw(_ensemble_rows(instance12))
    ens = InnerDistributionEnsemble(rows)
    assert threshold_endpoints(ens) == _threshold_endpoints_oracle(ens.weights)
    found = _full_scan_oracle(instance12, ens.weights)
    # at most one codeword meets the guarantee (the proof in the docstring)
    assert len(found) <= 1
    expected = found[0][1] if found else None
    assert decode_from_distributions(instance12, ens) == expected


def test_ambiguous_ensemble_fails(instance12):
    # equal mass on two codewords' views at every vertex: expected
    # disagreement 1/2 from each, beyond delta_dec = 5/12 -> Fail
    h1 = instance12.encode_message([0, 1])
    h2 = instance12.encode_message([0, 2])
    _, picks1 = _point_mass_ensemble(instance12, h1)
    _, picks2 = _point_mass_ensemble(instance12, h2)
    m = instance12.inner.size
    weights = []
    for a, b in zip(picks1, picks2):
        row = [Fraction(0)] * m
        if a == b:
            row[a] = Fraction(1)
        else:
            row[a] = Fraction(1, 2)
            row[b] = Fraction(1, 2)
        weights.append(row)
    ens = InnerDistributionEnsemble(weights)
    assert decode_from_distributions(instance12, ens) is None


def test_local_views_point_mass_on_codeword(instance12):
    h = instance12.encode_message([9, 9])
    ens = local_views_to_distributions(instance12, h)
    picks = [
        instance12.outer_symbol_to_inner_index(s)
        for s in instance12.decode_to_outer(h)
    ]
    for l, idx in enumerate(picks):
        assert ens.weights[l][idx] == 1


def test_local_views_single_flip_keeps_point_mass(instance12):
    # inner distance 3/4 means one flipped edge is still uniquely closest
    h = instance12.encode_message([9, 9])
    edges = instance12.unfold(h)
    edges[0] = (edges[0] + 1) % 4
    g = instance12.fold(edges)
    ens = local_views_to_distributions(instance12, g)
    picks = [
        instance12.outer_symbol_to_inner_index(s)
        for s in instance12.decode_to_outer(h)
    ]
    for l, idx in enumerate(picks):
        assert ens.weights[l][idx] == 1


def test_ael_unique_decode_identity(instance12):
    h = instance12.encode_message([3, 3])
    result = ael_unique_decode(instance12, h)
    assert result == (h, Fraction(0))


def test_ael_unique_decode_corruption(instance12):
    h = instance12.encode_message([3, 3])
    for t in (1, 2):
        rng = np.random.default_rng(t)
        word = list(h)
        for pos in rng.permutation(12)[:t]:
            word[pos] = tuple((x + 1) % 4 for x in word[pos])
        result = ael_unique_decode(instance12, tuple(word))
        assert result is not None and result[0] == h


def _shifted(symbols):
    return tuple(tuple((x + 1) % 4 for x in t) for t in symbols)


@pytest.mark.parametrize("shape", ["short", "short-and-far", "long", "too-wide", "too-narrow"])
def test_ael_unique_decode_checks_shape_first(instance12, monkeypatch, shape):
    # "short" would decode and "short-and-far" would not; both are refused
    # before the decoder runs, as are a long word and mis-sized symbols
    h = instance12.encode_message([3, 3])
    word = {
        "short": h[:11],
        "short-and-far": _shifted(h[:8]),
        "long": h + h[:1],
        "too-wide": tuple(t + (0,) for t in h),
        "too-narrow": tuple(t[:3] for t in h),
    }[shape]

    def no_decode(*args):
        raise AssertionError("decoded a word of the wrong shape")

    monkeypatch.setattr(aelcert.rounding, "decode_from_distributions", no_decode)
    with pytest.raises(GraphMismatch):
        ael_unique_decode(instance12, word)


def test_ael_unique_decode_far_center_fails(instance12):
    words = instance12.enumerate_codewords()
    rng = np.random.default_rng(21)
    found_fail = False
    for _ in range(10):
        idx = [int(i) for i in rng.choice(256, 3, replace=False)]
        center, _ = plurality_center([words[i] for i in idx])
        ens = local_views_to_distributions(instance12, center)
        assert ens.weights == _local_views_oracle(instance12, center)
        if ael_unique_decode(instance12, center) is None:
            found_fail = True
            break
    assert found_fail


def test_returned_codeword_meets_guarantee(instance12):
    # no false positives: whatever comes back satisfies the expected
    # disagreement bound by construction; re-check explicitly
    h = instance12.encode_message([11, 5])
    ens = local_views_to_distributions(instance12, h)
    got = decode_from_distributions(instance12, ens)
    assert got == h
    picks = [
        instance12.outer_symbol_to_inner_index(s)
        for s in instance12.decode_to_outer(got)
    ]
    assert ens.expected_disagreement(picks) <= instance12.outer.delta_dec


def test_local_views_match_loop_oracle_on_ac3(gf4, gf16):
    graph = random_regular_bipartite(
        12, 4, seed=derive_seed(2024, "ac3-graph"), lam_target=0.95
    )
    code = AELCode(
        graph, RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]), RSOuterCode(gf16, 12, 2)
    )
    rng = np.random.default_rng(derive_seed(2024, "local-views-oracle"))
    ties = 0
    for h in code.enumerate_codewords():
        # the codeword itself, then up to 3 edge symbols per right vertex
        # overwritten with random ones, which leaves ties among nearest
        # inner codewords at some left vertices
        noisy = tuple(
            tuple(int(x) if keep else int(y) for x, y, keep in zip(t, row, mask))
            for t, row, mask in zip(
                h, rng.integers(0, 4, (12, 4)), rng.integers(0, 4, (12, 4)) > 0
            )
        )
        for word in (h, noisy):
            ens = local_views_to_distributions(code, word)
            assert ens.weights == _local_views_oracle(code, word)
            ties += sum(1 for row in ens.weights if max(row) < 1)
    assert ties > 0


def test_ael_unique_decode_rejects_erased_word(instance12, monkeypatch):
    h = instance12.encode_message([3, 3])
    word = (h[0], None) + h[2:]

    def no_decode(*args):
        raise AssertionError("decoded an erased word")

    monkeypatch.setattr(aelcert.rounding, "decode_from_distributions", no_decode)
    with pytest.raises(AelcertError, match="symbol 1 is erased"):
        ael_unique_decode(instance12, word)

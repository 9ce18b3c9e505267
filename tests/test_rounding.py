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
)
from aelcert.errors import Mismatch
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


def _expected_disagreement_oracle(weights, symbols):
    total = Fraction(0)
    for l, sigma in enumerate(symbols):
        total += 1 - weights[l][sigma]
    return total / len(weights)


def _weights(ens):
    """The ensemble's weights as Fractions: counts over scale."""
    return [[Fraction(c, ens.scale) for c in row] for row in ens.counts.tolist()]


def _round_theta(ens, theta):
    """Rounding at theta in [0, 1] is rounding at the integer threshold
    floor(theta * scale): every end is a multiple of 1/scale."""
    return ens._round(math.floor(theta * ens.scale))


def _full_scan_oracle(code, weights):
    """Reference decode: try every threshold and keep every distinct codeword
    within the guarantee, as (index of its first threshold, codeword)."""
    outer = code.outer
    found = []
    for j, theta in enumerate(_threshold_endpoints_oracle(weights)):
        h_star = rs_unique_decode(outer, _round_at_oracle(weights, theta))
        if h_star is None:
            continue
        if _expected_disagreement_oracle(weights, h_star) <= outer.delta_dec:
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
    picks = list(code.decode_to_outer(word))
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
    assert _weights(ens) == fracs
    assert ens.scale == scale
    assert (ens.counts.tolist(), ens.ends.tolist()) == (counts, ends)
    # int64 holds every count and end (all at most scale) exactly when scale < 2^63
    assert ens.counts.dtype == ens.ends.dtype == (np.int64 if scale < 2**63 else object)


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
    # rows of unequal length, at an int64 scale and past it, and no rows
    past = Fraction(1, 2**63)
    for ragged in ([[1, 0], [1]], [[past, 1 - past], [1]], []):
        with pytest.raises(ValueError, match="equal-length rows"):
            InnerDistributionEnsemble(ragged)


def test_round_at_picks_interval():
    # scale 4, ends 1, 2, 4: symbol 0 owns [0, 1), 1 owns [1, 2), 2 owns [2, 4)
    ens = InnerDistributionEnsemble(
        [[Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]]
    )
    assert [ens._round(t) for t in range(5)] == [[0], [1], [2], [2], [2]]
    assert _round_theta(ens, Fraction(499, 1000)) == [1]
    assert _round_theta(ens, Fraction(999, 1000)) == [2]


# the Mersenne primes 2^61 - 1 and 2^31 - 1: their product passes 2^63
_M61, _M31 = 2**61 - 1, 2**31 - 1

# name -> (weight rows, expected common scale)
_EDGE_TABLES = {
    "quarters": ([["1/4", "1/4", "1/2"]], 4),
    "zero-width": ([["1/2", "0", "1/2", "0"], ["0", "1/3", "0", "2/3"]], 6),
    "coprime": ([["1/3", "2/3", "0", "0"], ["1/7", "0", "6/7", "0"],
                 ["0", "1/11", "10/11", "0"], ["0", "0", "5/13", "8/13"]], 3 * 7 * 11 * 13),
    "point-mass": ([["0", "0", "1", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "1"]], 1),
    # the largest scale stored in int64, and the first past it, whose ends
    # [1, 2^63] would wrap in int64
    "int64-max": ([[f"1/{2**63 - 1}", f"{2**63 - 2}/{2**63 - 1}"]], 2**63 - 1),
    "past-int64": ([[f"1/{2**63}", f"{2**63 - 1}/{2**63}"]], 2**63),
    "mersenne": ([[f"1/{_M61}", f"{_M61 - 1}/{_M61}"], [f"{_M31 - 1}/{_M31}", f"1/{_M31}"]],
                 _M61 * _M31),
}


@pytest.mark.parametrize("name", sorted(_EDGE_TABLES))
def test_integer_rounding_matches_fraction_oracle(name):
    rows, scale = _EDGE_TABLES[name]
    weights = [[Fraction(w) for w in row] for row in rows]
    _assert_ensemble_matches_oracle(weights)
    ens = InnerDistributionEnsemble(weights)
    assert ens.scale == scale
    thresholds = ens._thresholds()
    assert [Fraction(t, scale) for t in thresholds] == _threshold_endpoints_oracle(weights)
    # every threshold and the integer either side of it in [0, scale], and
    # scale itself (theta = 1, reached through a zero last entry in
    # "zero-width"); then theta in [0, 1] a hair either side of each endpoint
    for t in sorted({max(t + e, 0) for t in thresholds + [scale] for e in (-1, 0, 1)}):
        picks = ens._round(t)
        assert picks == _round_at_oracle(weights, Fraction(t, scale)), t
        assert Fraction(ens._disagreement(picks), ens.n * scale) == \
            _expected_disagreement_oracle(weights, picks)
    hair = Fraction(1, 10**9)
    thetas = {Fraction(t, scale) + e for t in thresholds for e in (-hair, hair)}
    for theta in sorted(theta for theta in thetas if 0 <= theta <= 1):
        assert _round_theta(ens, theta) == _round_at_oracle(weights, theta), theta


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
        thresholds = ens._thresholds()
        assert [Fraction(t, ens.scale) for t in thresholds] == _threshold_endpoints_oracle(weights)
        assert len(thresholds) <= ens.m * ens.n
        seen = {tuple(ens._round(t)) for t in thresholds}
        for _ in range(1000):
            theta = Fraction(int(rng.integers(0, 10**6)), 10**6)
            picks = _round_theta(ens, theta)
            assert picks == _round_at_oracle(weights, theta)
            assert tuple(picks) in seen


def test_expected_disagreement():
    ens = InnerDistributionEnsemble(
        [
            [Fraction(3, 4), Fraction(1, 4)],
            [Fraction(1), Fraction(0)],
        ]
    )
    # n * scale * ED: 8 * 1/8 and 8 * 3/8
    assert ens._disagreement([0, 0]) == 1
    assert ens._disagreement([1, 0]) == 3


def test_point_mass_decodes_exactly(instance12):
    h = instance12.encode_message([7, 2])
    ens, picks = _point_mass_ensemble(instance12, h)
    assert ens._disagreement(picks) == 0
    assert decode_from_distributions(instance12, ens) == h


def test_planted_ensemble_recovery(instance12):
    for ens, h, picks in _planted_ensembles(instance12):
        assert _expected_disagreement_oracle(_weights(ens), picks) <= instance12.outer.delta_dec
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
        found = _full_scan_oracle(instance12, _weights(ens))
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
    assert _full_scan_oracle(instance12, _weights(ens)) == []


@st.composite
def _ensemble_rows(draw, code):
    """Weight rows for `code`: point masses, AC6-style planted steals, ties,
    low-weight decoys on a codeword, or random rows over mixed denominators."""
    words = code.enumerate_codewords()
    m = code.inner.size
    h = words[draw(st.integers(0, len(words) - 1))]
    picks = list(code.decode_to_outer(h))
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
    weights = _weights(ens)
    assert [Fraction(t, ens.scale) for t in ens._thresholds()] == \
        _threshold_endpoints_oracle(weights)
    found = _full_scan_oracle(instance12, weights)
    # at most one codeword meets the guarantee (the proof in the docstring)
    assert len(found) <= 1
    expected = found[0][1] if found else None
    assert decode_from_distributions(instance12, ens) == expected


@pytest.mark.parametrize("family", ["planted", "decoy"])
def test_ensemble_past_int64_decodes_as_the_oracle(instance12, family):
    # weights 1/(2^61 - 1) and 1/(2^31 - 1) on alternate rows: the scale is
    # their product, past 2^63, so counts and ends are Python ints; "planted"
    # puts that weight off h's symbol, "decoy" puts it on h's symbol
    h = instance12.encode_message([7, 2])
    _, picks = _point_mass_ensemble(instance12, h)
    m = instance12.inner.size
    weights = []
    for l, pick in enumerate(picks):
        row = [Fraction(0)] * m
        small = Fraction(1, _M61 if l % 2 else _M31)
        other = (pick + 1 + l) % m
        row[pick], row[other] = (1 - small, small) if family == "planted" else (small, 1 - small)
        weights.append(row)
    _assert_ensemble_matches_oracle(weights)
    ens = InnerDistributionEnsemble(weights)
    assert ens.scale == _M61 * _M31
    thresholds = ens._thresholds()
    assert [Fraction(t, ens.scale) for t in thresholds] == _threshold_endpoints_oracle(weights)
    for t in thresholds + [ens.scale]:
        assert ens._round(t) == _round_at_oracle(weights, Fraction(t, ens.scale))
    assert Fraction(ens._disagreement(picks), ens.n * ens.scale) == \
        _expected_disagreement_oracle(weights, picks)
    found = _full_scan_oracle(instance12, weights)
    got = decode_from_distributions(instance12, ens)
    assert got == (found[0][1] if found else None)
    assert (got == h) == (family == "planted")


@st.composite
def _noisy_words(draw, code):
    """A codeword of `code` with some of its edge symbols overwritten, which
    leaves ties among the nearest inner codewords at some left views."""
    h = code.encode_message([draw(st.integers(0, 15)), draw(st.integers(0, 15))])
    edges = code.unfold(h)
    count = draw(st.integers(0, len(edges)))
    for pos in draw(st.permutations(range(len(edges))))[:count]:
        edges[pos] = draw(st.integers(0, 3))
    return code.fold(edges)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_local_views_decode_matches_fraction_oracles(instance12, data):
    word = data.draw(_noisy_words(instance12))
    weights = _local_views_oracle(instance12, word)
    ens = local_views_to_distributions(instance12, word)
    assert _weights(ens) == weights
    found = _full_scan_oracle(instance12, weights)
    assert decode_from_distributions(instance12, ens) == (found[0][1] if found else None)


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
    picks = list(instance12.decode_to_outer(h))
    for l, idx in enumerate(picks):
        assert ens.counts[l, idx] == ens.scale


def test_local_views_single_flip_keeps_point_mass(instance12):
    # inner distance 3/4 means one flipped edge is still uniquely closest
    h = instance12.encode_message([9, 9])
    edges = instance12.unfold(h)
    edges[0] = (edges[0] + 1) % 4
    g = instance12.fold(edges)
    ens = local_views_to_distributions(instance12, g)
    picks = list(instance12.decode_to_outer(h))
    for l, idx in enumerate(picks):
        assert ens.counts[l, idx] == ens.scale


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


@pytest.mark.parametrize("shape", ["short", "short-and-far", "long", "too-wide", "too-narrow",
                                   "entry-above-q", "entry-negative"])
def test_ael_unique_decode_checks_shape_first(instance12, monkeypatch, shape):
    # "short" would decode and "short-and-far" would not; both are refused
    # before the decoder runs, as are a long word, mis-sized symbols and
    # entries outside GF(4)
    h = instance12.encode_message([3, 3])
    word = {
        "short": h[:11],
        "short-and-far": _shifted(h[:8]),
        "long": h + h[:1],
        "too-wide": tuple(t + (0,) for t in h),
        "too-narrow": tuple(t[:3] for t in h),
        "entry-above-q": ((99, 99, 99, 99),) + h[1:],
        "entry-negative": ((-1, 0, 0, 0),) + h[1:],
    }[shape]

    def no_decode(*args):
        raise AssertionError("decoded a word of the wrong shape")

    monkeypatch.setattr(aelcert.rounding, "decode_from_distributions", no_decode)
    message = "word has an entry outside" if shape.startswith("entry") else "word shape"
    with pytest.raises(Mismatch, match=message):
        ael_unique_decode(instance12, word)


@pytest.mark.parametrize("entry", [0.5, True])
def test_ael_unique_decode_refuses_an_entry_that_is_not_an_integer(instance12, entry):
    # either entry is near enough to decode to h; numpy integers are integers
    h = instance12.encode_message([3, 3])
    with pytest.raises(ValueError, match="word entry"):
        ael_unique_decode(instance12, ((entry,) + h[0][1:],) + h[1:])
    assert ael_unique_decode(instance12, [tuple(np.array(t)) for t in h])[0] == h


def test_ael_unique_decode_far_center_fails(instance12):
    words = instance12.enumerate_codewords()
    rng = np.random.default_rng(21)
    found_fail = False
    for _ in range(10):
        idx = [int(i) for i in rng.choice(256, 3, replace=False)]
        center, _ = plurality_center([words[i] for i in idx])
        ens = local_views_to_distributions(instance12, center)
        assert _weights(ens) == _local_views_oracle(instance12, center)
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
    picks = list(instance12.decode_to_outer(got))
    assert _expected_disagreement_oracle(_weights(ens), picks) <= instance12.outer.delta_dec


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
            weights = _weights(ens)
            assert weights == _local_views_oracle(code, word)
            ties += sum(1 for row in weights if max(row) < 1)
    assert ties > 0


def test_ael_unique_decode_rejects_erased_word(instance12, monkeypatch):
    h = instance12.encode_message([3, 3])
    word = (h[0], None) + h[2:]

    def no_decode(*args):
        raise AssertionError("decoded an erased word")

    monkeypatch.setattr(aelcert.rounding, "decode_from_distributions", no_decode)
    with pytest.raises(Mismatch, match="symbol 1 is erased"):
        ael_unique_decode(instance12, word)

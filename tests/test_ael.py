"""Edge-routed code composition, fold/unfold, metrics, distance amplification."""

from fractions import Fraction

import numpy as np
import pytest

from aelcert import (
    AELCode,
    ERASED,
    ErasedWord,
    LinearCode,
    complete_bipartite,
    pair_counting_check,
    random_regular_bipartite,
    sample_random_linear_code,
    verify_distance_amplification,
)
from aelcert.errors import (
    AmplificationViolation,
    EnumerationTooLarge,
    GraphMismatch,
    NotAnOuterCodeword,
)
from aelcert.outer import RSOuterCode
from aelcert.seeds import derive_seed


@pytest.fixture(scope="module")
def instance12(gf4, gf16):
    graph = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    inner = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    outer = RSOuterCode(gf16, 12, 2)
    return AELCode(graph, inner, outer)


def test_component_shape_validation(gf2, gf4, gf16):
    graph = complete_bipartite(4)
    inner = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    with pytest.raises(GraphMismatch):
        AELCode(graph, inner, RSOuterCode(gf16, 12, 2))  # outer length != n
    with pytest.raises(GraphMismatch):
        AELCode(graph, LinearCode(gf2, [[1, 1, 1]]), RSOuterCode(gf16, 4, 2))
    with pytest.raises(GraphMismatch):
        # |Sigma_out| = 4 but |C_in| = 16
        AELCode(graph, inner, RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]))


def test_delta_in_and_out_are_computed_once(gf4, gf16, monkeypatch):
    code = AELCode(
        complete_bipartite(4), RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]),
        RSOuterCode(gf16, 4, 2),
    )

    def too_large():
        raise EnumerationTooLarge("too many codewords")

    # a refused enumeration surfaces on access, each time, and is not kept
    monkeypatch.setattr(code.inner, "min_distance", too_large)
    for _ in range(2):
        with pytest.raises(EnumerationTooLarge):
            code.delta_in
    monkeypatch.undo()
    calls = []
    for part in (code.inner, code.outer):
        monkeypatch.setattr(
            part, "min_distance", lambda part=part: calls.append(part) or type(part).min_distance(part)
        )
    assert [code.delta_in for _ in range(3)] == [Fraction(3, 4)] * 3
    assert [code.delta_out for _ in range(3)] == [Fraction(3, 4)] * 3
    assert calls == [code.inner, code.outer]


def test_k11_passthrough(gf2):
    graph = complete_bipartite(1)
    inner = LinearCode(gf2, [[1]])
    outer = LinearCode(gf2, [[1]])
    code = AELCode(graph, inner, outer)
    assert code.encode((0,)) == ((0,),)
    assert code.encode((1,)) == ((1,),)


def test_zero_codeword_maps_to_zero(instance12):
    zero = instance12.encode([0] * 12)
    assert zero == (((0,) * 4),) * 12


def test_encode_rejects_non_codeword(instance12):
    with pytest.raises(NotAnOuterCodeword):
        instance12.encode([1] + [0] * 11)


def test_encode_rejects_symbols_outside_outer_field(instance12):
    # GF(16) symbols lie in [0, 16); anything else is not an outer codeword
    for bad in (99, 16, -1):
        with pytest.raises(NotAnOuterCodeword):
            instance12.encode([bad] + [0] * 11)


def test_left_views_are_inner_codewords(instance12):
    inner_set = set(instance12.inner.enumerate_codewords())
    for msg in ([1, 0], [3, 7], [15, 15]):
        word = instance12.encode_message(msg)
        views = instance12.left_views(word)
        assert all(v in inner_set for v in views)
        # phi^{-1} of the views reassembles the outer codeword
        assert instance12.decode_to_outer(word) == instance12.outer.encode(msg)


def test_fold_unfold_round_trip(instance12):
    for msg in ([0, 0], [1, 2], [9, 4]):
        word = instance12.encode_message(msg)
        assert instance12.fold(instance12.unfold(word)) == word


def test_fold_unfold_all_codewords(instance12):
    for word in instance12.enumerate_codewords():
        assert instance12.fold(instance12.unfold(word)) == word


def test_phi_is_a_bijection(instance12):
    n_symbols = instance12.outer.field.q
    images = {instance12.phi[s] for s in range(n_symbols)}
    assert len(images) == n_symbols
    assert images == set(instance12.inner.enumerate_codewords())


def test_metrics_identical_words(instance12):
    w = instance12.encode_message([5, 1])
    assert instance12.delta_L(w, w) == 0
    assert instance12.delta_R(w, w) == 0


def test_single_edge_difference(gf2):
    # flipping one edge symbol touches exactly one vertex on each side
    graph = complete_bipartite(2)
    inner = LinearCode(gf2, [[1, 0], [0, 1]])
    code = AELCode(graph, inner, RSOuterCode(make_gf4(), 2, 1, points=[0, 1]))
    w = code.encode_message([0])
    edges = code.unfold(w)
    edges[0] ^= 1
    w2 = code.fold(edges)
    assert code.delta_L(w, w2) == Fraction(1, 2)
    assert code.delta_R(w, w2) == Fraction(1, 2)


def make_gf4():
    from aelcert import make_field

    return make_field(2, 2)


def test_delta_L_equals_outer_distance(instance12):
    # phi is injective, so left views differ exactly where outer symbols do
    # difference polynomial 3x vanishes at the single evaluation point 0
    w1 = instance12.encode_message([1, 1])
    w2 = instance12.encode_message([1, 2])
    outer1 = instance12.outer.encode([1, 1])
    outer2 = instance12.outer.encode([1, 2])
    expect = Fraction(sum(1 for a, b in zip(outer1, outer2) if a != b), 12)
    assert instance12.delta_L(w1, w2) == expect
    assert expect == Fraction(11, 12)


def test_delta_R_erased(instance12):
    w = instance12.encode_message([1, 0])
    assert instance12.delta_R_erased(ErasedWord(w), w) == 0
    assert instance12.delta_R_erased(ErasedWord((ERASED,) * 12), w) == 0
    other = instance12.encode_message([2, 0])
    masked = tuple(ERASED if i == 0 else w[i] for i in range(12))
    d_plain = instance12.delta_R(w, other)
    d_masked = instance12.delta_R_erased(ErasedWord(masked), other)
    hidden = Fraction(1 if w[0] != other[0] else 0, 12)
    assert d_masked == d_plain - hidden


def test_rate_exact(instance12):
    # log_{|Sigma|}|C_AEL| / n = (2 symbols * 4 bits) / (12 * 4 * 2 bits) = 1/12,
    # equal to rate_out * rate_in = (1/6)(1/2)
    assert instance12.rate() == Fraction(1, 12)
    assert isinstance(instance12.rate(), Fraction)
    assert instance12.rate() >= instance12.outer.rate * instance12.inner.rate
    assert instance12.rate() == instance12.outer.rate * instance12.inner.rate


def test_rate_with_length12_inner(gf4, gf16):
    graph = complete_bipartite(12)
    inner = sample_random_linear_code(gf4, 12, 2, np.random.default_rng(1))
    code = AELCode(graph, inner, RSOuterCode(gf16, 12, 2))
    assert code.rate() == Fraction(2 * 2, 12 * 12)


def test_amplification_complete_graph(gf4, gf16):
    # lambda = 0: min Delta_R >= delta_in exactly
    graph = complete_bipartite(12)
    inner = sample_random_linear_code(gf4, 12, 2, np.random.default_rng(1))
    code = AELCode(graph, inner, RSOuterCode(gf16, 12, 2))
    report = _assert_amplification_matches_oracle(code)
    assert report["min_delta_R"] >= code.delta_in - code.graph.lam_bound
    assert not report["global_bound_vacuous"]


def test_amplification_expander_instance(instance12):
    report = _assert_amplification_matches_oracle(instance12)
    assert report["pairs_checked"] == 256 * 255 // 2
    assert report["min_delta_R"] == Fraction(11, 12)
    # delta_in - lam/delta_out = 3/4 - 0.661/(11/12) is barely positive on
    # this graph, so the global bound is asserted too
    assert not report["global_bound_vacuous"]
    assert report["min_delta_R"] >= report["global_bound"]


def test_amplification_identity_inner(gf4, gf16):
    # degenerate inner code with delta_in = 1/d: bound trivial but honest
    graph = complete_bipartite(12)
    gen = [[0] * 12 for _ in range(2)]
    gen[0][0] = 1
    gen[1][1] = 1
    inner = LinearCode(gf4, gen)
    code = AELCode(graph, inner, RSOuterCode(gf16, 12, 2))
    report = _assert_amplification_matches_oracle(code)
    assert report["min_delta_R"] >= code.delta_in - code.graph.lam_bound


def test_pair_counting_argument(instance12):
    words = instance12.enumerate_codewords()
    for i, j in [(0, 1), (5, 200), (17, 31)]:
        if words[i] == words[j]:
            continue
        result = pair_counting_check(instance12, words[i], words[j])
        assert result["lower_ok"] and result["upper_ok"]


def test_amplification_violation_raises(gf4, gf16):
    graph = complete_bipartite(12)
    inner = sample_random_linear_code(gf4, 12, 2, np.random.default_rng(1))
    code = AELCode(graph, inner, RSOuterCode(gf16, 12, 2))
    words = code.enumerate_codewords()
    # duplicated codewords trip the Delta_L = 0 degeneracy check
    with pytest.raises(AmplificationViolation):
        code2 = AELCode(graph, inner, RSOuterCode(gf16, 12, 2))
        code2._codewords = [words[0], words[0]]
        verify_distance_amplification(code2)
    assert _assert_amplification_matches_oracle(code2) == (
        "AmplificationViolation: pair (0,1) has Delta_L = 0"
    )
    # a single word leaves no pair to check
    code2._codewords = [words[0]]
    report = _assert_amplification_matches_oracle(code2)
    assert report["pairs_checked"] == 0 and report["min_delta_R"] is None


def _verify_amplification_pair_loop_oracle(code):
    """Reference: the amplification check as one Fraction comparison per pair."""
    words = code.enumerate_codewords()
    views = [code.left_views(w) for w in words]
    delta_in = code.delta_in
    delta_out = code.delta_out
    lam = code.graph.lam_bound
    global_bound = delta_in - lam / delta_out
    n = code.n
    min_dr = None
    pairs = 0
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            dl = Fraction(sum(1 for a, b in zip(views[i], views[j]) if a != b), n)
            dr = Fraction(sum(1 for a, b in zip(words[i], words[j]) if a != b), n)
            pairs += 1
            if dl == 0:
                raise AmplificationViolation(f"pair ({i},{j}) has Delta_L = 0")
            if dr < delta_in - lam / dl:
                raise AmplificationViolation(
                    f"pair ({i},{j}): Delta_R={dr} < {delta_in - lam / dl}"
                )
            if global_bound > 0 and dr < global_bound:
                raise AmplificationViolation(
                    f"pair ({i},{j}): Delta_R={dr} below global bound {global_bound}"
                )
            if min_dr is None or dr < min_dr:
                min_dr = dr
    return {
        "pairs_checked": pairs,
        "min_delta_R": min_dr,
        "delta_in": delta_in,
        "delta_out": delta_out,
        "lam_bound": lam,
        "global_bound": global_bound,
        "global_bound_vacuous": global_bound <= 0,
    }


def _amplification_outcome(check, code):
    try:
        return check(code)
    except AmplificationViolation as exc:
        return f"AmplificationViolation: {exc}"


def _assert_amplification_matches_oracle(code):
    got = _amplification_outcome(verify_distance_amplification, code)
    assert got == _amplification_outcome(_verify_amplification_pair_loop_oracle, code)
    return got


def _ac3_code(gf4, gf16, lam=None):
    """The AC3 instance; lam, when given, replaces the graph's measured lambda."""
    graph = random_regular_bipartite(
        12, 4, seed=derive_seed(2024, "ac3-graph"), lam_target=0.95
    )
    if lam is not None:
        graph.lam = lam
    return AELCode(
        graph, RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]), RSOuterCode(gf16, 12, 2)
    )


@pytest.fixture(scope="module")
def ac3(gf4, gf16):
    return _ac3_code(gf4, gf16)


def test_enumeration_cap_is_checked_after_the_words_are_cached(gf4, gf16):
    code = _ac3_code(gf4, gf16)
    words = code.enumerate_codewords()
    assert len(words) == 256
    with pytest.raises(EnumerationTooLarge):
        code.enumerate_codewords(cap=10)
    assert code.enumerate_codewords(cap=256) is words


def test_amplification_matches_oracle_on_ac3(ac3):
    report = _assert_amplification_matches_oracle(ac3)
    assert report["pairs_checked"] == 32640
    assert report["min_delta_R"] == Fraction(11, 12)


def _tampered_pair(gf4, gf16, lam):
    """Two words of the instance12 shape that differ only in left vertex 0's
    view, replaced by an inner codeword at distance 3 from it."""
    graph = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    graph.lam = lam
    code = AELCode(
        graph, RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]), RSOuterCode(gf16, 12, 2)
    )
    w = code.encode_message([3, 1])
    view = code.left_views(w)[0]
    far = next(
        c for c in code.inner.enumerate_codewords()
        if sum(1 for a, b in zip(c, view) if a != b) == 3
    )
    edges = code.unfold(w)
    for i, x in enumerate(far):
        edges[0 * code.d + i] = x  # edge l*d + i is the i-th edge of left vertex l
    w2 = code.fold(edges)
    assert code.delta_L(w, w2) == Fraction(1, 12)
    assert code.delta_R(w, w2) == Fraction(3, 12)
    code._codewords = [w, w2]
    return code


@pytest.mark.parametrize("lam,message", [
    # the per-pair bound fails (and the global bound too)
    (0.0, "pair (0,1): Delta_R=1/4 < 187497/250000"),
    # n times the per-pair bound is about 3.53, just above the Delta_R count
    # 3; the larger global bound (8.5 counts) fails as well
    (0.038, "pair (0,1): Delta_R=1/4 < 73497/250000"),
    # the per-pair bound is negative; only the global bound fails
    (0.1, "pair (0,1): Delta_R=1/4 below global bound 160227/250000"),
    # n times the global bound is about 3.11: rounding it down to 3 would
    # pass this pair, rounding it up fails it
    (0.45, "pair (0,1): Delta_R=1/4 below global bound 712497/2750000"),
])
def test_amplification_matches_oracle_on_tampered_pair(gf4, gf16, lam, message):
    got = _assert_amplification_matches_oracle(_tampered_pair(gf4, gf16, lam))
    assert got == f"AmplificationViolation: {message}"


# -- loop oracles for the route-array fold, unfold, left views and encode ----


def _right_edges_oracle(graph):
    """Per right vertex, its incident edge ids l*d + i in increasing order."""
    right_edges = [[] for _ in range(graph.n)]
    for l, row in enumerate(graph.left_adj):
        for i, r in enumerate(row):
            right_edges[r].append(l * graph.d + i)
    return [sorted(edges) for edges in right_edges]


def _fold_loop_oracle(code, edge_vals):
    return tuple(
        tuple(edge_vals[e] for e in edges) for edges in _right_edges_oracle(code.graph)
    )


def _unfold_loop_oracle(code, word):
    edge_vals = [0] * (code.n * code.d)
    for edges, tup in zip(_right_edges_oracle(code.graph), word):
        for e, x in zip(edges, tup):
            edge_vals[e] = x
    return edge_vals


def _left_views_loop_oracle(code, word):
    edge_vals = _unfold_loop_oracle(code, word)
    return [
        tuple(edge_vals[l * code.d + i] for i in range(code.d)) for l in range(code.n)
    ]


def _encode_loop_oracle(code, outer_codeword):
    edge_vals = [0] * (code.n * code.d)
    for l, sigma in enumerate(outer_codeword):
        for i, x in enumerate(code.phi[sigma]):
            edge_vals[l * code.d + i] = x
    return _fold_loop_oracle(code, edge_vals)


def _assert_routing_matches_oracles(code, word, edge_vals):
    assert code.unfold(word) == _unfold_loop_oracle(code, word)
    assert code.left_views(word) == _left_views_loop_oracle(code, word)
    assert code.fold(edge_vals) == _fold_loop_oracle(code, edge_vals)
    assert all(type(x) is int for x in code.unfold(word))
    assert all(type(x) is int for t in code.fold(edge_vals) for x in t)


def test_routing_matches_loop_oracles_on_ac3_codewords(ac3):
    outer_words = ac3.outer.enumerate_codewords()
    words = ac3.enumerate_codewords()
    assert len(words) == 256
    for outer_word, word in zip(outer_words, words):
        assert word == _encode_loop_oracle(ac3, outer_word)
        _assert_routing_matches_oracles(ac3, word, _unfold_loop_oracle(ac3, word))


@pytest.mark.parametrize("n,d", [(12, 4), (16, 3), (5, 5)])
def test_routing_matches_loop_oracles_on_random_words(gf4, n, d):
    rng = np.random.default_rng(derive_seed(n * d, "routing-oracle"))
    graph = random_regular_bipartite(n, d, seed=n + d, lam_target=1.0)
    inner = sample_random_linear_code(gf4, d, 1, rng)
    code = AELCode(graph, inner, LinearCode(gf4, [[1] * n]))
    for _ in range(50):
        word = tuple(tuple(int(x) for x in row) for row in rng.integers(0, 4, (n, d)))
        edge_vals = [int(x) for x in rng.integers(0, 4, n * d)]
        _assert_routing_matches_oracles(code, word, edge_vals)
        assert code.fold(code.unfold(word)) == word


def _pair_counting_fraction_oracle(code, f, g):
    """Reference: the edge-counting argument with Fraction arithmetic and
    its own edge walk."""
    views_f, views_g = code.left_views(f), code.left_views(g)
    L = [l for l in range(code.n) if views_f[l] != views_g[l]]
    R = {r for r in range(code.n) if f[r] != g[r]}
    e_lr = sum(1 for l in L for r in code.graph.left_adj[l] if r in R)
    lam = code.graph.lam_bound
    d, n = code.d, code.n
    lower_ok = Fraction(e_lr) >= code.delta_in * d * len(L)
    dev = Fraction(e_lr) - Fraction(d * len(L) * len(R), n)
    upper_ok = dev <= 0 or dev * dev <= lam * lam * d * d * len(L) * len(R)
    return {
        "L_size": len(L),
        "R_size": len(R),
        "edges": e_lr,
        "lower_ok": bool(lower_ok),
        "upper_ok": bool(upper_ok),
    }


@pytest.mark.parametrize("lam", [None, 0.0])
def test_pair_counting_matches_fraction_oracle_on_ac3(gf4, gf16, lam):
    code = _ac3_code(gf4, gf16, lam)
    words = code.enumerate_codewords()
    # both sides read the same views; left_views has its own oracle test
    views = {w: code.left_views(w) for w in words}
    code.left_views = views.__getitem__
    verdicts = set()
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            got = pair_counting_check(code, words[i], words[j])
            assert got == _pair_counting_fraction_oracle(code, words[i], words[j])
            verdicts.add((got["lower_ok"], got["upper_ok"]))
    # at lambda = 0 the upper bound fails on some pairs, so failing verdicts
    # are compared too
    assert ((True, False) in verdicts) == (lam == 0.0)

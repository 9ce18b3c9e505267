"""Edge-routed code composition, fold/unfold, metrics, distance amplification."""

from fractions import Fraction

import numpy as np
import pytest

from aelcert import (
    AELCode,
    ERASED,
    ErasedWord,
    LinearCode,
    ael_rate,
    complete_bipartite,
    pair_counting_check,
    random_regular_bipartite,
    sample_random_linear_code,
    verify_distance_amplification,
)
from aelcert.errors import (
    AmplificationViolation,
    GraphMismatch,
    NotAnOuterCodeword,
)
from aelcert.outer import RSOuterCode


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
    assert ael_rate(instance12) == instance12.outer.rate * instance12.inner.rate


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
    report = verify_distance_amplification(code)
    assert report["min_delta_R"] >= code.delta_in - code.graph.lam_bound
    assert not report["global_bound_vacuous"]


def test_amplification_expander_instance(instance12):
    report = verify_distance_amplification(instance12)
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
    report = verify_distance_amplification(code)
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

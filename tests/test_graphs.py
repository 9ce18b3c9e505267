"""Bipartite expanders: regularity, the route array, spectra, mixing lemma."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aelcert import (
    BipartiteGraph,
    complete_bipartite,
    eml_failures,
    random_regular_bipartite,
    verify_eml,
    verify_eml_sets,
)
from aelcert.errors import Mismatch, SearchExhausted
from aelcert import graphs
from aelcert.graphs import INT64_EXACT, LAMBDA_SAFETY, _eml_rows, _eml_set_rows, _mixing_ok
from aelcert.seeds import derive_seed


@pytest.fixture
def cycle8():
    # C_8 as a 2-regular bipartite graph on 4 + 4 vertices
    return BipartiteGraph(4, 2, [[0, 1], [1, 2], [2, 3], [3, 0]])


def test_regularity_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, [[0, 0], [1, 1]])  # parallel edges
    with pytest.raises(ValueError):
        BipartiteGraph(3, 2, [[0, 1], [0, 1], [0, 1]])  # right degree 3/3/0


@pytest.mark.parametrize("adj", [[[0, 1], [1, 0]], [[0, 1], [1, 2], [2]], [[0, 1]] * 4],
                         ids=["two-rows", "short-row", "four-rows"])
def test_adjacency_must_be_n_rows_of_d(adj):
    with pytest.raises(ValueError, match="n rows of d right vertices"):
        BipartiteGraph(3, 2, adj)


def test_complete_bipartite_lambda_zero():
    assert complete_bipartite(2).lam == pytest.approx(0, abs=1e-9)
    assert complete_bipartite(16).lam <= 1e-9


def test_cycle8_lambda(cycle8):
    assert cycle8.lam == pytest.approx(math.sqrt(2) / 2, abs=1e-9)


def test_disconnected_lambda_one():
    # two disjoint copies of K_{2,2}: sigma_2 = sigma_1 = 1
    g = BipartiteGraph(4, 2, [[0, 1], [0, 1], [2, 3], [2, 3]])
    assert g.lam == pytest.approx(1, abs=1e-9)


def test_lam_bound_is_conservative(cycle8):
    assert cycle8.lam_bound > Fraction(cycle8.lam).limit_denominator(10**12)
    assert float(cycle8.lam_bound) - cycle8.lam <= 2e-6


def test_lam_bound_is_computed_once_and_assignable(cycle8, monkeypatch):
    calls = []
    limit = Fraction.limit_denominator
    monkeypatch.setattr(
        Fraction, "limit_denominator", lambda self, *a: calls.append(1) or limit(self, *a)
    )
    first = cycle8.lam_bound
    assert cycle8.lam_bound == first and cycle8.lam_bound == first
    assert len(calls) == 1
    # one edge between left 0 and right 0: a nonzero deviation, which the
    # measured bound allows and an assigned bound of 0 does not
    f, g = [1, 0, 0, 0], [1, 0, 0, 0]
    assert verify_eml(cycle8, f, g)[2]
    cycle8.lam_bound = Fraction(0)
    _, bound, ok = verify_eml(cycle8, f, g)
    assert bound == 0.0 and not ok
    assert cycle8.lam == pytest.approx(math.sqrt(2) / 2, abs=1e-9)
    assert len(calls) == 1


@pytest.mark.parametrize("graph", [
    complete_bipartite(1),
    BipartiteGraph(4, 2, [[0, 1], [1, 2], [2, 3], [3, 0]]),
    BipartiteGraph(4, 2, [[1, 0], [2, 1], [3, 2], [0, 3]]),
    random_regular_bipartite(12, 4, seed=7, lam_target=0.95),
], ids=["k11", "cycle8", "cycle8-reversed-rows", "random12"])
def test_route_is_the_right_edge_order(graph):
    n, d = graph.n, graph.d
    assert graph.route.shape == (n, d)
    assert sorted(graph.route.ravel().tolist()) == list(range(n * d))
    for r, row in enumerate(graph.route.tolist()):
        assert row == sorted(row)
        # edge e = l*d + i is the i-th edge of left vertex l and ends at r
        assert all(graph.left_adj[e // d][e % d] == r for e in row)


def test_vertex_outside_range_rejected():
    with pytest.raises(ValueError):
        BipartiteGraph(2, 1, [[0], [-1]])
    with pytest.raises(ValueError):
        BipartiteGraph(2, 1, [[0], [2]])
    k44 = complete_bipartite(4)
    with pytest.raises(ValueError):
        verify_eml_sets(k44, [-1], [0])
    with pytest.raises(ValueError):
        verify_eml_sets(k44, [0], [7, 8, 9])


@pytest.mark.parametrize("n,d,left_adj,seed,name", [
    (2, 2, [[0.9, 1.2], [0, 1]], None, "left_adj"),
    (2.0, 2, [[0, 1], [1, 0]], None, "n"),
    (2, True, [[0], [1]], None, "d"),
    (2, 1, [[0], [1]], 7.0, "seed"),
])
def test_graph_input_that_is_not_an_integer_rejected(n, d, left_adj, seed, name):
    with pytest.raises(ValueError, match=name):
        BipartiteGraph(n, d, left_adj, seed=seed)


def test_graph_of_numpy_integers_accepted():
    g = BipartiteGraph(np.int64(4), np.int32(2), np.array([[0, 1], [1, 2], [2, 3], [3, 0]]),
                       seed=np.uint8(3))
    assert g.left_adj == [[0, 1], [1, 2], [2, 3], [3, 0]]
    assert all(type(x) is int for x in (g.n, g.d, g.seed, g.left_adj[0][0]))


def test_biadjacency_matches_loop_oracle():
    g = random_regular_bipartite(24, 5, seed=11, lam_target=1.0)
    A = np.zeros((g.n, g.n))
    for l, row in enumerate(g.left_adj):
        for r in row:
            A[l, r] = 1.0
    assert np.array_equal(g.biadjacency(), A)


def test_random_graph_deterministic():
    g1 = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    g2 = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    assert g1.left_adj == g2.left_adj
    assert g1.lam == g2.lam


def test_random_graph_regular():
    g = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    assert all(len(set(row)) == 4 for row in g.left_adj)
    degrees = [0] * 12
    for row in g.left_adj:
        for r in row:
            degrees[r] += 1
    assert degrees == [4] * 12


def test_lambda_target_zero_unreachable():
    with pytest.raises(SearchExhausted, match="no graph with lambda <= 0.0 in 3 tries"):
        random_regular_bipartite(6, 2, seed=0, lam_target=0.0, max_tries=3)


def test_generator_calibration_n256():
    # frozen after a 20-seed sweep: every seed met lambda <= 2*sqrt(7)/8 + 0.10
    # within 5 tries; spot-check 3 seeds here
    target = 2 * math.sqrt(7) / 8 + 0.10
    for s in range(3):
        g = random_regular_bipartite(
            256, 8, seed=derive_seed(s, "calib-graph"), lam_target=target,
            max_tries=5,
        )
        assert g.lam <= target


def test_eml_constant_vectors(cycle8):
    ones = [Fraction(1)] * 4
    dev, bound, ok = verify_eml(cycle8, ones, ones)
    assert dev == 0 and ok


def test_eml_accepts_exact_and_inexact_entries(cycle8):
    # ints and Fractions pass through; floats and numpy ints convert exactly
    # (a numpy int kept inside a Fraction would overflow the int64 products)
    f = [1, Fraction(1, 3), 0.5, np.int64(-2)]
    g = [Fraction(2, 7), -1, 3, 0.25]
    exact = [[1, Fraction(1, 3), Fraction(1, 2), -2], [Fraction(2, 7), -1, 3, Fraction(1, 4)]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_eml(cycle8, f, g) == _verify_eml_fraction_oracle(cycle8, *exact)


def test_eml_length_mismatch(cycle8):
    with pytest.raises(Mismatch, match="f and g must have length n"):
        verify_eml(cycle8, [Fraction(1)] * 3, [Fraction(1)] * 4)


def _verify_eml_fraction_oracle(graph, f, g):
    """Reference: the mixing-lemma check as one Fraction per edge."""
    n, d = graph.n, graph.d
    f = [Fraction(x) for x in f]
    g = [Fraction(x) for x in g]
    edge_sum = Fraction(0)
    for l in range(n):
        for r in graph.left_adj[l]:
            edge_sum += f[l] * g[r]
    lhs = abs(edge_sum / (n * d) - (sum(f) / n) * (sum(g) / n))
    ef2 = sum(x * x for x in f) / n
    eg2 = sum(x * x for x in g) / n
    lam = graph.lam_bound
    ok = lhs * lhs <= lam * lam * ef2 * eg2
    bound = float(lam) * math.sqrt(float(ef2) * float(eg2))
    return lhs, bound, ok


def _understated_lambda_graph():
    # a false lambda makes the check fail on most inputs, so the verdict
    # is compared on failures as well as passes
    graph = BipartiteGraph(4, 2, [[0, 1], [1, 2], [2, 3], [3, 0]])
    graph.lam_bound = Fraction(1, 10) + LAMBDA_SAFETY
    return graph


_EML_GRAPHS = {
    "cycle8": BipartiteGraph(4, 2, [[0, 1], [1, 2], [2, 3], [3, 0]]),
    "cycle8-understated": _understated_lambda_graph(),
    "random12": random_regular_bipartite(12, 4, seed=7, lam_target=0.95),
    "k5": complete_bipartite(5),
}


@st.composite
def _eml_case(draw):
    graph = _EML_GRAPHS[draw(st.sampled_from(sorted(_EML_GRAPHS)))]
    # mixed denominators, integers, and the all-zero vector
    entry = st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=60),
        st.integers(-5, 5),
    )
    vec = st.one_of(
        st.lists(entry, min_size=graph.n, max_size=graph.n),
        st.just([0] * graph.n),
    )
    return graph, draw(vec), draw(vec)


@given(case=_eml_case())
@settings(max_examples=300, deadline=None)
def test_eml_matches_fraction_oracle(case):
    graph, f, g = case
    lhs, bound, ok = verify_eml(graph, f, g)
    ref = _verify_eml_fraction_oracle(graph, f, g)
    assert isinstance(lhs, Fraction)
    assert (lhs, bound, ok) == ref


# pairwise coprime, so the common denominator is their product
_COPRIME_DENOMINATORS = [1, 3, 5, 7, 11, 13, 17, 19, 23]


@st.composite
def _eml_big_case(draw):
    """Entries of magnitude 2^40 and more over coprime denominators: every
    such pair is past the int64 bound, so `verify_eml` sums in Python ints."""
    graph = _EML_GRAPHS[draw(st.sampled_from(sorted(_EML_GRAPHS)))]
    entry = st.builds(
        lambda sign, num, den: Fraction(sign * num, den),
        st.sampled_from([-1, 1]), st.integers(2**40, 2**70),
        st.sampled_from(_COPRIME_DENOMINATORS),
    )
    vec = st.lists(entry, min_size=graph.n, max_size=graph.n)
    return graph, draw(vec), draw(vec)


def _largest_scaled(v):
    """max |v[i] * D|, D the least common denominator of v."""
    D = math.lcm(*(x.denominator for x in v))
    return max(abs(x.numerator) * (D // x.denominator) for x in v)


def test_eml_past_the_int64_bound_needs_python_ints(monkeypatch):
    # entries that fit int64 but whose products wrap it: with the bound
    # lifted, the int64 path gives another answer (entries past 2^63, as in
    # the property test below, cannot even be stored), so forcing int64
    # fails both tests
    graph = _EML_GRAPHS["random12"]
    f = [Fraction(2**40 + i, _COPRIME_DENOMINATORS[i % 4]) for i in range(graph.n)]
    g = [Fraction(-(2**41) - 3 * i, _COPRIME_DENOMINATORS[(i + 2) % 4]) for i in range(graph.n)]
    assert _largest_scaled(f) < 2**63 and _largest_scaled(g) < 2**63
    exact = _verify_eml_fraction_oracle(graph, f, g)
    assert verify_eml(graph, f, g) == exact
    monkeypatch.setattr(graphs, "INT64_EXACT", 1 << 200)
    assert verify_eml(graph, f, g)[0] != exact[0]


@given(case=_eml_big_case())
@settings(max_examples=200, deadline=None)
def test_eml_matches_fraction_oracle_past_the_int64_bound(case):
    graph, f, g = case
    assert graph.n * _largest_scaled(f) * _largest_scaled(g) >= INT64_EXACT  # Python ints
    assert verify_eml(graph, f, g) == _verify_eml_fraction_oracle(graph, f, g)


@pytest.mark.parametrize("offset", [0, -1], ids=["largest", "one-below"])
def test_eml_int64_bound_counts_the_degree(offset):
    # F = G = M everywhere, n*M^2 below 2^62 (M the largest such, or one
    # less): the squared sums fit int64 but the edge sum n*d*M^2 is past
    # 2^63, so the bound must count d
    graph = _EML_GRAPHS["random12"]
    M = math.isqrt((INT64_EXACT - 1) // graph.n) + offset
    f = [M] * graph.n
    assert graph.n * M * M < INT64_EXACT <= graph.n * graph.d * M * M
    assert verify_eml(graph, f, f) == _verify_eml_fraction_oracle(graph, f, f)
    assert verify_eml(graph, f, f)[0] == 0


def test_eml_entries_past_the_float_range_give_the_exact_verdict():
    # second moments near 2^1200: the display float saturates to inf, while
    # the deviation and the verdict stay exact
    assert verify_eml(complete_bipartite(4), [2**600, 1, 0, 3], [1, 2, 3, 2**600]) == (
        0, math.inf, True)
    # a zero vector makes the bound 0 however large the other one is
    assert verify_eml(complete_bipartite(4), [0] * 4, [2**600] * 4) == (0, 0, True)
    # a finite bound is returned even where a factor leaves the float range:
    # E[f^2] ~ 2^1198 with E[g^2] = 2^-1200 gives about lam/2, and
    # E[f^2] = 2^1100 with E[g^2] = 1 gives lam * 2^550
    lam = float(complete_bipartite(4).lam_bound)
    for f, g, expected in [([2**600, 1, 0, 3], [Fraction(1, 2**600)] * 4,
                            lam * math.sqrt((2**1200 + 10) / (4 * 2**1200))),
                           ([2**550] * 4, [1] * 4, lam * 2.0**550)]:
        dev, bound, ok = verify_eml(complete_bipartite(4), f, g)
        assert (dev, ok) == (0, True)
        assert math.isclose(bound, expected, rel_tol=1e-12)
    # the verdict is homogeneous, so scaling f by 2^600 scales the deviation
    # and keeps the verdict of the oracle on the unscaled vectors
    rng = np.random.default_rng(5)
    for name in ("random12", "cycle8-understated"):
        graph = _EML_GRAPHS[name]
        for _ in range(5):
            f, g = (rng.integers(-9, 10, graph.n).tolist() for _ in range(2))
            dev, bound, ok = verify_eml(graph, [2**600 * x for x in f], [2**600 * y for y in g])
            ref_dev, _, ref_ok = _verify_eml_fraction_oracle(graph, f, g)
            assert (dev, bound, ok) == (2**1200 * ref_dev, math.inf, ref_ok)


def _verify_eml_sets_fraction_oracle(graph, S, T):
    """Reference: the set form of the mixing lemma with Fraction squaring."""
    S, T = set(S), set(T)
    n, d = graph.n, graph.d
    e_st = sum(1 for l in S for r in graph.left_adj[l] if r in T)
    dev = abs(Fraction(e_st) - Fraction(d * len(S) * len(T), n))
    lam = graph.lam_bound
    ok = dev * dev <= lam * lam * d * d * len(S) * len(T)
    return e_st, dev, ok


@st.composite
def _eml_sets_case(draw):
    graph = _EML_GRAPHS[draw(st.sampled_from(sorted(_EML_GRAPHS)))]
    vertex_set = st.lists(st.integers(0, graph.n - 1), max_size=graph.n)
    return graph, draw(vertex_set), draw(vertex_set)


@given(case=_eml_sets_case())
@settings(max_examples=300, deadline=None)
def test_eml_sets_matches_fraction_oracle(case):
    graph, S, T = case
    got = verify_eml_sets(graph, S, T)
    assert isinstance(got[1], Fraction)
    assert got == _verify_eml_sets_fraction_oracle(graph, S, T)


@pytest.mark.parametrize("S,T", [
    ([3, 3, 1, 3], [0, 0, 2]),
    ([], [0, 1, 2]),
    ([0, 1], []),
    ([], []),
], ids=["duplicates", "empty-S", "empty-T", "both-empty"])
def test_eml_sets_duplicates_count_once_and_empty_sets_pass(S, T):
    graph = _EML_GRAPHS["random12"]
    got = verify_eml_sets(graph, S, T)
    assert got == verify_eml_sets(graph, sorted(set(S)), sorted(set(T)))
    assert got == _verify_eml_sets_fraction_oracle(graph, S, T)
    if not S or not T:
        assert got == (0, 0, True)


@pytest.mark.parametrize("S,T", [
    ([-1], [0]), ([0], [-1]), ([12], [0]), ([0, 5], [3, 12]),
], ids=["S-minus-one", "T-minus-one", "S-n", "T-n"])
def test_eml_sets_vertex_outside_range_raises(S, T):
    # checked before any index: numpy would wrap -1 to vertex n - 1
    with pytest.raises(ValueError, match="outside"):
        verify_eml_sets(_EML_GRAPHS["random12"], S, T)


@pytest.mark.parametrize("S", [[True], [0, 1.0], ["1"]], ids=["bool", "float", "str"])
def test_eml_sets_vertex_that_is_not_an_integer_raises(S):
    with pytest.raises(ValueError, match="S"):
        verify_eml_sets(_EML_GRAPHS["random12"], S, [0])
    with pytest.raises(ValueError, match="T"):
        verify_eml_sets(_EML_GRAPHS["random12"], [0], np.array(S))


def test_eml_sets_reads_integer_arrays_and_refuses_vertices_past_int64():
    graph = _EML_GRAPHS["random12"]
    S, T = [0, 3, 3, 7], [1, 2, 11]
    as_lists = verify_eml_sets(graph, S, T)
    assert verify_eml_sets(graph, np.array(S), np.array(T, dtype=np.uint8)) == as_lists
    assert verify_eml_sets(graph, [np.int64(v) for v in S], T) == as_lists
    for huge in (2**63, 2**70, -(2**70)):
        with pytest.raises(ValueError, match="outside"):
            verify_eml_sets(graph, [0, huge], T)
        with pytest.raises(ValueError, match="outside"):
            BipartiteGraph(2, 1, [[0], [huge]])


def test_eml_sets_oracle_cases_include_failures():
    # the understated-lambda graph fails the set form too, so the hypothesis
    # comparison above covers failing verdicts
    graph = _EML_GRAPHS["cycle8-understated"]
    assert not verify_eml_sets(graph, [0], [0])[2]
    assert not _verify_eml_sets_fraction_oracle(graph, [0], [0])[2]


def test_eml_sets_complete_graph_exact():
    # on K_{n,n}, E(S,T) = d|S||T|/n exactly, so the deviation is 0
    g = complete_bipartite(4)
    for s_set in ([0], [0, 1], [1, 3], [0, 1, 2, 3]):
        for t_set in ([2], [0, 2], [1, 2, 3]):
            e_st, dev, ok = verify_eml_sets(g, s_set, t_set)
            assert e_st == len(s_set) * len(t_set)
            assert dev == 0 and ok


def test_eml_random_pm_one_vectors(cycle8):
    rng = np.random.default_rng(23)
    for _ in range(100):
        f = [Fraction(int(x)) for x in rng.choice([-1, 1], 4)]
        g = [Fraction(int(x)) for x in rng.choice([-1, 1], 4)]
        dev, bound, ok = verify_eml(cycle8, f, g)
        assert ok


def test_eml_sets_random_graph():
    g = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    rng = np.random.default_rng(29)
    for _ in range(100):
        s_set = [int(x) for x in np.nonzero(rng.integers(0, 2, 12))[0]]
        t_set = [int(x) for x in np.nonzero(rng.integers(0, 2, 12))[0]]
        assert verify_eml_sets(g, s_set, t_set)[2]


def test_lambda_is_dense_svd_sigma2_above_512_vertices():
    # one code path at every size: lam is exactly the dense-SVD sigma_2
    g = random_regular_bipartite(600, 4, seed=3, lam_target=1.0)
    sigma = np.linalg.svd(g.biadjacency() / g.d, compute_uv=False)
    assert g.lam == float(sigma[1])


@pytest.mark.parametrize("n,d,key,lam,digest", [
    (12, 4, "ac3-graph", 0.95, "e221adaca945a49df0d93654ba986fb8af2d95b54b7baf2aabad58e14a262bcf"),
    (64, 8, "ac7-graph", 0.9, "07b298dd28bdf91901ec803a957dce11664cc9fe9b7e08e94197e2c5d61c7b8f"),
    (600, 8, "big-graph", 0.9, "e19ccc74a27daabd918a38ab35cda3fb91ba8cbf822658ec11a2f5d9804bb08b"),
], ids=["ac3", "ac7", "n600"])
def test_matching_draws_are_pinned(n, d, key, lam, digest):
    # sha256 of repr(left_adj): how a draw is tested against the accepted
    # matchings must not change the RNG stream or the permutations kept
    g = random_regular_bipartite(n, d, seed=derive_seed(2024, key), lam_target=lam)
    assert hashlib.sha256(repr(g.left_adj).encode()).hexdigest() == digest


# the SearchExhausted message of a matching that runs out of draws
_RAN_OUT = "could not extend to {d} disjoint matchings"


def _one_at_a_time_sampler(n, d, seed, lam_target, max_tries=20):
    """Reference: the sampler drawing one `rng.permutation(n)` at a time and
    comparing it with every accepted matching.  Returns the left adjacency,
    or the message of the SearchExhausted it stops with, and the generator's
    final state."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        cols = np.empty((d, n), dtype=np.int64)
        for i in range(d):
            for _ in range(graphs.MATCHING_ATTEMPTS):
                perm = rng.permutation(n)
                if not (cols[:i] == perm).any():
                    cols[i] = perm
                    break
            else:
                return _RAN_OUT.format(d=d), rng.bit_generator.state
        graph = BipartiteGraph(n, d, cols.T.tolist())
        if graph.lam <= lam_target:
            return graph.left_adj, rng.bit_generator.state
    return f"no graph with lambda <= {lam_target} in {max_tries} tries", rng.bit_generator.state


def _sampler_outcome(monkeypatch, n, d, seed, lam_target):
    """`random_regular_bipartite` as the oracle reports it: its left
    adjacency or error message, and the final state of the generator it made."""
    made, default_rng = [], np.random.default_rng
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", lambda s: made.append(default_rng(s)) or made[0])
        try:
            result = random_regular_bipartite(n, d, seed, lam_target).left_adj
        except SearchExhausted as exc:
            result = str(exc)
    return result, made[0].bit_generator.state


# every d of n <= 5, then d = 1, 2, n/2 and n: d = n runs out of draws
_SAMPLER_GRID = [(n, d) for n in (1, 2, 5) for d in range(1, n + 1)] + [
    (n, d) for n in (12, 64) for d in (1, 2, n // 2, n)]


@pytest.mark.parametrize("n,d", _SAMPLER_GRID, ids=[f"n{n}-d{d}" for n, d in _SAMPLER_GRID])
def test_batched_sampler_matches_the_one_at_a_time_loop(monkeypatch, n, d):
    # lambda_target 0.99 rejects some whole graphs, so retries are compared too
    for seed in range(3 if n * d < 100 else 1):
        expected = _one_at_a_time_sampler(n, d, seed, 0.99)
        assert _sampler_outcome(monkeypatch, n, d, seed, 0.99) == expected


@pytest.mark.parametrize("attempts", [1, 2, 3, 7])
def test_batched_sampler_runs_out_of_draws_where_the_loop_does(monkeypatch, attempts):
    monkeypatch.setattr(graphs, "MATCHING_ATTEMPTS", attempts)
    outcomes = set()
    for n, d in [(2, 2), (5, 3), (12, 4), (12, 12), (64, 8)]:
        for seed in range(4):
            expected = _one_at_a_time_sampler(n, d, seed, 1.0)
            assert _sampler_outcome(monkeypatch, n, d, seed, 1.0) == expected
            outcomes.add(expected[0] == _RAN_OUT.format(d=d))
    assert outcomes == {True, False}


def _kernel_rows_oracle(graph, F, G):
    """`_eml_rows` and `_mixing_ok` on each row of F, G, as the Fraction
    oracle's (deviation, pass) and the two sums of squares."""
    n, d = graph.n, graph.d
    out = []
    rows = _eml_rows(graph.adj, np.stack((F, G)))
    for (num, f2, g2), f, g in zip(rows, F.tolist(), G.tolist()):
        assert (f2, g2) == (sum(x * x for x in f), sum(y * y for y in g))
        out.append((Fraction(num, n * n * d), _mixing_ok(num, n, d, f2, g2, graph.lam_bound)))
    return out


@pytest.mark.parametrize("block_rows", [None, 3], ids=["one-block", "blocks-of-3"])
@pytest.mark.parametrize("name", ["random12", "cycle8-understated"])
def test_eml_kernel_matches_fraction_oracle_across_the_int64_bound(monkeypatch, name,
                                                                   block_rows):
    graph = _EML_GRAPHS[name]
    if block_rows:
        monkeypatch.setattr(graphs, "_BLOCK_ELEMENTS", block_rows * graph.adj.size)
    rng = np.random.default_rng(31)
    M = math.isqrt((INT64_EXACT - 1) // (graph.n * graph.d))
    rows = [rng.integers(-9, 10, graph.n).tolist() for _ in range(6)]
    # below and past the bound, at its edge and at the ends of int64
    rows += [[M] * graph.n, [M + 1] * graph.n, [-(2**63)] + [1] * (graph.n - 1),
             [2**63 - 1] * graph.n, [2**70 + i for i in range(graph.n)]]
    F = np.array(rows + rows[::-1], dtype=object)
    G = np.array(rows[::-1] + rows, dtype=object)
    assert len(list(graphs._row_blocks(graph.adj, len(F)))) == (
        1 if block_rows is None else math.ceil(len(F) / block_rows))
    expected = [_verify_eml_fraction_oracle(graph, f, g) for f, g in zip(F.tolist(), G.tolist())]
    got = _kernel_rows_oracle(graph, F, G)
    assert got == [(lhs, ok) for lhs, _, ok in expected]
    if name == "cycle8-understated":
        assert not all(ok for _, ok in got)
    # the rows that fit int64 give the same sums from an int64 array
    fits = [i for i, (f, g) in enumerate(zip(F.tolist(), G.tolist()))
            if all(-(2**63) <= x < 2**63 for x in f + g)]
    assert len(fits) == len(F) - 4  # the 2^70 row, as f and as g
    assert _kernel_rows_oracle(graph, F[fits].astype(np.int64), G[fits].astype(np.int64)) == [
        got[i] for i in fits]


@pytest.mark.parametrize("block_rows", [None, 2], ids=["one-block", "blocks-of-2"])
def test_eml_set_kernel_matches_fraction_oracle(monkeypatch, block_rows):
    rng = np.random.default_rng(37)
    for name, graph in sorted(_EML_GRAPHS.items()):
        if block_rows:
            monkeypatch.setattr(graphs, "_BLOCK_ELEMENTS", block_rows * graph.adj.size)
        # lists with repeated vertices, the empty set and the whole vertex set
        sets = [rng.integers(0, graph.n, rng.integers(0, 2 * graph.n)).tolist()
                for _ in range(9)] + [[], list(range(graph.n))]
        pairs = [(S, T) for S in sets for T in sets[::3]]
        ST = np.zeros((2, len(pairs), graph.n), dtype=bool)
        for i, (S, T) in enumerate(pairs):
            ST[0, i, S], ST[1, i, T] = True, True
        n, d = graph.n, graph.d
        rows = _eml_set_rows(graph.adj, ST)
        assert [(e_st, Fraction(num, n), _mixing_ok(num, n, d, s, t, graph.lam_bound))
                for e_st, num, s, t in rows] == [
            _verify_eml_sets_fraction_oracle(graph, S, T) for S, T in pairs]
        assert [(s, t) for _, _, s, t in rows] == [(len(set(S)), len(set(T))) for S, T in pairs]


def test_eml_failures_counts_the_failing_trials_of_both_stacks():
    # an understated lambda fails some real and some set trials; each stack
    # counts its failing trials by the Fraction oracles, and an empty stack none
    graph = _EML_GRAPHS["cycle8-understated"]
    rng = np.random.default_rng(41)
    FG = rng.integers(-100, 101, size=(2, 30, graph.n))
    ST = rng.random((2, 20, graph.n)) < 0.5
    real = sum(not _verify_eml_fraction_oracle(graph, F, G)[2] for F, G in zip(*FG.tolist()))
    sets = sum(not _verify_eml_sets_fraction_oracle(graph, S.nonzero()[0], T.nonzero()[0])[2]
               for S, T in zip(*ST))
    assert 0 < real < 30 and 0 < sets < 20
    assert eml_failures(graph, FG, ST) == real + sets
    assert eml_failures(graph, FG[:, :0], ST) == sets
    assert eml_failures(graph, FG, ST[:, :0]) == real

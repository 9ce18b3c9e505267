"""
d-regular balanced bipartite graphs with a fixed edge ordering and a
measured normalized second singular value.

The edge ordering is the one induced by the left adjacency lists: edge id
e = l*d + i is the i-th edge of left vertex l.  The right ordering is one
integer array, `route`: route[r, j] is the id of the j-th edge of right
vertex r, the edges of r taken in increasing id order.  It is the stable
argsort of the flattened adjacency, so both orderings come from the same
lists by construction.

lambda_hat is the second singular value of the normalized biadjacency
matrix from one dense LAPACK SVD, at every graph size.  Downstream
inequality checks consume lambda_hat + 1e-6 (`lam_bound`); that margin is
not yet backed by a proof that it covers the SVD's rounding error.
`lam_bound` is computed once per graph, on first access, and is a plain
attribute after that: assigning it sets the bound every check reads.

The mixing-lemma checks are integer numpy kernels over the (n, d) array
`adj`, in int64 only where `verify_eml`'s bound proves every sum exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import LengthMismatch, ParallelEdgeExhaustion, TargetUnreachable
from .gf import _ints

LAMBDA_SAFETY = Fraction(1, 10**6)
# `verify_eml` sums in int64 while its bound on every partial sum is below this
INT64_EXACT = 1 << 62
# permutations drawn per matching before parallel edges count as unavoidable
MATCHING_ATTEMPTS = 50000


class BipartiteGraph:
    """A d-regular bipartite graph on n + n vertices with fixed edge ordering.
    A bool or float in `n`, `d`, `left_adj` or `seed` raises ValueError."""

    def __init__(self, n: int, d: int, left_adj, seed=None):
        n, d = _ints(n, "n"), _ints(d, "d")
        self.n, self.d = n, d
        self.left_adj = _ints(left_adj, "left_adj", 2)
        self.seed = None if seed is None else _ints(seed, "seed")
        if len(self.left_adj) != n or any(len(r) != d for r in self.left_adj):
            raise ValueError("left adjacency must be n rows of d right vertices")
        flat = [r for row in self.left_adj for r in row]
        self.adj = adj = _vertex_array(n, flat, "left_adj").reshape(n, d)
        if np.any(np.diff(np.sort(adj, axis=1), axis=1) == 0):
            raise ValueError("parallel edges in left adjacency")
        if np.any(np.bincount(adj.ravel(), minlength=n) != d):
            raise ValueError("graph is not right-regular")
        # route[r, j]: id of the j-th edge of right vertex r (module docstring)
        self.route = np.argsort(adj.ravel(), kind="stable").reshape(n, d)
        self.lam = second_singular_value(self)

    def biadjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        A[np.arange(self.n).repeat(self.d), self.adj.ravel()] = 1.0
        return A

    @cached_property
    def lam_bound(self) -> Fraction:
        """Conservative rational upper bound on the true lambda, computed
        once from the measured `lam`; an assigned value replaces it."""
        return Fraction(self.lam).limit_denominator(10**12) + LAMBDA_SAFETY

    def __repr__(self) -> str:
        return f"BipartiteGraph(n={self.n}, d={self.d}, lam={self.lam:.6f})"


def complete_bipartite(n: int) -> BipartiteGraph:
    """K_{n,n}: the lambda = 0 special case (d = n)."""
    return BipartiteGraph(n, n, [list(range(n)) for _ in range(n)])


def second_singular_value(graph: BipartiteGraph) -> float:
    """sigma_2 of the normalized biadjacency A/d, by one dense SVD.

    A floating-point value; `BipartiteGraph.lam_bound` adds the safety margin.
    """
    if graph.n == 1:
        return 0.0
    s = np.linalg.svd(graph.biadjacency() / graph.d, compute_uv=False)
    return float(s[1])


def random_regular_bipartite(
    n: int,
    d: int,
    seed: int,
    lam_target: float,
    max_tries: int = 20,
) -> BipartiteGraph:
    """Union of d uniformly random perfect matchings, spectrally verified.

    Matchings creating parallel edges are rejected and resampled; the whole
    graph is rejected unless its measured lambda is <= lam_target.
    """
    if d > n:
        raise ValueError("d must be <= n")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        # row i is the i-th accepted matching; a draw is compared once
        # against all of them
        cols = np.empty((d, n), dtype=np.int64)
        for i in range(d):
            for _ in range(MATCHING_ATTEMPTS):
                perm = rng.permutation(n)
                if not (cols[:i] == perm).any():
                    cols[i] = perm
                    break
            else:
                raise ParallelEdgeExhaustion(
                    f"could not extend to {d} disjoint matchings"
                )
        graph = BipartiteGraph(n, d, cols.T.tolist(), seed=seed)
        if graph.lam <= lam_target:
            return graph
    raise TargetUnreachable(f"no graph with lambda <= {lam_target} in {max_tries} tries")


def verify_eml(graph: BipartiteGraph, f, g) -> tuple[Fraction, float, bool]:
    """Expander mixing lemma check with an exact-arithmetic left-hand side.

    f and g are rational-valued vectors on L and R.  Returns
    (deviation, float bound, pass).  The comparison squares both sides so it
    stays exact; norms are normalized second moments E[x^2].  f and g are
    scaled once to integers F = f*Df, G = g*Dg by their common denominators:
        deviation = |n*E(F,G) - d*sum(F)*sum(G)| / (n^2 d Df Dg),
        pass iff  (n*E - d*sum(F)*sum(G))^2 <= lam^2 n^2 d^2 sum(F^2) sum(G^2).
    The verdict is homogeneous of degree 2 in F and in G (F -> cF, c != 0,
    scales both sides by c^2), so integer vectors give the verdict of F/Df.
    E(F,G) = F @ G[adj].sum(1) and the four sums run in int64 while
    n*max(d|F||G|, |F|^2, |G|^2) < 2^62 (|F| = max_i |F_i|), else on Python
    ints: no partial sum exceeds d|G| <= n|G|^2 (d <= n), n*d|F||G|, n|F| <=
    n|F|^2 or n|F|^2 (or the same for G), so none reaches 2^63.
    """
    n, d = graph.n, graph.d
    if len(f) != n or len(g) != n:
        raise LengthMismatch("f and g must have length n")
    (F, Df, top_f), (G, Dg, top_g) = _integer_vector(f), _integer_vector(g)
    small = n * max(d * top_f * top_g, top_f * top_f, top_g * top_g) < INT64_EXACT
    F, G = (np.array(X, dtype=np.int64 if small else object) for X in (F, G))
    edge_sum = int(F @ G[graph.adj].sum(1))
    num = abs(n * edge_sum - d * int(F.sum()) * int(G.sum()))
    f2, g2 = int(F @ F), int(G @ G)
    lam = graph.lam_bound
    bound = _display_bound(lam, f2, n * Df * Df, g2, n * Dg * Dg)
    return Fraction(num, n * n * d * Df * Dg), bound, _mixing_ok(num, n, d, f2, g2, lam)


def _display_bound(lam: Fraction, f2: int, nf: int, g2: int, ng: int) -> float:
    """lam * sqrt((f2 / nf) * (g2 / ng)) as a float, for display only: taken
    in log space where a factor or the product leaves the float range, and
    inf only where the bound itself does."""
    if not (lam and f2 and g2):
        return 0.0
    lf, lg = math.log(f2) - math.log(nf), math.log(g2) - math.log(ng)
    if max(abs(lf), abs(lg), abs(lf + lg)) < 700:  # e^709 is near the float maximum
        return float(lam) * math.sqrt((f2 / nf) * (g2 / ng))
    try:
        return math.exp(math.log(lam) + (lf + lg) / 2)
    except OverflowError:
        return math.inf


def _mixing_ok(num: int, n: int, d: int, f2: int, g2: int, lam: Fraction) -> bool:
    """num^2 <= lam^2 n^2 d^2 f2 g2, in Python ints."""
    return (num * lam.denominator) ** 2 <= (lam.numerator * n * d) ** 2 * f2 * g2


def _integer_vector(xs) -> tuple[list[int], int, int]:
    """Integers X, the least D with X = xs * D exactly, and max |X|: each entry
    read once by `as_integer_ratio`, a numpy integer (which lacks it) as an int."""
    xs = xs.tolist() if isinstance(xs, np.ndarray) else xs
    try:
        ratios = [x.as_integer_ratio() for x in xs]
    except AttributeError:
        ratios = [(int(x), 1) if isinstance(x, np.integer) else x.as_integer_ratio() for x in xs]
    D = math.lcm(*{b for _, b in ratios})
    X = [a * (D // b) for a, b in ratios]
    return X, D, max(map(abs, X), default=0)


def verify_eml_sets(graph: BipartiteGraph, S, T) -> tuple[int, Fraction, bool]:
    """Set form of the mixing lemma: |E(S,T) - d|S||T|/n| <= lam*d*sqrt(|S||T|),
    decided in Python ints as `verify_eml` decides it on indicator vectors.
    A repeated vertex counts once; one outside [0, n) raises ValueError."""
    n, d = graph.n, graph.d
    in_S, in_T = np.zeros((2, n), dtype=bool)
    in_S[_vertex_array(n, _ints(S, "S", 1), "S")] = True
    in_T[_vertex_array(n, _ints(T, "T", 1), "T")] = True
    e_st = int(np.count_nonzero(in_T[graph.adj[in_S]]))
    s, t = int(np.count_nonzero(in_S)), int(np.count_nonzero(in_T))
    num = abs(n * e_st - d * s * t)
    return e_st, Fraction(num, n), _mixing_ok(num, n, d, s, t, graph.lam_bound)


def _vertex_array(n: int, vertices: list[int], name: str) -> np.ndarray:
    """`vertices` as an int64 array; ValueError naming `name` unless every
    vertex lies in [0, n).  The one range check runs on the Python ints, so
    a vertex past int64 is refused too, and it runs before any indexing."""
    if vertices and not (0 <= min(vertices) and max(vertices) < n):
        bad = next(v for v in vertices if not 0 <= v < n)
        raise ValueError(f"{name}: vertex {bad} outside [0, {n})")
    return np.array(vertices, dtype=np.int64)

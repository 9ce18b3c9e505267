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
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral

import numpy as np

from .errors import LengthMismatch, ParallelEdgeExhaustion, TargetUnreachable

LAMBDA_SAFETY = Fraction(1, 10**6)
# permutations drawn per matching before parallel edges count as unavoidable
MATCHING_ATTEMPTS = 50000


class BipartiteGraph:
    """A d-regular bipartite graph on n + n vertices with fixed edge ordering."""

    def __init__(self, n: int, d: int, left_adj, seed=None):
        self.n = n
        self.d = d
        self.left_adj = [list(map(int, row)) for row in left_adj]
        self.seed = seed
        if len(self.left_adj) != n or any(len(r) != d for r in self.left_adj):
            raise ValueError("left adjacency must be n rows of d right vertices")
        _check_vertices(n, [r for row in self.left_adj for r in row])
        adj = np.array(self.left_adj, dtype=np.int64).reshape(n, d)
        if np.any(np.diff(np.sort(adj, axis=1), axis=1) == 0):
            raise ValueError("parallel edges in left adjacency")
        if np.any(np.bincount(adj.ravel(), minlength=n) != d):
            raise ValueError("graph is not right-regular")
        # route[r, j]: id of the j-th edge of right vertex r (module docstring)
        self.route = np.argsort(adj.ravel(), kind="stable").reshape(n, d)
        self.lam = second_singular_value(self)
        self._lam_bound = (None, None)  # (lam, lam_bound), see lam_bound

    def biadjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        A[np.arange(self.n).repeat(self.d), np.ravel(self.left_adj).astype(np.intp)] = 1.0
        return A

    @property
    def lam_bound(self) -> Fraction:
        """Conservative rational upper bound on the true lambda.  Cached
        with the lambda it came from, so it follows a reassigned `lam`."""
        lam, bound = self._lam_bound
        if lam != self.lam:
            bound = Fraction(self.lam).limit_denominator(10**12) + LAMBDA_SAFETY
            self._lam_bound = (self.lam, bound)
        return bound

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
        cols: list[np.ndarray] = []
        for _ in range(d):
            for _ in range(MATCHING_ATTEMPTS):
                perm = rng.permutation(n)
                if all(not np.any(perm == c) for c in cols):
                    cols.append(perm)
                    break
            else:
                raise ParallelEdgeExhaustion(
                    f"could not extend to {d} disjoint matchings"
                )
        left_adj = [[int(cols[i][l]) for i in range(d)] for l in range(n)]
        graph = BipartiteGraph(n, d, left_adj, seed=seed)
        if graph.lam <= lam_target:
            return graph
    raise TargetUnreachable(f"no graph with lambda <= {lam_target} in {max_tries} tries")


def verify_eml(graph: BipartiteGraph, f, g) -> tuple[Fraction, float, bool]:
    """Expander mixing lemma check with an exact-arithmetic left-hand side.

    f and g are rational-valued vectors on L and R.  Returns
    (deviation, float bound, pass).  The comparison squares both sides so it
    stays exact; norms are normalized second moments E[x^2].  f and g are
    scaled once to integers F = f*Df, G = g*Dg by their common denominators,
    so every sum is a Python int:
        deviation = |n*E(F,G) - d*sum(F)*sum(G)| / (n^2 d Df Dg),
        pass iff  (n*E - d*sum(F)*sum(G))^2 <= lam^2 n^2 d^2 sum(F^2) sum(G^2).
    """
    n, d = graph.n, graph.d
    if len(f) != n or len(g) != n:
        raise LengthMismatch("f and g must have length n")
    F, Df = _common_denominator(f)
    G, Dg = _common_denominator(g)
    edge_sum = sum(F[l] * sum(G[r] for r in graph.left_adj[l]) for l in range(n))
    num = abs(n * edge_sum - d * sum(F) * sum(G))
    f2 = sum(x * x for x in F)
    g2 = sum(x * x for x in G)
    lam = graph.lam_bound
    bound = float(lam) * math.sqrt((f2 / (n * Df * Df)) * (g2 / (n * Dg * Dg)))
    return Fraction(num, n * n * d * Df * Dg), bound, _mixing_ok(num, n, d, f2, g2, lam)


def _mixing_ok(num: int, n: int, d: int, f2: int, g2: int, lam: Fraction) -> bool:
    """num^2 <= lam^2 n^2 d^2 f2 g2, in Python ints."""
    return (num * lam.denominator) ** 2 <= (lam.numerator * n * d) ** 2 * f2 * g2


def _common_denominator(xs) -> tuple[list[int], int]:
    """Integers X and the least D with X[i] = xs[i] * D exactly.  Ints and
    Fractions pass through; other integers (numpy's) become ints, since a
    Fraction would keep their fixed width; anything else converts exactly."""
    xs = [
        x if isinstance(x, (int, Fraction))
        else int(x) if isinstance(x, Integral)
        else Fraction(x)
        for x in xs
    ]
    D = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (D // x.denominator) for x in xs], D


def verify_eml_sets(graph: BipartiteGraph, S, T) -> tuple[int, Fraction, bool]:
    """Set form of the mixing lemma: |E(S,T) - d|S||T|/n| <= lam*d*sqrt(|S||T|),
    decided in Python ints as `verify_eml` decides it on indicator vectors."""
    S, T = set(S), set(T)
    n, d = graph.n, graph.d
    _check_vertices(n, S | T)
    e_st = sum(1 for l in S for r in graph.left_adj[l] if r in T)
    num = abs(n * e_st - d * len(S) * len(T))
    return e_st, Fraction(num, n), _mixing_ok(num, n, d, len(S), len(T), graph.lam_bound)


def _check_vertices(n: int, vertices) -> None:
    """ValueError unless every vertex lies in [0, n)."""
    bad = [v for v in vertices if not 0 <= v < n]
    if bad:
        raise ValueError(f"vertex {bad[0]} outside [0, {n})")

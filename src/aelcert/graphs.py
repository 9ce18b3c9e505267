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

Every mixing-lemma verdict comes from two integer numpy kernels over the
(n, d) array `adj`, one row per check: `_eml_rows` for real vectors and
`_eml_set_rows` for vertex sets.  `verify_eml` and `verify_eml_sets` run
them on one row, `eml_failures` on stacks of trials; a block of rows sums
in int64 only where `_eml_rows`'s bound proves every sum exact, and
`_mixing_ok` is the one comparison.

`random_regular_bipartite` draws each matching as the first of successive
`rng.permutation(n)` calls that adds no parallel edge.  It draws and tests
them in batches and rewinds the generator past the accepted one, so the
graph and the generator's final state are those of the one-at-a-time loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import Mismatch, SearchExhausted
from .gf import _ints

LAMBDA_SAFETY = Fraction(1, 10**6)
# `_eml_rows` sums in int64 while its bound on every partial sum is below this
INT64_EXACT = 1 << 62
# elements of the (rows, n, d) gather one block of a mixing-lemma kernel makes
_BLOCK_ELEMENTS = 1 << 16
# permutations drawn per matching before parallel edges count as unavoidable
MATCHING_ATTEMPTS = 50000
# most permutations `_draw_matching` draws and tests at once
_MATCHING_BATCH = 128


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

    Matching i is the first of the permutations `rng.permutation(n)`, drawn
    one after another, that shares no edge with matchings 0..i-1; the whole
    graph is rejected unless its measured lambda is <= lam_target.  The
    draws are made and tested in batches (`_draw_matching`), and the
    generator ends each matching in the state the one-at-a-time loop leaves,
    so a seed gives the same graph either way.  After MATCHING_ATTEMPTS
    rejected permutations for one matching, SearchExhausted.
    """
    if d > n:
        raise ValueError("d must be <= n")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        # used[l, r]: an accepted matching already joins left l to right r
        used = np.zeros((n, n), dtype=bool)
        cols = np.empty((d, n), dtype=np.int64)
        for i in range(d):
            if (perm := _draw_matching(rng, used)) is None:
                raise SearchExhausted(f"could not extend to {d} disjoint matchings")
            cols[i] = perm
            used[np.arange(n), perm] = True
        graph = BipartiteGraph(n, d, cols.T.tolist(), seed=seed)
        if graph.lam <= lam_target:
            return graph
    raise SearchExhausted(f"no graph with lambda <= {lam_target} in {max_tries} tries")


def _draw_matching(rng: np.random.Generator, used: np.ndarray) -> np.ndarray | None:
    """The first of successive `rng.permutation(n)` draws that avoids every
    edge of `used`, leaving `rng` where that draw left it; None when none of
    MATCHING_ATTEMPTS draws does.

    Batches of b = 1, 2, 4, ..., _MATCHING_BATCH permutations come from one
    `rng.permuted` call, whose rows are successive `permutation` draws, and
    are tested in one gather.  When row j of a batch is accepted and rows
    past it were drawn, the generator goes back to its state before the
    batch and draws exactly j + 1 rows again.
    """
    n = len(used)
    identity = np.arange(n)
    drawn, b = 0, 1
    while drawn < MATCHING_ATTEMPTS:
        b = min(b, MATCHING_ATTEMPTS - drawn)
        state = rng.bit_generator.state
        batch = rng.permuted(np.broadcast_to(identity, (b, n)), axis=1)
        free = ~used[identity, batch].any(axis=1)
        if free.any():
            j = int(free.argmax())
            if j + 1 < b:
                rng.bit_generator.state = state
                rng.permuted(np.broadcast_to(identity, (j + 1, n)), axis=1)
            return batch[j]
        drawn += b
        b = min(2 * b, _MATCHING_BATCH)
    return None


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
    The sums are `_eml_rows` on the one row (F, G).
    """
    n, d = graph.n, graph.d
    if len(f) != n or len(g) != n:
        raise Mismatch("f and g must have length n")
    (F, Df), (G, Dg) = _integer_vector(f), _integer_vector(g)
    [(num, f2, g2)] = _eml_rows(graph.adj, _exact_array([[F], [G]]))
    lam = graph.lam_bound
    bound = _display_bound(lam, f2, n * Df * Df, g2, n * Dg * Dg)
    return Fraction(num, n * n * d * Df * Dg), bound, _mixing_ok(num, n, d, f2, g2, lam)


def _exact_array(rows: list) -> np.ndarray:
    """The nested lists of Python ints `rows` as an int64 array, or as an
    object array where one lies past int64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _row_blocks(adj: np.ndarray, rows: int):
    """Slices of max(1, _BLOCK_ELEMENTS // (n d)) rows covering `rows`, so
    the (rows, n, d) gather of a block stays within _BLOCK_ELEMENTS."""
    step = max(1, _BLOCK_ELEMENTS // adj.size)
    return (slice(i, i + step) for i in range(0, rows, step))


def _eml_rows(adj: np.ndarray, FG: np.ndarray) -> list[tuple[int, int, int]]:
    """(num, f2, g2) of each trial t of the (2, T, n) integer array FG (int64
    or object), F = FG[0, t] and G = FG[1, t], as Python ints:
    num = |n*E(F,G) - d*sum(F)*sum(G)| with E(F,G) = sum_l F[l] * sum_i
    G[adj[l, i]], f2 = F @ F and g2 = G @ G.

    A block of trials sums in int64 while n*max(d|F||G|, |F|^2, |G|^2) < 2^62
    (|F| the largest |F[l]| of the block), else on Python ints: no partial
    sum exceeds d|G| <= n|G|^2 (d <= n), n*d|F||G|, n|F| <= n|F|^2 or n|F|^2
    (or the same for G), so none reaches 2^63.  num is formed on Python ints.
    """
    n, d = adj.shape
    out = []
    for rows in _row_blocks(adj, FG.shape[1]):
        X = FG[:, rows]
        flat = X.reshape(2, -1)
        (hi_f, hi_g), (lo_f, lo_g) = flat.max(1).tolist(), flat.min(1).tolist()
        top_f, top_g = max(hi_f, -lo_f), max(hi_g, -lo_g)
        small = n * max(d * top_f * top_g, top_f * top_f, top_g * top_g) < INT64_EXACT
        X = X.astype(np.int64 if small else object, copy=False)
        edge = np.einsum("tl,tli->t", X[0], X[1].take(adj, axis=1)).tolist()
        (sf, sg), (f2, g2) = X.sum(2).tolist(), (X * X).sum(2).tolist()
        out += [(abs(n * e - d * a * b), x, y) for e, a, b, x, y in zip(edge, sf, sg, f2, g2)]
    return out


def _eml_set_rows(adj: np.ndarray, ST: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(e_st, num, s, t) of each trial of the (2, T, n) bool array ST, the
    masks of S = ST[0, t] and T = ST[1, t], as Python ints: e_st = E(S, T),
    s = |S|, t = |T| and num = |n e_st - d s t|, `_eml_rows`'s num on the
    indicator vectors, whose f2 and g2 are s and t."""
    n, d = adj.shape
    out = []
    for rows in _row_blocks(adj, ST.shape[1]):
        in_S, in_T = block = ST[:, rows]
        e_st = (in_T.take(adj, axis=1) & in_S[:, :, None]).sum((1, 2))
        s, t = block.sum(2).tolist()
        out += [(e, abs(n * e - d * a * b), a, b) for e, a, b in zip(e_st.tolist(), s, t)]
    return out


def eml_failures(graph: BipartiteGraph, FG: np.ndarray, ST: np.ndarray) -> int:
    """How many stacked trials fail the mixing lemma: the real trials of the (2, T, n) integer
    array FG (F, G judge F/D, G/D, see `verify_eml`) and the set trials of the bool array ST."""
    n, d, lam = graph.n, graph.d, graph.lam_bound
    rows = _eml_rows(graph.adj, FG) + [row[1:] for row in _eml_set_rows(graph.adj, ST)]
    return sum(not _mixing_ok(num, n, d, f2, g2, lam) for num, f2, g2 in rows)


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


def _integer_vector(xs) -> tuple[list[int], int]:
    """Integers X and the least D with X = xs * D exactly: each entry read
    once by `as_integer_ratio`, a numpy integer (which lacks it) as an int."""
    xs = xs.tolist() if isinstance(xs, np.ndarray) else xs
    try:
        ratios = [x.as_integer_ratio() for x in xs]
    except AttributeError:
        ratios = [(int(x), 1) if isinstance(x, np.integer) else x.as_integer_ratio() for x in xs]
    D = math.lcm(*{b for _, b in ratios})
    return [a * (D // b) for a, b in ratios], D


def verify_eml_sets(graph: BipartiteGraph, S, T) -> tuple[int, Fraction, bool]:
    """Set form of the mixing lemma: |E(S,T) - d|S||T|/n| <= lam*d*sqrt(|S||T|),
    decided in Python ints as `verify_eml` decides it on indicator vectors.
    A repeated vertex counts once; one outside [0, n) raises ValueError."""
    n, d = graph.n, graph.d
    ST = np.zeros((2, 1, n), dtype=bool)
    ST[0, 0, _vertex_array(n, _ints(S, "S", 1), "S")] = True
    ST[1, 0, _vertex_array(n, _ints(T, "T", 1), "T")] = True
    [(e_st, num, s, t)] = _eml_set_rows(graph.adj, ST)
    return e_st, Fraction(num, n), _mixing_ok(num, n, d, s, t, graph.lam_bound)


def _vertex_array(n: int, vertices: list[int], name: str) -> np.ndarray:
    """`vertices` as an int64 array; ValueError naming `name` unless every
    vertex lies in [0, n).  The one range check runs on the Python ints, so
    a vertex past int64 is refused too, and it runs before any indexing."""
    if vertices and not (0 <= min(vertices) and max(vertices) < n):
        bad = next(v for v in vertices if not 0 <= v < n)
        raise ValueError(f"{name}: vertex {bad} outside [0, {n})")
    return np.array(vertices, dtype=np.int64)

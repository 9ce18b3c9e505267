"""
Inner-code construction and exact verification of average-radius list
decodability (with erasures): random linear codes found by rejection
sampling, folded Reed-Solomon codes, and the brute-force oracles that
certify them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .arld import (
    DEFAULT_SUBSET_CAP,
    epsilon_min,
    intern_symbols,
    min_disagreement_by_size,
    plurality_center,
    subset_search_count,
    translation_closed,
)
from .codes import ERASED, ErasedWord, LinearCode, pairwise_min_distance
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    FieldTooSmall,
    NotAppropriate,
    RankFailure,
    SearchExhausted,
)
from .gf import Field, multiplicative_generator
from .outer import RSOuterCode
from .seeds import derive_seed

# generator matrices drawn before a full-rank sample counts as unreachable
SAMPLE_ATTEMPTS = 100


def resolve_words(code_or_words) -> tuple[list[tuple], int]:
    """Accept a LinearCode, a BlockCode, or a plain codeword list."""
    if isinstance(code_or_words, LinearCode):
        words = code_or_words.enumerate_codewords()
    elif isinstance(code_or_words, BlockCode):
        words = code_or_words.codewords
    else:
        words = [tuple(w) for w in code_or_words]
    return list(words), len(words[0])


@dataclass
class ARLDCertificate:
    """Exact certificate of the worst-case average-radius slack of a code.

    eps_min is the smallest eps for which every subset H (|H| <= k) and every
    (possibly erased) center satisfies
        sum_h Delta(center, h) >= (|H| - 1) * (delta0 - s - eps).
    The s = 0 plurality worst case covers all erasure fractions by the
    coordinate-slack monotonicity argument (see aelcert.arld).

    subsets_examined counts the subsets covered; subsets_evaluated counts
    those the sweep visited, fewer when `reduction` is "translation" (the
    words form a group, see `aelcert.arld.translation_closed`).
    """

    delta0: Fraction
    k: int
    eps_min: Fraction
    n: int
    witness_indices: tuple[int, ...]
    witness_center: tuple
    witness_disagreements: int
    subsets_examined: int
    runtime_seconds: float
    code_description: str = ""
    min_disagreements_by_size: dict = dc_field(default_factory=dict)
    # None on a certificate loaded from a file: the counts live in its header
    subsets_evaluated: int | None = None
    reduction: str | None = None
    # the sweep's per-size SubsetWitness: not saved, empty on a loaded certificate
    witnesses: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def reevaluate(self, code_or_words) -> Fraction:
        """Recompute eps_min from the stored witness subset (rational equality)."""
        words, n = resolve_words(code_or_words)
        subset = [words[i] for i in self.witness_indices]
        center, contribs = plurality_center(subset)
        d = sum(contribs)
        m = len(subset)
        value = self.delta0 - Fraction(d, n * (m - 1))
        return max(Fraction(0), value)


def min_arld_slack(
    code_or_words,
    k: int,
    delta0: Fraction,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    description: str = "",
) -> ARLDCertificate:
    """Exact worst-case slack over all subsets H with |H| <= k and all centers.

    The center quantifier collapses to the coordinate-wise plurality; the
    subset quantifier is enumerated exhaustively, only over the subsets that
    contain word 0 when the words of a LinearCode or a field-carrying
    BlockCode form a group.  Plain word lists carry no field and are swept
    in full.
    """
    words, n = resolve_words(code_or_words)
    delta0 = Fraction(delta0)
    t0 = time.perf_counter()
    if k < 2 or len(words) < 2:
        return ARLDCertificate(
            delta0, k, Fraction(0), n, (), (), 0, 0,
            time.perf_counter() - t0, description,
            subsets_evaluated=0, reduction="none",
        )
    sym, _ = intern_symbols(words)
    closed = translation_closed(words, getattr(code_or_words, "field", None))
    witnesses = min_disagreement_by_size(sym, k, subset_cap, closed)
    eps, worst = epsilon_min(witnesses, n, delta0)
    center, contribs = plurality_center([words[i] for i in worst.indices])
    return ARLDCertificate(
        delta0=delta0,
        k=k,
        eps_min=eps,
        n=n,
        witness_indices=tuple(worst.indices),
        witness_center=center,
        witness_disagreements=worst.disagreement_count,
        subsets_examined=subset_search_count(len(words), k),
        runtime_seconds=time.perf_counter() - t0,
        code_description=description,
        min_disagreements_by_size={
            m: w.disagreement_count for m, w in witnesses.items()
        },
        subsets_evaluated=subset_search_count(len(words), k, closed),
        reduction="translation" if closed else "none",
        witnesses=witnesses,
    )


def exhaustive_arld_check(
    code_or_words,
    k: int,
    delta0: Fraction,
    eps: Fraction,
    erasures: bool = True,
    alphabet=None,
    center_cap: int = 1 << 22,
):
    """Literal quantifier sweep of the average-radius definition.

    Independent oracle: enumerates every subset H (2 <= |H| <= k), every
    erasure set S (when erasures=True) and every center over the non-erased
    coordinates.  Returns (True, None) or (False, witness dict).
    """
    words, n = resolve_words(code_or_words)
    delta0, eps = Fraction(delta0), Fraction(eps)
    if alphabet is None:
        if isinstance(code_or_words, LinearCode):
            alphabet = list(range(code_or_words.field.q))
        else:
            alphabet = sorted({s for w in words for s in w})
    index = {s: i for i, s in enumerate(alphabet)}
    sym = np.array([[index[s] for s in w] for w in words], dtype=np.int64)
    Q = len(alphabet)
    erasure_sets = (
        [frozenset(S) for r in range(n + 1) for S in combinations(range(n), r)]
        if erasures
        else [frozenset()]
    )
    for m in range(2, min(k, len(words)) + 1):
        for idx in combinations(range(len(words)), m):
            rows = sym[list(idx)]
            for S in erasure_sets:
                keep = [i for i in range(n) if i not in S]
                s_frac = Fraction(len(S), n)
                bound = (m - 1) * (delta0 - s_frac - eps)
                if not keep:
                    if Fraction(0) < bound:
                        witness = _witness(words, idx, [ERASED] * n, Fraction(0), bound)
                        return False, witness
                    continue
                t = len(keep)
                if Q**t > center_cap:
                    raise EnumerationTooLarge(
                        f"{Q}^{t} centers exceed cap {center_cap}"
                    )
                centers = _all_tuples(Q, t)
                restricted = rows[:, keep]  # (m, t)
                d_counts = (centers[:, None, :] != restricted[None, :, :]).sum(
                    axis=(1, 2)
                )
                j = int(d_counts.argmin())
                if Fraction(int(d_counts[j]), n) < bound:
                    g = [ERASED] * n
                    for pos, c in zip(keep, centers[j]):
                        g[pos] = alphabet[int(c)]
                    witness = _witness(
                        words, idx, g, Fraction(int(d_counts[j]), n), bound
                    )
                    return False, witness
    return True, None


def _all_tuples(Q: int, t: int) -> np.ndarray:
    grids = np.indices((Q,) * t)
    return grids.reshape(t, -1).T.copy()


def _witness(words, idx, center, lhs, bound):
    return {
        "subset_indices": tuple(idx),
        "subset": [words[i] for i in idx],
        "center": tuple(center),
        "lhs": lhs,
        "rhs": bound,
    }


def sample_random_linear_code(
    field: Field, length: int, dim: int, rng: np.random.Generator
) -> LinearCode:
    """Uniform full-rank generator matrix; deterministic under the given rng."""
    if dim < 1:
        raise DimensionMismatch("generator must have at least one row")
    for _ in range(SAMPLE_ATTEMPTS):
        gen = rng.integers(0, field.q, size=(dim, length))
        try:
            return LinearCode(field, gen.tolist())
        except DimensionMismatch:
            continue
    raise RankFailure(f"no full-rank sample in {SAMPLE_ATTEMPTS} attempts")


def search_inner_code(
    field: Field,
    length: int,
    dim: int,
    k: int,
    delta0: Fraction,
    eps_target: Fraction,
    seed: int,
    max_tries: int = 50,
    subset_cap: int = DEFAULT_SUBSET_CAP,
):
    """Rejection-sample random linear codes until one certifies eps_min <= target.

    Each try uses a seed derived from (seed, try index), so the search is
    reproducible and could be parallelized by try index.
    """
    delta0, eps_target = Fraction(delta0), Fraction(eps_target)
    for t in range(max_tries):
        rng = np.random.default_rng(derive_seed(seed, "inner-search", t))
        code = sample_random_linear_code(field, length, dim, rng)
        cert = min_arld_slack(
            code, k, delta0, subset_cap,
            description=f"random[{length},{dim}]_q{field.q} try {t}",
        )
        if cert.eps_min <= eps_target:
            return code, cert
    raise SearchExhausted(f"no code with eps_min <= {eps_target} in {max_tries} tries")


class BlockCode:
    """Enumerable code over an arbitrary (hashable) symbol alphabet.

    `field`, when given, is the field whose coordinatewise addition acts on
    the (possibly tuple) symbols; it lets the ARLD sweep test closure.
    """

    def __init__(self, codewords, field: Field | None = None):
        self.codewords = [tuple(w) for w in codewords]
        self.n = len(self.codewords[0])
        self.field = field

    def min_distance(self) -> Fraction:
        """Minimum pairwise distance by direct enumeration over all pairs."""
        return pairwise_min_distance(self.codewords)

    def __len__(self) -> int:
        return len(self.codewords)


class FoldedRSCode:
    """
    Folded Reed-Solomon code: symbol j is the b-tuple of evaluations of the
    message polynomial at alpha_j, gamma*alpha_j, ..., gamma^{b-1}*alpha_j.

    `rs` is the RS code over the bn points alpha_0, gamma*alpha_0, ...,
    gamma^{b-1}*alpha_0, alpha_1, ...; its codewords, cut into b-tuples,
    are the FRS codewords, in the same message order.

    Parameters
    ----------
    field : Field
    b : int
        Fold parameter.
    n : int
        Number of folded symbols.
    rho : Fraction
        Rate; message polynomials have degree < rho*b*n <= b*n.
    alphas : tuple of int
        Evaluation anchors, one per folded symbol.
    """

    def __init__(self, field: Field, b: int, n: int, rho: Fraction, alphas):
        if field.q < b * n:
            raise FieldTooSmall(f"q={field.q} < bn={b * n}")
        rho = Fraction(rho)
        dim = rho * b * n
        if dim.denominator != 1 or not 1 <= dim <= b * n:
            raise ValueError(f"rho*b*n = {dim} must be an integer in [1, bn = {b * n}]")
        self.field = field
        self.b = b
        self.n = n
        self.rho = rho
        self.dim = int(dim)
        self.gamma = multiplicative_generator(field)
        self.alphas = tuple(int(a) for a in alphas)
        if len(self.alphas) != n:
            raise ValueError("need one evaluation anchor per folded symbol")
        points = [field.mul(field.pow(self.gamma, i), a) for a in self.alphas
                  for i in range(b)]
        if len(set(points)) != b * n:
            raise NotAppropriate("evaluation points {gamma^i alpha_j} collide")
        self.rs = RSOuterCode(field, b * n, self.dim, points)

    def _fold(self, word) -> tuple[tuple[int, ...], ...]:
        return tuple(word[j:j + self.b] for j in range(0, len(word), self.b))

    def encode(self, msg) -> tuple[tuple[int, ...], ...]:
        return self._fold(self.rs.encode(msg))

    def codewords(self) -> list[tuple]:
        return [self._fold(w) for w in self.rs.enumerate_codewords()]

    def as_block_code(self) -> BlockCode:
        """Block view over the folded alphabet F_q^b; feeds the ARLD verifiers."""
        return BlockCode(self.codewords(), self.field)


def make_folded_rs(
    field: Field, b: int, n: int, rho: Fraction, alphas=None
) -> FoldedRSCode:
    """Construct an appropriate FRS code; auto mode picks alpha_j = gamma^{j*b}.

    Appropriateness (all bn evaluation points distinct) is always checked,
    never assumed.
    """
    if alphas is None:
        gamma = multiplicative_generator(field)
        alphas = [field.pow(gamma, j * b) for j in range(n)]
    return FoldedRSCode(field, b, n, Fraction(rho), alphas)


def frs_as_linear_code(frs: FoldedRSCode) -> BlockCode:
    return frs.as_block_code()

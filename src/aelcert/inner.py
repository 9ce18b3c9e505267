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
from itertools import chain, combinations

import numpy as np

from .arld import (
    DEFAULT_SUBSET_CAP,
    epsilon_min,
    intern_symbols,
    key_ids,
    min_disagreement_by_size,
    pair_disagreements,
    plurality_center,
    subset_search_count,
    symbol_keys,
    translation_closed,
)
from .codes import DEFAULT_ENUMERATION_CAP, ERASED, LinearCode, word_tuples
from .errors import Mismatch, SearchExhausted, TooLarge
from .gf import Field, _fraction, _ints, multiplicative_generator
from .outer import RSOuterCode
from .seeds import derive_seed

# generator matrices drawn before a full-rank sample counts as unreachable
SAMPLE_ATTEMPTS = 100
# centers the literal oracle may enumerate for one erasure set
CENTER_CAP = 1 << 22


def resolve_words(code_or_words) -> tuple:
    """(words, field), the one decision of how words reach the certifier:
    a code's `word_array`, or else the tuples of `enumerate_codewords()` or
    of a word list; Mismatch for no words or words of unequal length."""
    field = getattr(code_or_words, "field", None)
    words = getattr(code_or_words, "word_array", lambda: None)()
    if words is not None:
        return words, field
    enumerate_codewords = getattr(code_or_words, "enumerate_codewords", None)
    words = enumerate_codewords() if enumerate_codewords else [tuple(w) for w in code_or_words]
    if not words or any(len(w) != len(words[0]) for w in words):
        raise Mismatch("need one or more words, all of one length")
    return list(words), field


def _word_ids(words, field) -> np.ndarray:
    """The (M, n) ids a sweep compares: an array's entries or its folded
    `symbol_keys` ranked by `key_ids`, or a word list's interned symbols."""
    if isinstance(words, list):
        return intern_symbols(words)[0]
    return words if words.ndim == 2 else key_ids(symbol_keys(words, field.q))


def _word_rows(words, indices) -> list[tuple]:
    """`resolve_words` words at `indices`, as tuples; Mismatch off the list."""
    if not all(0 <= i < len(words) for i in indices):
        raise Mismatch(f"word indices {indices} are not all below {len(words)}")
    if isinstance(words, list):
        return [words[i] for i in indices]
    return word_tuples(words[list(indices)])


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
    subsets_scored counts the visited subsets whose D(H) the sweep computed:
    at most subsets_evaluated, fewer where the branch-and-bound of
    `aelcert.arld` skipped a subset that contains one above its bound.
    The saved certificate keeps these two counts and `reduction` in its
    `# ` header lines, outside the body.
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
    subsets_scored: int | None = None
    reduction: str | None = None
    # the sweep's per-size SubsetWitness: not saved, empty on a loaded certificate
    witnesses: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def reevaluate(self, code_or_words) -> Fraction:
        """Recompute eps_min from the stored witness subset (rational
        equality); Mismatch for a witness index the words lack."""
        rows = _word_rows(resolve_words(code_or_words)[0], self.witness_indices)
        _, contribs = plurality_center(rows)
        m = len(rows)
        return max(Fraction(0), self.delta0 - Fraction(sum(contribs), len(rows[0]) * (m - 1)))


def min_arld_slack(code_or_words, k: int, delta0: Fraction, subset_cap: int = DEFAULT_SUBSET_CAP,
                   description: str = "") -> ARLDCertificate:
    """Exact worst-case slack over all subsets H with |H| <= k and all centers.

    The center quantifier collapses to the coordinate-wise plurality; the
    subset quantifier is settled exactly by the branch-and-bound sweep of
    `aelcert.arld`, only over the subsets that contain word 0 when the
    words form a group under the addition of the code's `field` (a linear,
    folded RS, AEL or field-carrying block code).  Plain word lists carry
    no field and are swept in full.  Only the witness rows become tuples.
    """
    k, delta0 = _ints(k, "k"), _fraction(delta0, "delta0")
    words, field = resolve_words(code_or_words)
    sym = _word_ids(words, field)
    n = sym.shape[1]
    t0 = time.perf_counter()
    if k < 2 or len(words) < 2:
        return ARLDCertificate(
            delta0, k, Fraction(0), n, (), (), 0, 0,
            time.perf_counter() - t0, description,
            subsets_evaluated=0, subsets_scored=0, reduction="none",
        )
    closed = translation_closed(words, field)
    witnesses = min_disagreement_by_size(sym, k, subset_cap, closed)
    eps, worst = epsilon_min(witnesses, n, delta0)
    center, _ = plurality_center(_word_rows(words, worst.indices))
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
        min_disagreements_by_size={m: w.disagreement_count for m, w in witnesses.items()},
        subsets_evaluated=subset_search_count(len(words), k, closed),
        subsets_scored=sum(w.scored for w in witnesses.values()),
        reduction="translation" if closed else "none",
        witnesses=witnesses,
    )


def exhaustive_arld_check(code_or_words, k: int, delta0: Fraction, eps: Fraction):
    """Literal quantifier sweep of the average-radius definition.

    Independent oracle: enumerates every subset H (2 <= |H| <= k), every
    erasure set S and every center over the non-erased coordinates, drawn
    from the symbols the words use (for a linear code, all of its field).
    Returns (True, None) or (False, witness dict); more than CENTER_CAP
    centers for one erasure set raise TooLarge.
    """
    k, delta0, eps = _ints(k, "k"), _fraction(delta0, "delta0"), _fraction(eps, "eps")
    words = resolve_words(code_or_words)[0]
    words = _word_rows(words, range(len(words)))
    sym, index = intern_symbols(words)
    alphabet, n = list(index), sym.shape[1]
    Q = len(alphabet)
    erasure_sets = [frozenset(S) for r in range(n + 1) for S in combinations(range(n), r)]
    for m in range(2, min(k, len(words)) + 1):
        for idx in combinations(range(len(words)), m):
            rows = sym[list(idx)]
            for S in erasure_sets:
                keep = [i for i in range(n) if i not in S]
                s_frac = Fraction(len(S), n)
                bound = (m - 1) * (delta0 - s_frac - eps)
                t = len(keep)
                if Q**t > CENTER_CAP:
                    raise TooLarge(f"{Q}^{t} centers exceed cap {CENTER_CAP}")
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
                    return False, {"subset_indices": idx, "subset": [words[i] for i in idx],
                                   "center": tuple(g), "lhs": Fraction(int(d_counts[j]), n),
                                   "rhs": bound}
    return True, None


def _all_tuples(Q: int, t: int) -> np.ndarray:
    """The Q^t tuples over range(Q) as rows; one empty row when t = 0."""
    grids = np.indices((Q,) * t)
    return grids.reshape(t, Q**t).T.copy()


def sample_random_linear_code(
    field: Field, length: int, dim: int, rng: np.random.Generator
) -> LinearCode:
    """Uniform full-rank generator matrix; deterministic under the given rng."""
    if dim < 1:
        raise Mismatch("generator must have at least one row")
    if dim > length:
        raise Mismatch(f"dim {dim} > length {length}: no generator has full row rank")
    for _ in range(SAMPLE_ATTEMPTS):
        gen = rng.integers(0, field.q, size=(dim, length))
        try:
            return LinearCode(field, gen.tolist())
        except Mismatch:
            continue
    raise SearchExhausted(f"no full-rank sample in {SAMPLE_ATTEMPTS} attempts")


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
    delta0, eps_target = _fraction(delta0, "delta0"), _fraction(eps_target, "eps_target")
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
    the (possibly tuple) symbols; it lets the ARLD sweep test closure.  The
    constructor checks the words once (`_field_words`), so a code with a
    field always has its `word_array`.  No words raise Mismatch.
    """

    def __init__(self, codewords, field: Field | None = None):
        self.codewords = [tuple(w) for w in codewords]
        if not self.codewords:
            raise Mismatch("need one or more codewords")
        self.n = len(self.codewords[0])
        self.field = field
        self._words = None if field is None else _field_words(self.codewords, field)

    def enumerate_codewords(self) -> list[tuple]:
        return self.codewords

    def word_array(self) -> np.ndarray | None:
        """The words of a code with a `field`; None without one."""
        return self._words

    def min_distance(self) -> Fraction:
        """Minimum pairwise distance, from the `pair_disagreements` counts."""
        words, field = resolve_words(self)
        if len(words) < 2:
            raise Mismatch("need at least two codewords")
        dist = pair_disagreements(_word_ids(words, field))
        return Fraction(int(dist[np.triu_indices(len(dist), k=1)].min()), self.n)

    def __len__(self) -> int:
        return len(self.codewords)


def _field_words(words: list[tuple], field: Field) -> np.ndarray:
    """The words as one read-only (M, n) or (M, n, w) int64 array; Mismatch
    for unequal shapes, FieldMismatch for an entry `Field.vector` refuses."""
    try:
        shape = np.shape(words)
    except ValueError:  # words or symbols of unequal shape
        shape = ()
    if len(shape) not in (2, 3):
        raise Mismatch("block code words must share one shape: n elements or n w-tuples")
    entries = chain.from_iterable(chain.from_iterable(words) if len(shape) == 3 else words)
    array = np.array(field.vector(entries, "codeword entry"), dtype=np.int64).reshape(shape)
    array.flags.writeable = False
    return array


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
    alphas : vector over `field`, optional
        Evaluation anchors, one per folded symbol; alpha_j = gamma^{j*b} by
        default.  A value outside the field or a bool or float anywhere raises ValueError.
    """

    def __init__(self, field: Field, b: int, n: int, rho: Fraction, alphas=None):
        b, n = _ints(b, "b"), _ints(n, "n")
        if field.q < b * n:
            raise Mismatch(f"q={field.q} < bn={b * n}")
        rho = _fraction(rho, "rho")
        dim = rho * b * n
        if dim.denominator != 1 or not 1 <= dim <= b * n:
            raise ValueError(f"rho*b*n = {dim} must be an integer in [1, bn = {b * n}]")
        self.field = field
        self.b = b
        self.n = n
        self.rho = rho
        self.dim = int(dim)
        self.gamma = gamma = multiplicative_generator(field)
        if alphas is None:
            alphas = [field.pow(gamma, j * b) for j in range(n)]
        self.alphas = tuple(field.vector(alphas, "alphas"))
        if len(self.alphas) != n:
            raise ValueError("need one evaluation anchor per folded symbol")
        points = [field.mul(field.pow(gamma, i), a) for a in self.alphas
                  for i in range(b)]
        if len(set(points)) != b * n:
            raise Mismatch("evaluation points {gamma^i alpha_j} collide")
        self.rs = RSOuterCode(field, b * n, self.dim, points)

    def encode(self, msg) -> tuple[tuple[int, ...], ...]:
        word = self.rs.encode(msg)
        return tuple(word[j:j + self.b] for j in range(0, len(word), self.b))

    def word_array(self, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """The codewords over F_q^b, in message order: the read-only RS word
        array cut into b-entry symbols, (N, n, b)."""
        return self.rs.word_array(cap).reshape(-1, self.n, self.b)

    def enumerate_codewords(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[tuple]:
        """`word_array` as tuples of b-tuples."""
        return word_tuples(self.word_array(cap))


def make_folded_rs(field: Field, b: int, n: int, rho: Fraction, alphas=None) -> FoldedRSCode:
    """An appropriate FRS code: `FoldedRSCode` picks alpha_j = gamma^{j*b} by
    default and always checks that the bn evaluation points are distinct."""
    return FoldedRSCode(field, b, n, rho, alphas)


def frs_as_linear_code(frs: FoldedRSCode) -> BlockCode:
    return BlockCode(frs.enumerate_codewords(), frs.field)

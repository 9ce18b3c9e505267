"""
Brute-force list-decoding oracle over enumerable AEL codes and exact
verification of the average-radius generalized Singleton bound, the
common-error strengthening, the induced-partition count, and the erasure
sampling bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ael import AELCode
from .arld import DEFAULT_SUBSET_CAP, symbol_keys
from .codes import word_tuples
from .errors import Mismatch
from .gf import _fraction, _ints
from .inner import min_arld_slack


def brute_force_list(code: AELCode, center, beta: Fraction):
    """All codewords within (erased) distance <= beta of the center: those
    with at most floor(beta * n) disagreements on the unerased vertices,
    counted in one comparison of the code's symbol keys (`AELCode.word_keys`)
    with the center's, computed in one step.  The center is read by
    `AELCode.read_word`, whose erased rows hold d entries of -1, a negative
    key no codeword has, so an erased symbol disagrees with every word and
    the bound grows by the erasure count.  Only the listed words are built
    as tuples."""
    rows, erased = code.read_word(center)
    beta = _fraction(beta, "beta")
    limit = beta.numerator * code.n // beta.denominator + int(np.count_nonzero(erased))
    center_keys = symbol_keys(rows, code.field.q)
    keys = code.word_keys()
    differ = keys[..., 0] != center_keys[:, 0]
    for j in range(1, keys.shape[-1]):  # a symbol of c keys differs where one does
        differ |= keys[..., j] != center_keys[:, j]
    return word_tuples(code.word_array()[(differ.sum(1) <= limit).nonzero()[0]])


def verify_generalized_singleton(
    code: AELCode,
    k: int,
    delta0: Fraction,
    eps: Fraction,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> dict:
    """Exhaustive subset check of the average-radius bound on C_AEL.

    For every H with |H| <= k the worst center is the coordinate-wise
    plurality on folded symbols; erasures are covered by the slack
    monotonicity argument.  The theorem hypothesis lambda <= delta_out *
    eps / (6 k^k) is evaluated in exact rationals with the conservative
    lambda bound; when unmet the theorem assertion is reported NOT
    APPLICABLE (the empirical minimum eps is still reported).

    The sweep is `aelcert.inner.min_arld_slack`, the certifier of the inner
    code, run on the AEL code itself: when its words form a group under
    the addition of its `field` (the inner field), sizes >= 3 sweep only
    the subsets that contain word 0; "subsets_examined" counts the subsets
    covered, "subsets_evaluated" those visited, and "reduction" names the
    reduction used ("translation" or "none").  "code" is the code object
    swept, which binds the report to it.
    """
    k, delta0, eps = _ints(k, "k"), _fraction(delta0, "delta0"), _fraction(eps, "eps")
    cert = min_arld_slack(code, k, delta0, subset_cap)
    violations = []
    for m, w in cert.witnesses.items():
        lhs = Fraction(w.disagreement_count, code.n)
        rhs = (m - 1) * (delta0 - eps)
        if lhs < rhs:
            violations.append(
                {"size": m, "indices": w.indices, "lhs": lhs, "rhs": rhs}
            )
    lam = code.graph.lam_bound
    hyp_rhs = code.delta_out * eps / (6 * Fraction(k) ** k)
    hypothesis_ok = lam <= hyp_rhs
    empirical_pass = not violations
    if hypothesis_ok:
        assertion = "PASS" if empirical_pass else "FAIL"
    else:
        assertion = "NOT APPLICABLE"
    return {
        "k": k,
        "delta0": delta0,
        "eps": eps,
        "empirical_pass": empirical_pass,
        "empirical_eps_min": cert.eps_min,
        "worst_witness": cert.witnesses.get(len(cert.witness_indices)),
        "violations": violations,
        "min_disagreements_by_size": cert.min_disagreements_by_size,
        "subsets_examined": cert.subsets_examined,
        "subsets_evaluated": cert.subsets_evaluated,
        "reduction": cert.reduction,
        "lam_bound": lam,
        "hypothesis_rhs": hyp_rhs,
        "hypothesis_satisfied": hypothesis_ok,
        "theorem_assertion": assertion,
        "code": code,
    }


def verify_common_error_bound(
    code: AELCode,
    k: int,
    delta0: Fraction,
    eps: Fraction,
    centers,
    beta: Fraction,
    singleton_report: dict | None = None,
) -> dict:
    """The strengthened inequality with the common-error term, for every
    center g and every subset H of codewords with |H| = m <= k:
        sum_h Delta(g, h) >= (m - 1)(delta0 - eps) + c(g, H),
    c(g, H) the fraction of coordinates where every member of H differs from g.

    It is a lemma of the Singleton certificate.  At coordinate r let
    maxcount_r be the largest number of members of H sharing a symbol, so
    the plurality count is D(H) = sum_r (m - maxcount_r).  If g_r equals
    some h_r, the coordinate costs sum_h [g_r != h_r] = m - count(g_r) >=
    m - maxcount_r; if it equals none (an erased g_r included), it costs
    m >= (m - maxcount_r) + 1 and is a common error.  Summing over r,
    n * sum_h Delta(g, h) >= D(H) + n * c(g, H), and a passing report gives
    D(H) >= n (m - 1)(delta0 - eps) through its exact minimum of D over
    |H| = m.  So the check is one comparison per size m
    in 2..k that the report's minima hold (m = 1 holds with equality),
    "inequalities_checked" counts them, and a violation names the size
    whose minimum falls short.

    The premise is a passing `verify_generalized_singleton` report of this
    very code object at this k, delta0 and eps, else Mismatch.  The
    centers are counted and refused as `AELCode.read_word` refuses them;
    the verdict covers every center.  `beta` is not read: it stays until
    the benchmark harness stops passing it.
    """
    k, delta0, eps = _ints(k, "k"), _fraction(delta0, "delta0"), _fraction(eps, "eps")
    if singleton_report is None or not singleton_report.get("empirical_pass"):
        raise Mismatch("verify_generalized_singleton must pass first at (delta0, k, eps)")
    if singleton_report.get("code") is not code:
        raise Mismatch("the Singleton report is for another code")
    premise = [singleton_report.get(key) for key in ("k", "delta0", "eps")]
    if premise != [k, delta0, eps]:
        raise Mismatch("the Singleton report is for k, delta0, eps = {}, {}, {},"
                       " not {}, {}, {}".format(*premise, k, delta0, eps))
    n_centers = 0
    for n_centers, g in enumerate(centers, 1):
        code.read_word(g)
    minima = singleton_report["min_disagreements_by_size"]
    violations = []
    for m, d in minima.items():
        lhs, rhs = Fraction(d, code.n), (m - 1) * (delta0 - eps)
        if lhs < rhs:
            violations.append({"size": m, "lhs": lhs, "rhs": rhs})
    return {
        "centers": n_centers,
        "inequalities_checked": len(minima),
        "violations": violations,
        "passed": not violations,
    }


@dataclass
class PartitionProfile:
    """Per-left-vertex partitions induced by local projections of a tuple H."""

    subset_size: int
    partitions: list[tuple]  # canonical partition per left vertex
    histogram: Counter
    tau_star: tuple | None  # most frequent nontrivial partition
    l_star: list[int]
    nontrivial_mass: int
    bound: Fraction  # delta_out * n / k^k


def _canonical_partition(views) -> tuple:
    groups: dict[tuple, list[int]] = {}
    for i, v in enumerate(views):
        groups.setdefault(v, []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


def partition_profile(code: AELCode, subset) -> PartitionProfile:
    """Induced partitions of H across left vertices, and the majority
    nontrivial partition tau* with its support set L*."""
    subset = [tuple(h) for h in subset]
    k = len(subset)
    if len(set(subset)) != k:
        raise Mismatch("codewords in H must be distinct")
    all_views = [code.left_views(h) for h in subset]
    partitions = []
    for l in range(code.n):
        partitions.append(_canonical_partition([v[l] for v in all_views]))
    histogram = Counter(partitions)
    nontrivial = {p: c for p, c in histogram.items() if len(p) >= 2}
    tau_star = max(nontrivial, key=lambda p: (nontrivial[p], p)) if nontrivial else None
    l_star = [l for l, p in enumerate(partitions) if p == tau_star]
    bound = code.delta_out * code.n / Fraction(k) ** k
    return PartitionProfile(
        subset_size=k,
        partitions=partitions,
        histogram=histogram,
        tau_star=tau_star,
        l_star=l_star,
        nontrivial_mass=sum(nontrivial.values()),
        bound=bound,
    )


def sampling_bound_check(code: AELCode, erased, l_star, k: int | None = None) -> dict:
    """Mixing-lemma step inside the erasure sampling bound:
    E_{l in L*}[s_l] <= s + lam_bound * n / |L*|, over the erasure mask
    of `AELCode.read_word` (an erased right vertex erases its d edges).

    With H the erased edges out of L* and lam_bound = a/b, multiplying by
    d * |L*| * n * b leaves one integer comparison:
    H * n * b <= (erasure count) * d * |L*| * b + a * n^2 * d.
    """
    l_star = list(l_star)
    n, d, m = code.n, code.d, len(l_star)
    if not l_star:
        raise Mismatch("L* is empty")
    if any(not 0 <= l < n for l in l_star):
        raise ValueError(f"L* has a vertex outside [0, {n})")
    # L* is a set: a repeated vertex would count its erased edges twice
    if repeated := [l for l, c in Counter(l_star).items() if c > 1]:
        raise Mismatch(f"L* repeats vertex {repeated[0]}")
    if k is not None:
        required = code.delta_out * n / Fraction(k) ** k
        if m < required:
            raise Mismatch(f"|L*| = {m} < {required}")
    mask = code.read_word(erased)[1]
    counts, erasures = mask[code.graph.adj].sum(1).tolist(), int(np.count_nonzero(mask))
    hits = sum(counts[l] for l in l_star)
    lam = code.graph.lam_bound
    a, b = lam.numerator, lam.denominator
    passed = hits * n * b <= erasures * d * m * b + a * n * n * d
    return {"lhs": Fraction(hits, d * m), "rhs": Fraction(erasures, n) + lam * n / m,
            "passed": passed, "l_star_size": m}

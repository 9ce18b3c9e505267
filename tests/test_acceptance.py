"""Acceptance suite: one test per criterion, pinned tolerances, shared
instances built from a single root seed (see instances.build_artifacts)."""

import math
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from instances import ROOT_SEED, build_artifacts

from aelcert import (
    exhaustive_arld_check,
    min_arld_slack,
    sample_random_linear_code,
)
from aelcert.arld import subset_search_count
from aelcert.inner import _all_tuples
from aelcert.io import artifact_body_bytes, load_artifact
from aelcert.rounding import InnerDistributionEnsemble
from aelcert.seeds import derive_seed


def test_ac1_inner_verification(acceptance):
    t0 = time.time()
    cert = acceptance["ac1"]["certificate"]
    code = acceptance["ac1"]["code"]
    assert code.field.q == 8 and code.n == 6 and code.dim == 2
    assert cert.k == 4 and cert.delta0 == Fraction(2, 3)
    assert cert.subsets_examined == subset_search_count(64, 4)
    assert cert.subsets_examined <= 700_000
    assert cert.eps_min <= Fraction(1, 6)
    assert cert.reevaluate(code) == cert.eps_min
    elapsed = time.time() - t0
    assert elapsed <= 300
    print(f"AC1 PASS: eps_min = {cert.eps_min} <= 1/6 over "
          f"{cert.subsets_examined} subsets")


def test_ac2_erasure_monotonicity_and_oracle_agreement(gf4):
    t0 = time.time()
    rng = np.random.default_rng(derive_seed(ROOT_SEED, "ac2"))
    code = sample_random_linear_code(gf4, 5, 2, rng)
    words = code.enumerate_codewords()
    sym = np.array(words, dtype=np.int64)
    n, q = 5, 4
    centers = _all_tuples(q, n)  # (1024, 5)
    masks = np.array(
        [[0 if i in s_set else 1 for i in range(n)]
         for r in range(n + 1) for s_set in combinations(range(n), r)],
        dtype=np.int64,
    )  # (32, 5), 1 marks a kept (non-erased) coordinate
    s_sizes = n - masks.sum(axis=1)
    exceptions = 0
    for m in (2, 3):
        for idx in combinations(range(16), m):
            rows = sym[list(idx)]  # (m, n)
            # disagreements if the center picks symbol v at coordinate i
            contrib = np.array(
                [[m - int((rows[:, i] == v).sum()) for i in range(n)]
                 for v in range(q)],
                dtype=np.int64,
            )
            per_coord = contrib[centers, np.arange(n)]  # (1024, n)
            min_full = int(per_coord.sum(axis=1).min())
            # every erasure pattern, every center on the kept coordinates:
            # D_S(center) + (m-1)|S| >= min over full centers of D(center)
            d_masked = per_coord @ masks.T  # (1024, 32)
            lhs = d_masked + (m - 1) * s_sizes[None, :]
            exceptions += int((lhs < min_full).sum())
    assert exceptions == 0
    # independent oracle agreement on the same code
    for delta0, eps in product(
        (Fraction(1, 2), Fraction(4, 5), Fraction(1)),
        (Fraction(0), Fraction(1, 10), Fraction(1, 4)),
    ):
        cert = min_arld_slack(code, k=3, delta0=delta0)
        fast = cert.eps_min <= eps
        slow, _ = exhaustive_arld_check(code, k=3, delta0=delta0, eps=eps)
        assert fast == slow
    elapsed = time.time() - t0
    assert elapsed <= 600
    print(f"AC2 PASS: 0 monotonicity exceptions, 9/9 oracle agreements "
          f"({elapsed:.1f}s)")


def test_ac3_distance_amplification(acceptance):
    t0 = time.time()
    report = acceptance["ac3"]["report"]
    graph = acceptance["ac3"]["graph"]
    assert graph.n == 12 and graph.d == 4
    assert report["pairs_checked"] == 256 * 255 // 2
    assert report["delta_in"] == Fraction(3, 4)
    assert report["min_delta_R"] is not None  # zero violations by construction
    elapsed = time.time() - t0
    assert elapsed <= 30
    print(f"AC3 PASS: {report['pairs_checked']} pairs, "
          f"min Delta_R = {report['min_delta_R']}, lambda = {graph.lam:.4f}")


def test_ac4_generalized_singleton_at_lambda_zero(acceptance):
    report = acceptance["ac4"]["report"]
    eps_in = acceptance["ac4"]["eps_in"]
    assert acceptance["ac4"]["certificate"].delta0 == Fraction(2, 3)
    assert eps_in <= Fraction(1, 6)
    assert report["eps"] == 2 * eps_in
    assert report["subsets_examined"] == subset_search_count(256, 4)
    assert report["subsets_examined"] > 170_000_000
    assert report["violations"] == []
    assert report["empirical_pass"]
    # lambda = 0 (conservatively 1e-6) satisfies the theorem hypothesis
    assert report["hypothesis_satisfied"]
    assert report["theorem_assertion"] == "PASS"
    print(f"AC4 PASS: {report['subsets_examined']} subsets, 0 violations at "
          f"eps = 2*eps_in = {2 * eps_in}, eps_min = {report['empirical_eps_min']}")


def test_ac5_common_error_bound(acceptance):
    report = acceptance["ac5"]["report"]
    assert len(acceptance["ac5"]["centers"]) == 250
    assert report["centers"] == 250
    assert report["violations"] == []
    assert report["passed"]
    # the lemma's premise comparisons, and the oracle on the 250 centers
    assert report["inequalities_checked"] == 3
    assert acceptance["ac5"]["oracle_violations"] == []
    body = load_artifact(acceptance["outdir"] / "ac5_common_error.json")
    assert body["extra"]["inequalities_checked"] == 93
    print(f"AC5 PASS: lemma from the k = 4 minima; oracle checked 93 "
          f"inequalities over 250 centers, 0 violations")


def test_ac6_threshold_rounding(acceptance):
    assert acceptance["ac6"]["recovered"] == 100
    # threshold-endpoint completeness against 1000 random thetas
    rng = np.random.default_rng(derive_seed(ROOT_SEED, "ac6-theta"))
    for trial in range(10):
        weights = []
        for _ in range(3):
            cuts = sorted(int(x) for x in rng.integers(1, 20, size=2))
            weights.append([
                Fraction(cuts[0], 20),
                Fraction(cuts[1] - cuts[0], 20),
                Fraction(20 - cuts[1], 20),
            ])
        ens = InnerDistributionEnsemble(weights)
        seen = {tuple(ens._round(t)) for t in ens._thresholds()}
        for _ in range(1000):
            # theta rounds as the integer threshold floor(theta * scale)
            theta = Fraction(int(rng.integers(0, 10**6)), 10**6)
            assert tuple(ens._round(math.floor(theta * ens.scale))) in seen
    print("AC6 PASS: 100/100 planted ensembles recovered; endpoint set "
          "complete on 10x1000 thetas")


def test_ac7_expander_mixing(acceptance):
    from aelcert import complete_bipartite

    assert acceptance["ac7"]["failures"] == 0
    graph = acceptance["ac7"]["graph"]
    assert graph.n == 64 and graph.d == 8
    k16 = complete_bipartite(16)
    assert k16.lam <= 1e-9
    print(f"AC7 PASS: 2000 EML checks, 0 violations at lambda = "
          f"{graph.lam:.4f}; K_16,16 lambda = {k16.lam:.2e}")


def test_ac8_folded_rs(acceptance):
    frs = acceptance["ac8"]["frs"]
    cert = acceptance["ac8"]["certificate"]
    # appropriateness: all 8 evaluation points distinct (checked again here)
    points = {
        frs.field.mul(frs.field.pow(frs.gamma, i), a)
        for i in range(frs.b)
        for a in frs.alphas
    }
    assert len(points) == frs.b * frs.n == 8
    assert len(acceptance["ac8"]["block"].codewords) == 289
    # enumerated folded min distance: exactly 1 (a nonzero degree-<2
    # difference polynomial cannot vanish at both points of a folded symbol,
    # so distinct codewords differ everywhere); in particular >= 3/4
    assert acceptance["ac8"]["min_distance"] == 1
    assert acceptance["ac8"]["min_distance"] >= Fraction(3, 4)
    assert cert.delta0 == Fraction(3, 4) and cert.k == 3
    assert cert.eps_min == 0
    print(f"AC8 PASS: appropriate FRS, folded min distance = "
          f"{acceptance['ac8']['min_distance']}, eps_min = {cert.eps_min}")


def test_ac9_outer_decoder(acceptance):
    assert acceptance["ac9"]["decoded"] == 500
    print("AC9 PASS: 500/500 error patterns of weight <= 5 decoded")


def test_ac10_determinism(acceptance, tmp_path_factory):
    rebuilt_dir = tmp_path_factory.mktemp("acceptance-rerun")
    build_artifacts(rebuilt_dir)
    first = acceptance["outdir"]
    names = sorted(p.name for p in first.glob("*.json"))
    assert names == sorted(p.name for p in rebuilt_dir.glob("*.json"))
    for name in names:
        assert artifact_body_bytes(first / name) == artifact_body_bytes(
            rebuilt_dir / name
        ), f"artifact body differs on rerun: {name}"
    print(f"AC10 PASS: {len(names)} artifacts byte-identical across reruns")

"""
Shared acceptance instances: every certificate and report used by the
acceptance tests is produced by one call to build_artifacts from a single
root seed, so the determinism criterion can rebuild the whole set and
compare artifact bodies byte for byte.
"""

from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from aelcert import (
    AELCode,
    RSOuterCode,
    brute_force_list,
    common_error_fraction,
    complete_bipartite,
    eml_failures,
    frs_as_linear_code,
    hamming_distance,
    make_field,
    make_folded_rs,
    min_arld_slack,
    random_regular_bipartite,
    rs_unique_decode,
    search_inner_code,
    verify_common_error_bound,
    verify_distance_amplification,
    verify_generalized_singleton,
)
from aelcert.arld import plurality_center
from aelcert.io import save_certificate, save_code, save_graph, save_report
from aelcert.rounding import (
    InnerDistributionEnsemble,
    decode_from_distributions,
)
from aelcert.seeds import derive_seed

ROOT_SEED = 2024


def _rows_from_counts(instance, counts, bound):
    return [
        {
            "instance": instance,
            "parameter": f"min_disagreements_m{m}",
            "value": d,
            "bound": str(bound(m)),
            "margin": str(Fraction(d) - Fraction(bound(m))),
            "pass": Fraction(d) >= Fraction(bound(m)),
        }
        for m, d in sorted(counts.items())
    ]


def planted_weights(code, rng):
    """A random codeword h of `code`, its inner-codeword picks and weight rows
    that move up to 48/100 of each row's mass to one other inner codeword, in
    total at most delta_dec * n of it (the AC6 noise model)."""
    words = code.enumerate_codewords()
    m_inner = code.inner.size
    h = words[rng.integers(0, len(words))]
    picks = list(code.decode_to_outer(h))
    budget = code.outer.delta_dec * code.n
    weights = []
    for l in range(code.n):
        steal = min(Fraction(int(rng.integers(0, 49)), 100), budget)
        budget -= steal
        row = [Fraction(0)] * m_inner
        row[picks[l]] = 1 - steal
        other = int(rng.integers(0, m_inner))
        if other == picks[l]:
            other = (other + 1) % m_inner
        row[other] = steal
        weights.append(row)
    return h, picks, weights


def common_error_oracle(code, k, delta0, eps, centers, beta):
    """The common-error inequality checked literally, the independent oracle
    of `verify_common_error_bound`'s lemma: for each center g and every
    subset H (|H| <= k) of its radius-beta list,
        sum_h Delta(g, h) >= (|H| - 1)(delta0 - eps) + common_error_fraction(g, H).
    Returns the number of inequalities checked and the violations."""
    checked, violations = 0, []
    for g in centers:
        g = tuple(g)
        lst = brute_force_list(code, g, beta)
        for m in range(1, min(k, len(lst)) + 1):
            for subset in combinations(lst, m):
                lhs = sum((hamming_distance(g, h) for h in subset), Fraction(0))
                rhs = (m - 1) * (delta0 - eps) + common_error_fraction(g, subset)
                checked += 1
                if lhs < rhs:
                    violations.append({"center": g, "size": m, "lhs": lhs, "rhs": rhs})
    return checked, violations


def build_artifacts(outdir) -> dict:
    """Build every acceptance instance and persist its artifacts.

    Returns a dict of live objects and measured quantities keyed by
    criterion, for the tests to assert on.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out: dict = {"outdir": outdir}

    f4 = make_field(2, 2)
    f8 = make_field(2, 3)
    f16 = make_field(2, 4)
    f17 = make_field(17, 1)

    # --- inner code over GF(8), length 6, dim 2, certified at (2/3, 4) -------
    code1, cert1 = search_inner_code(
        f8, 6, 2, k=4, delta0=Fraction(2, 3), eps_target=Fraction(1, 6),
        seed=derive_seed(ROOT_SEED, "ac1"),
    )
    save_code(outdir / "ac1_inner.json", code1)
    save_certificate(outdir / "ac1_certificate.json", cert1)
    out["ac1"] = {"code": code1, "certificate": cert1}

    # --- expander instance: n=12, d=4 random graph, RS[4,2]/GF(4) inner,
    # --- RS[12,2]/GF(16) outer -----------------------------------------------
    graph3 = random_regular_bipartite(
        12, 4, seed=derive_seed(ROOT_SEED, "ac3-graph"), lam_target=0.95
    )
    inner3 = RSOuterCode(f4, 4, 2, points=[0, 1, 2, 3])
    outer = RSOuterCode(f16, 12, 2)
    ael3 = AELCode(graph3, inner3, outer)
    amp_report = verify_distance_amplification(ael3)
    save_graph(outdir / "ac3_graph.json", graph3)
    save_report(
        outdir / "ac3_amplification.json",
        "distance-amplification",
        [{
            "instance": "ac3",
            "parameter": "min_delta_R",
            "value": str(amp_report["min_delta_R"]),
            "bound": str(amp_report["global_bound"]),
            "margin": "",
            "pass": True,
        }],
        True,
        extra={"pairs_checked": amp_report["pairs_checked"],
               "lambda": str(amp_report["lam_bound"])},
    )
    out["ac3"] = {"graph": graph3, "inner": inner3, "outer": outer,
                  "ael": ael3, "report": amp_report}

    # --- K_{12,12} instance with a searched GF(4) [12,2] inner code ----------
    inner4, cert4 = search_inner_code(
        f4, 12, 2, k=4, delta0=Fraction(2, 3), eps_target=Fraction(1, 6),
        seed=derive_seed(ROOT_SEED, "ac4"),
    )
    eps_in = cert4.eps_min
    ael4 = AELCode(complete_bipartite(12), inner4, outer)
    singleton = verify_generalized_singleton(
        ael4, 4, Fraction(2, 3), 2 * eps_in
    )
    save_code(outdir / "ac4_inner.json", inner4)
    save_certificate(outdir / "ac4_certificate.json", cert4)
    save_report(
        outdir / "ac4_singleton.json",
        "generalized-singleton",
        _rows_from_counts(
            "ac4",
            singleton["min_disagreements_by_size"],
            lambda m: (m - 1) * (Fraction(2, 3) - 2 * eps_in) * 12,
        ),
        singleton["empirical_pass"],
        extra={"eps": str(2 * eps_in),
               "eps_min": str(singleton["empirical_eps_min"]),
               "theorem_assertion": singleton["theorem_assertion"]},
    )
    out["ac4"] = {"inner": inner4, "certificate": cert4, "ael": ael4,
                  "eps_in": eps_in, "report": singleton}

    # --- common-error bound on the K_{12,12} instance -------------------------
    words4 = ael4.enumerate_codewords()
    rng = np.random.default_rng(derive_seed(ROOT_SEED, "ac5-centers"))
    alphabet = sorted({s for w in words4 for s in w})
    centers = []
    for _ in range(50):
        idx = rng.choice(len(words4), size=3, replace=False)
        centers.append(plurality_center([words4[i] for i in idx])[0])
    for _ in range(200):
        centers.append(
            tuple(alphabet[i] for i in rng.integers(0, len(alphabet), ael4.n))
        )
    common = verify_common_error_bound(
        ael4, 4, Fraction(2, 3), 2 * eps_in, centers,
        beta=Fraction(1, 2), singleton_report=singleton,
    )
    # the body records the oracle's count, which the lemma's verdict covers
    checked, oracle_violations = common_error_oracle(
        ael4, 4, Fraction(2, 3), 2 * eps_in, centers, Fraction(1, 2))
    save_report(
        outdir / "ac5_common_error.json",
        "common-error-bound",
        [{
            "instance": "ac5",
            "parameter": "centers_checked",
            "value": len(centers),
            "bound": "",
            "margin": "",
            "pass": common["passed"],
        }],
        common["passed"],
        extra={"inequalities_checked": checked},
    )
    out["ac5"] = {"centers": centers, "report": common,
                  "oracle_violations": oracle_violations}

    # --- planted-ensemble unique decoding on the expander instance ------------
    recovered = 0
    for trial in range(100):
        trng = np.random.default_rng(derive_seed(ROOT_SEED, "ac6", trial))
        h, picks, weights = planted_weights(ael3, trng)
        ensemble = InnerDistributionEnsemble(weights)
        assert ensemble._disagreement(picks) <= outer.unique_decoding_radius * ensemble.scale
        if decode_from_distributions(ael3, ensemble) == h:
            recovered += 1
    save_report(
        outdir / "ac6_rounding.json",
        "threshold-rounding",
        [{
            "instance": "ac6",
            "parameter": "planted_recovered",
            "value": recovered,
            "bound": 100,
            "margin": recovered - 100,
            "pass": recovered == 100,
        }],
        recovered == 100,
    )
    out["ac6"] = {"recovered": recovered}

    # --- mixing-lemma sweep on a 64-vertex degree-8 graph ----------------------
    graph7 = random_regular_bipartite(
        64, 8, seed=derive_seed(ROOT_SEED, "ac7-graph"), lam_target=0.9
    )
    erng = np.random.default_rng(derive_seed(ROOT_SEED, "ac7-eml"))
    # trial i is F, G (judging F/100, G/100: the verdict is homogeneous in
    # each) or the masks of S, T, drawn one vector per call in this order
    FG = np.array([[erng.integers(-100, 101, 64) for _ in range(2)]
                   for _ in range(1000)]).swapaxes(0, 1)
    ST = np.array([[erng.integers(0, 2, 64) for _ in range(2)]
                   for _ in range(1000)], dtype=bool).swapaxes(0, 1)
    failures7 = eml_failures(graph7, FG, ST)
    save_graph(outdir / "ac7_graph.json", graph7)
    save_report(
        outdir / "ac7_eml.json",
        "expander-mixing",
        [{
            "instance": "ac7",
            "parameter": "eml_failures",
            "value": failures7,
            "bound": 0,
            "margin": -failures7,
            "pass": failures7 == 0,
        }],
        failures7 == 0,
        extra={"lambda": graph7.lam},
    )
    out["ac7"] = {"graph": graph7, "failures": failures7}

    # --- folded RS over GF(17), b=2, n=4, rho=1/4 ------------------------------
    frs = make_folded_rs(f17, 2, 4, Fraction(1, 4))
    block = frs_as_linear_code(frs)
    cert8 = min_arld_slack(
        block, k=3, delta0=Fraction(3, 4), description="folded-rs q17 b2 n4"
    )
    save_certificate(outdir / "ac8_certificate.json", cert8)
    out["ac8"] = {"frs": frs, "block": block, "certificate": cert8,
                  "min_distance": block.min_distance()}

    # --- unique-decoder sweep on RS[12,2]/GF(16) -------------------------------
    decoded = 0
    for trial in range(500):
        drng = np.random.default_rng(derive_seed(ROOT_SEED, "ac9", trial))
        msg = [int(x) for x in drng.integers(0, 16, 2)]
        codeword = list(outer.encode(msg))
        weight = int(drng.integers(0, 6))
        word = list(codeword)
        for pos in drng.permutation(12)[:weight]:
            word[pos] = (word[pos] + 1 + int(drng.integers(0, 15))) % 16
        if rs_unique_decode(outer, word) == tuple(codeword):
            decoded += 1
    save_report(
        outdir / "ac9_decoder.json",
        "unique-decoder",
        [{
            "instance": "ac9",
            "parameter": "decoded",
            "value": decoded,
            "bound": 500,
            "margin": decoded - 500,
            "pass": decoded == 500,
        }],
        decoded == 500,
    )
    out["ac9"] = {"decoded": decoded}

    return out

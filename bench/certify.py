"""`certify` workload: the full certification of the acceptance instances.

One pass certifies every instance through the library and writes its
artifacts with `aelcert.io` (this is `certify_s`), then runs the command-line
pipeline on an AC3-sized bundle through `aelcert.cli.main` (`cli_pipeline_s`).
At the root seed 2024 the instances are the acceptance suite's; another seed
derives sibling instances through the same `derive_seed` streams.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb

import numpy as np

from common import (
    DEFAULT_SEED, THREADS, accepts_threads, count_subsets, job_seconds,
    min_pair_distance, witness_ok,
)

SIZES = {
    "full": {"ac4_k": 4, "eml_trials": 1000, "ac5_centers": (50, 200),
             "big_n": 600, "cli_k": 3},
    "tiny": {"ac4_k": 3, "eml_trials": 20, "ac5_centers": (5, 10),
             "big_n": 520, "cli_k": 2},
}

MIN_PASSES = 2  # every stage timed twice, in about 35 s
EML_BATCH = 250

TWO_THIRDS = Fraction(2, 3)
SIXTH = Fraction(1, 6)
HALF = Fraction(1, 2)

# Exact values of the acceptance instances at the root seed (full size).
REFERENCE = {
    "ac1.eps_min": Fraction(1, 18),
    "ac3.pairs_checked": 32640,
    "ac3.min_delta_R": Fraction(11, 12),
    "ac4.minima": {2: 7, 3: 14, 4: 19},
    "ac4.empirical_eps_min": Fraction(5, 36),
    "ac7.eml_failures": 0,
    "ac8.eps_min": Fraction(0),
}


# -- set-up ------------------------------------------------------------------


def setup(A, seed: int, size: str, workdir) -> dict:
    p = SIZES[size]
    fields = {q: A.make_field(pp, m) for q, (pp, m) in
              {4: (2, 2), 8: (2, 3), 16: (2, 4), 17: (17, 1)}.items()}
    # Mixing-lemma inputs, drawn in the acceptance suite's order.
    erng = np.random.default_rng(A.derive_seed(seed, "ac7-eml"))
    eml_pairs = []
    for _ in range(p["eml_trials"]):
        f_int = erng.integers(-100, 101, 64)
        g_int = erng.integers(-100, 101, 64)
        eml_pairs.append((
            [Fraction(int(x), 100) for x in f_int],
            [Fraction(int(x), 100) for x in g_int],
            f_int, g_int,
        ))
    eml_sets = []
    for _ in range(p["eml_trials"]):
        s_set = [int(x) for x in np.nonzero(erng.integers(0, 2, 64))[0]]
        t_set = [int(x) for x in np.nonzero(erng.integers(0, 2, 64))[0]]
        eml_sets.append((s_set, t_set))
    artifacts = workdir / "artifacts"
    artifacts.mkdir()
    st = {
        "A": A, "seed": seed, "size": size, "p": p, "fields": fields,
        "eml_pairs": eml_pairs, "eml_sets": eml_sets, "artifacts": artifacts,
    }
    st["cli"] = _cli_setup(A, seed, p, workdir / "cli")
    return st


def _cli_setup(A, seed: int, p: dict, work) -> dict:
    """Write the configs of the command-line pipeline; return its argv list."""
    work.mkdir()
    reports = work / "reports"
    reports.mkdir()
    mrng = np.random.default_rng(A.derive_seed(seed, "cli-message"))
    message = [int(x) for x in mrng.integers(0, 16, 2)]
    f = {name: str(work / name) for name in (
        "graph.json", "inner.json", "outer.json", "bundle.json", "word.json",
        "bad_word.json", "report.csv")}
    steps = [
        ("build-graph", {"n": 12, "d": 4, "seed": A.derive_seed(seed, "cli"),
                         "lambda_target": 0.95, "graph_out": f["graph.json"]}),
        ("build-outer", {"field": {"p": 2, "m": 2}, "n": 4, "dim": 2,
                         "points": [0, 1, 2, 3], "code_out": f["inner.json"]}),
        ("build-outer", {"field": {"p": 2, "m": 4}, "n": 12, "dim": 2,
                         "code_out": f["outer.json"]}),
        ("build-ael", {"graph_file": f["graph.json"], "inner_file": f["inner.json"],
                       "outer_file": f["outer.json"], "bundle_out": f["bundle.json"]}),
        ("encode", {"bundle_file": f["bundle.json"], "message": message,
                    "word_out": f["word.json"]}),
        ("corrupt", {"bundle_file": f["bundle.json"], "word_file": f["word.json"],
                     "seed": A.derive_seed(seed, "cli-corrupt"), "errors": 2,
                     "word_out": f["bad_word.json"]}),
        ("decode", {"bundle_file": f["bundle.json"], "word_file": f["bad_word.json"],
                    "report_out": str(reports / "decode.json")}),
        ("list-decode", {"bundle_file": f["bundle.json"], "word_file": f["bad_word.json"],
                         "beta": "1/2", "report_out": str(reports / "list.json")}),
        ("verify-amplification", {"bundle_file": f["bundle.json"],
                                  "report_out": str(reports / "amplification.json")}),
        ("verify-singleton", {"bundle_file": f["bundle.json"], "k": p["cli_k"],
                              "delta0": "2/3", "eps": "1/6",
                              "report_out": str(reports / "singleton.json")}),
        ("verify-eml", {"graph_file": f["graph.json"], "seed": A.derive_seed(seed, "cli-eml"),
                        "report_out": str(reports / "eml.json")}),
    ]
    argvs = []
    for i, (step, cfg) in enumerate(steps):
        path = work / f"config_{i:02d}_{step}.json"
        path.write_text(json.dumps({"version": 1, **cfg}))
        argvs.append([step, "--config", str(path)])
    argvs.append(["report", "--dir", str(reports), "--out", f["report.csv"]])
    return {"argvs": argvs, "files": f, "reports": reports, "message": message}


# -- one pass ------------------------------------------------------------------


def run_pass(st, T, O) -> dict:
    r: dict = {}
    for stage in (_ac1, _ac3, _ac4, _ac5, _ac7, _big_graph, _ac8, _cli):
        try:
            stage(st, r, T, O)
        except Exception as exc:  # a raising verifier is a failed operation
            O.raised(stage.__name__.lstrip("_"), exc)
    return r


def _reference(st) -> bool:
    return st["seed"] == DEFAULT_SEED and st["size"] == "full"


def _ac1(st, r, T, O):
    A, f = st["A"], st["fields"]
    with T.section("ac1"):
        code, cert = A.search_inner_code(
            f[8], 6, 2, k=4, delta0=TWO_THIRDS,
            eps_target=SIXTH, seed=A.derive_seed(st["seed"], "ac1"),
        )
        A.io.save_code(st["artifacts"] / "ac1_inner.json", code)
        A.io.save_certificate(st["artifacts"] / "ac1_certificate.json", cert)
    words = code.enumerate_codewords()
    O.op(cert.eps_min <= SIXTH and witness_ok(A, cert, words),
         "ac1: witness does not re-evaluate to eps_min")
    O.check(cert.subsets_examined == count_subsets(64, 4), "ac1: subsets covered")
    if _reference(st):
        O.check(cert.eps_min == REFERENCE["ac1.eps_min"], f"ac1: eps_min {cert.eps_min}")


def _ac3(st, r, T, O):
    A, f = st["A"], st["fields"]
    with T.section("ac3"):
        graph = A.random_regular_bipartite(
            12, 4, seed=A.derive_seed(st["seed"], "ac3-graph"), lam_target=0.95)
        outer = A.RSOuterCode(f[16], 12, 2)
        ael = A.AELCode(graph, A.RSOuterCode(f[4], 4, 2, points=[0, 1, 2, 3]), outer)
        amp = A.verify_distance_amplification(ael)
        A.io.save_graph(st["artifacts"] / "ac3_graph.json", graph)
        A.io.save_report(
            st["artifacts"] / "ac3_amplification.json", "distance-amplification",
            [{"instance": "ac3", "parameter": "min_delta_R",
              "value": str(amp["min_delta_R"]), "bound": str(amp["global_bound"]),
              "margin": "", "pass": True}],
            True, extra={"pairs_checked": amp["pairs_checked"]})
    r["outer"] = outer
    words = ael.enumerate_codewords()
    O.op(amp["pairs_checked"] == comb(len(words), 2)
         and amp["min_delta_R"] == Fraction(min_pair_distance(words), 12),
         "ac3: amplification report disagrees with the pairwise distances")
    if _reference(st):
        O.check(amp["pairs_checked"] == REFERENCE["ac3.pairs_checked"]
                and amp["min_delta_R"] == REFERENCE["ac3.min_delta_R"],
                f"ac3: {amp['pairs_checked']} pairs, min {amp['min_delta_R']}")


def _ac4(st, r, T, O):
    A, f, k = st["A"], st["fields"], st["p"]["ac4_k"]
    # Three sections, so that the speed reference is timed between them.
    with T.section("ac4.search"):
        inner, cert = A.search_inner_code(
            f[4], 12, 2, k=4, delta0=TWO_THIRDS,
            eps_target=SIXTH, seed=A.derive_seed(st["seed"], "ac4"),
        )
        eps = 2 * cert.eps_min
        ael = A.AELCode(A.complete_bipartite(12), inner, r["outer"])
    with T.section("ac4.singleton"):
        rep = A.verify_generalized_singleton(ael, k, TWO_THIRDS, eps)
    r["singleton_s"] = T.times["ac4.singleton"]
    with T.section("ac4.save"):
        A.io.save_code(st["artifacts"] / "ac4_inner.json", inner)
        A.io.save_certificate(st["artifacts"] / "ac4_certificate.json", cert)
        A.io.save_report(
            st["artifacts"] / "ac4_singleton.json", "generalized-singleton",
            [{"instance": "ac4", "parameter": f"min_disagreements_m{m}", "value": d,
              "bound": str((m - 1) * (TWO_THIRDS - eps) * 12), "margin": "",
              "pass": Fraction(d) >= (m - 1) * (TWO_THIRDS - eps) * 12}
             for m, d in sorted(rep["min_disagreements_by_size"].items())],
            rep["empirical_pass"],
            extra={"eps": str(eps), "eps_min": str(rep["empirical_eps_min"])})
    r.update(ael4=ael, eps4=eps, singleton=rep)
    words = ael.enumerate_codewords()
    O.op(witness_ok(A, cert, inner.enumerate_codewords()),
         "ac4: inner witness does not re-evaluate to eps_min")
    O.op(rep["empirical_pass"] and _singleton_witness_ok(A, rep, words, 12)
         and rep["subsets_examined"] == count_subsets(len(words), k)
         and rep["min_disagreements_by_size"][2] == min_pair_distance(words),
         "ac4: singleton witness or minima wrong")
    if _reference(st):
        O.check(rep["min_disagreements_by_size"] == REFERENCE["ac4.minima"]
                and rep["empirical_eps_min"] == REFERENCE["ac4.empirical_eps_min"]
                and rep["theorem_assertion"] == "PASS",
                f"ac4: minima {rep['min_disagreements_by_size']}, "
                f"eps_min {rep['empirical_eps_min']}")


def _singleton_witness_ok(A, rep, words, n) -> bool:
    w = rep["worst_witness"]
    _, contribs = A.plurality_center([words[i] for i in w.indices])
    eps = max(Fraction(0), rep["delta0"] - Fraction(w.disagreement_count, n * (w.size - 1)))
    return (sum(contribs) == w.disagreement_count
            == rep["min_disagreements_by_size"][w.size]
            and eps == rep["empirical_eps_min"])


def _ac5(st, r, T, O):
    A, (n_triples, n_random) = st["A"], st["p"]["ac5_centers"]
    ael, words = r["ael4"], r["ael4"].enumerate_codewords()
    rng = np.random.default_rng(A.derive_seed(st["seed"], "ac5-centers"))
    alphabet = sorted({s for w in words for s in w})
    centers = []
    for _ in range(n_triples):
        idx = rng.choice(len(words), size=3, replace=False)
        centers.append(A.plurality_center([words[i] for i in idx])[0])
    for _ in range(n_random):
        centers.append(tuple(alphabet[i] for i in rng.integers(0, len(alphabet), ael.n)))
    with T.section("ac5"):
        common = A.verify_common_error_bound(
            ael, st["p"]["ac4_k"], TWO_THIRDS, r["eps4"], centers, beta=HALF,
            singleton_report=r["singleton"])
        A.io.save_report(
            st["artifacts"] / "ac5_common_error.json", "common-error-bound",
            [{"instance": "ac5", "parameter": "centers_checked", "value": len(centers),
              "bound": "", "margin": "", "pass": common["passed"]}],
            common["passed"], extra={"inequalities_checked": common["inequalities_checked"]})
    O.op(common["passed"] and not common["violations"], "ac5: common-error bound violated")


def _ac7(st, r, T, O):
    A = st["A"]
    with T.section("ac7.graph"):
        graph = A.random_regular_bipartite(
            64, 8, seed=A.derive_seed(st["seed"], "ac7-graph"), lam_target=0.9)
    eml, sets = [], []
    # In batches, so that the speed reference is timed between them.
    for i in range(0, len(st["eml_pairs"]), EML_BATCH):
        with T.section("ac7.eml"):
            eml += [A.verify_eml(graph, f, g)
                    for f, g, _, _ in st["eml_pairs"][i:i + EML_BATCH]]
    for i in range(0, len(st["eml_sets"]), EML_BATCH):
        with T.section("ac7.eml_sets"):
            sets += [A.verify_eml_sets(graph, s, t) for s, t in st["eml_sets"][i:i + EML_BATCH]]
    with T.section("ac7.save"):
        failures = sum(not res[2] for res in eml + sets)
        A.io.save_graph(st["artifacts"] / "ac7_graph.json", graph)
        A.io.save_report(
            st["artifacts"] / "ac7_eml.json", "expander-mixing",
            [{"instance": "ac7", "parameter": "eml_failures", "value": failures,
              "bound": 0, "margin": -failures, "pass": failures == 0}],
            failures == 0)
    O.op(graph.n == 64 and graph.d == 8 and graph.lam <= 0.9, "ac7: graph")
    adj = np.zeros((64, 64), dtype=np.int64)
    for left, row in enumerate(graph.left_adj):
        adj[left, row] = 1
    n, d = 64, 8
    for (_, _, f_int, g_int), (lhs, _, ok) in zip(st["eml_pairs"], eml):
        edge_sum = int(f_int @ adj @ g_int)
        expected = abs(Fraction(edge_sum, 10000 * n * d)
                       - Fraction(int(f_int.sum()) * int(g_int.sum()), 10000 * n * n))
        O.op(ok and lhs == expected, "ac7: verify_eml deviation or verdict wrong")
    for (s, t), (e_st, _, ok) in zip(st["eml_sets"], sets):
        O.op(ok and e_st == int(adj[np.ix_(s, t)].sum()),
             "ac7: verify_eml_sets edge count or verdict wrong")
    if _reference(st):
        O.check(failures == REFERENCE["ac7.eml_failures"], f"ac7: {failures} EML failures")


def _big_graph(st, r, T, O):
    """One graph above the dense-SVD limit, so lambda comes from power iteration."""
    A, n = st["A"], st["p"]["big_n"]
    with T.section("big_graph"):
        graph = A.random_regular_bipartite(
            n, 8, seed=A.derive_seed(st["seed"], "big-graph"), lam_target=0.9)
    adj = np.zeros((n, n))
    for left, row in enumerate(graph.left_adj):
        adj[left, row] = 1.0
    sigma2 = float(np.linalg.svd(adj / 8, compute_uv=False)[1])
    O.op(graph.n == n and graph.lam <= 0.9 and sigma2 <= float(graph.lam_bound),
         f"big graph: lambda bound {float(graph.lam_bound)} below dense sigma2 {sigma2}")


def _ac8(st, r, T, O):
    A = st["A"]
    with T.section("ac8"):
        frs = A.make_folded_rs(st["fields"][17], 2, 4, Fraction(1, 4))
        block = A.frs_as_linear_code(frs)
        cert = A.min_arld_slack(block, k=3, delta0=Fraction(3, 4),
                                description="folded-rs q17 b2 n4")
        A.io.save_certificate(st["artifacts"] / "ac8_certificate.json", cert)
    O.op(len(block.codewords) == 17 ** 2 and witness_ok(A, cert, block.codewords)
         and cert.eps_min == REFERENCE["ac8.eps_min"],
         f"ac8: eps_min {cert.eps_min}")


def _cli(st, r, T, O):
    A, cli = st["A"], st["cli"]
    for argv in cli["argvs"]:
        sink = io.StringIO()
        with T.section(f"cli.{argv[0]}"), redirect_stdout(sink), redirect_stderr(sink):
            rc = A.cli.main(argv)
        O.op(rc == 0, f"cli {argv[0]} exited {rc}: {sink.getvalue().strip()}")
    _check_cli_outputs(st, O)


def _check_cli_outputs(st, O):
    A, cli = st["A"], st["cli"]
    reports = {p.stem: A.io.load_artifact(p) for p in sorted(cli["reports"].glob("*.json"))}
    f16 = st["fields"][16]
    sent = list(A.RSOuterCode(f16, 12, 2).encode(cli["message"]))
    O.check(reports["decode"]["passed"] and reports["decode"]["extra"]["outer_word"] == sent,
            "cli decode: did not return the sent codeword")
    code = A.io.load_bundle(cli["files"]["bundle.json"])
    word = A.io.load_word(cli["files"]["bad_word.json"]).symbols
    listed = reports["list"]["extra"]["outer_words"]
    within = all(
        sum(g is not None and g != h for g, h in zip(word, code.encode(w))) <= 6
        for w in listed)
    O.check(sent in listed and within, "cli list-decode: list misses the sent word "
            "or holds a word beyond beta")
    O.check(reports["amplification"]["extra"]["pairs_checked"] == comb(256, 2)
            and reports["amplification"]["passed"], "cli verify-amplification")
    O.check(reports["singleton"]["passed"] and reports["eml"]["passed"],
            "cli verify-singleton / verify-eml did not pass")
    rows = sum(len(rep["rows"]) for rep in reports.values())
    csv_lines = open(cli["files"]["report.csv"]).read().splitlines()
    O.check(len(csv_lines) == 1 + rows, "cli report: row count")


# -- reporting -------------------------------------------------------------------


def report(passes) -> dict:
    """The figures of this workload, medians over passes."""
    timers = [T for T, _ in passes]
    return {
        "certify_s": (job_seconds(timers) - job_seconds(timers, "cli."), "s"),
        "cli_pipeline_s": (job_seconds(timers, "cli."), "s"),
    }


def layer_extras(st, r, T, O):
    """Per-subset-size times and the thread speedup on the AC4 sweep.

    m_j is the time at k = j minus the time at k = j - 1; the k = K time is
    the untraced pass's own sweep, at the library's default thread count.
    The speedup is that time over the time with `threads=THREADS`.  Runs
    untraced, after the traced pass.
    """
    A, K = st["A"], st["p"]["ac4_k"]
    ael, eps, rep = r["ael4"], r["eps4"], r["singleton"]
    fn = A.verify_generalized_singleton
    times = {K: r["singleton_s"]}
    for k in range(2, K):
        t0 = time.perf_counter()
        fn(ael, k, TWO_THIRDS, eps)
        times[k] = time.perf_counter() - t0
    extras = {f"arld.m{k}_s": times[k] - times[k - 1] for k in range(3, K + 1)}
    if not accepts_threads(fn):
        return extras, ["arld.thread_speedup", "arld.witness_thread_mismatches"]
    t0 = time.perf_counter()
    many = fn(ael, K, TWO_THIRDS, eps, threads=THREADS)
    extras["arld.thread_speedup"] = times[K] / (time.perf_counter() - t0)
    extras["arld.witness_thread_mismatches"] = int(
        many["worst_witness"].indices != rep["worst_witness"].indices)
    O.check(many["min_disagreements_by_size"] == rep["min_disagreements_by_size"],
            "ac4: minima differ between thread counts")
    return extras, []

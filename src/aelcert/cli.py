"""
Experiment harness: build, persist, corrupt, decode, verify, and report.

Every subcommand reads a JSON config (version field required, unknown keys
rejected) so experiment definitions are explicit and reproducible.  All
randomness flows from the config's root seed through named streams.

Exit codes: 0 pass, 1 assertion failure, 2 config/IO error or bad input
(a `ValueError`, malformed JSON included).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import io as aio
from .ael import AELCode, verify_distance_amplification
from .arld import DEFAULT_SUBSET_CAP
from .codes import ERASED, ErasedWord
from .errors import AelcertError, AmplificationViolation, ConfigInvalid, SearchExhausted
from .gf import make_field
from .graphs import complete_bipartite, random_regular_bipartite, verify_eml, verify_eml_sets
from .inner import make_folded_rs, min_arld_slack, search_inner_code
from .listdec import brute_force_list, verify_generalized_singleton
from .outer import RSOuterCode
from .rounding import ael_unique_decode
from .seeds import derive_seed

_SCHEMAS = {
    "build-inner": (
        {"version", "seed", "field", "length", "dim", "k", "delta0", "eps_target",
         "code_out", "certificate_out"},
        {"max_tries", "subset_cap"},
    ),
    "verify-inner": (
        {"version", "code_file", "k", "delta0", "certificate_out"},
        {"eps_target", "subset_cap"},
    ),
    "build-frs": ({"version", "field", "b", "n", "rho", "code_out"}, {"alphas"}),
    "build-graph": (
        {"version", "n", "d", "graph_out"},
        {"seed", "lambda_target", "complete", "max_tries"},
    ),
    "build-outer": ({"version", "field", "n", "dim", "code_out"}, {"points"}),
    "build-ael": (
        {"version", "graph_file", "inner_file", "outer_file", "bundle_out"},
        set(),
    ),
    "encode": ({"version", "bundle_file", "message", "word_out"}, set()),
    "corrupt": (
        {"version", "bundle_file", "word_file", "seed", "word_out"},
        {"errors", "erasures"},
    ),
    "decode": ({"version", "bundle_file", "word_file"}, {"report_out"}),
    "list-decode": (
        {"version", "bundle_file", "word_file", "beta"},
        {"report_out"},
    ),
    "verify-singleton": (
        {"version", "bundle_file", "k", "delta0", "eps"},
        {"report_out", "subset_cap"},
    ),
    "verify-amplification": ({"version", "bundle_file"}, {"report_out"}),
    "verify-eml": ({"version", "graph_file", "seed"}, {"trials", "report_out"}),
}


def _load_config(path, subcommand: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    required, optional = _SCHEMAS[subcommand]
    keys = set(cfg)
    if cfg.get("version") != 1:
        raise ConfigInvalid("config must declare version: 1")
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ConfigInvalid(f"missing config keys: {sorted(missing)}")
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _field(cfg_field) -> "Field":
    return make_field(cfg_field["p"], cfg_field.get("m", 1))


# -- subcommand handlers ---------------------------------------------------------


def _cmd_build_inner(cfg) -> int:
    field = _field(cfg["field"])
    try:
        code, cert = search_inner_code(
            field,
            cfg["length"],
            cfg["dim"],
            cfg["k"],
            aio.parse_frac(cfg["delta0"]),
            aio.parse_frac(cfg["eps_target"]),
            seed=cfg["seed"],
            max_tries=cfg.get("max_tries", 50),
            subset_cap=cfg.get("subset_cap", DEFAULT_SUBSET_CAP),
        )
    except SearchExhausted as exc:
        print(f"FAIL build-inner: {exc}")
        return 1
    aio.save_code(cfg["code_out"], code)
    aio.save_certificate(cfg["certificate_out"], cert)
    note = _sweep_note(cert.subsets_evaluated, cert.reduction)
    print(f"PASS build-inner: eps_min = {cert.eps_min}{note}")
    return 0


def _cmd_verify_inner(cfg) -> int:
    code = aio.load_code(cfg["code_file"])
    cert = min_arld_slack(
        code,
        cfg["k"],
        aio.parse_frac(cfg["delta0"]),
        subset_cap=cfg.get("subset_cap", DEFAULT_SUBSET_CAP),
        description=str(cfg["code_file"]),
    )
    aio.save_certificate(cfg["certificate_out"], cert)
    note = _sweep_note(cert.subsets_evaluated, cert.reduction)
    if "eps_target" in cfg and cert.eps_min > aio.parse_frac(cfg["eps_target"]):
        print(f"FAIL verify-inner: eps_min = {cert.eps_min} > {cfg['eps_target']}{note}")
        return 1
    print(f"PASS verify-inner: eps_min = {cert.eps_min}{note}")
    return 0


def _sweep_note(evaluated: int, reduction: str) -> str:
    """What the subset sweep behind a certificate or report evaluated."""
    return f", subsets_evaluated = {evaluated}, reduction = {reduction}"


def _cmd_build_frs(cfg) -> int:
    frs = make_folded_rs(
        _field(cfg["field"]), cfg["b"], cfg["n"], aio.parse_frac(cfg["rho"]),
        cfg.get("alphas"),
    )
    aio.save_frs(cfg["code_out"], frs)
    print(f"PASS build-frs: appropriate, {frs.field.q}^{frs.dim} codewords")
    return 0


def _cmd_build_graph(cfg) -> int:
    if cfg.get("complete"):
        graph = complete_bipartite(cfg["n"])
    else:
        if "seed" not in cfg:
            raise ConfigInvalid("random graph construction requires a seed")
        graph = random_regular_bipartite(
            cfg["n"],
            cfg["d"],
            seed=derive_seed(cfg["seed"], "graph"),
            lam_target=cfg.get("lambda_target", 1.0),
            max_tries=cfg.get("max_tries", 20),
        )
    aio.save_graph(cfg["graph_out"], graph)
    print(f"PASS build-graph: lambda = {graph.lam:.6g}")
    return 0


def _cmd_build_outer(cfg) -> int:
    code = RSOuterCode(_field(cfg["field"]), cfg["n"], cfg["dim"], cfg.get("points"))
    aio.save_code(cfg["code_out"], code)
    print(f"PASS build-outer: RS[{code.n},{code.dim}], decode radius {code.unique_decoding_radius}")
    return 0


def _cmd_build_ael(cfg) -> int:
    bundle_path = Path(cfg["bundle_out"])
    # store file references relative to the bundle for relocatability
    refs = {}
    for key in ("graph_file", "inner_file", "outer_file"):
        p = Path(cfg[key])
        try:
            refs[key] = str(p.relative_to(bundle_path.parent))
        except ValueError:
            refs[key] = str(p)
    aio.save_bundle(bundle_path, refs["graph_file"], refs["inner_file"], refs["outer_file"])
    code = aio.load_bundle(bundle_path)  # validates consistency
    print(f"PASS build-ael: n={code.n}, d={code.d}, |C|={code.outer.size}")
    return 0


def _cmd_encode(cfg) -> int:
    code = aio.load_bundle(cfg["bundle_file"])
    word = code.encode_message(cfg["message"])
    aio.save_word(cfg["word_out"], word)
    print("PASS encode")
    return 0


def _cmd_corrupt(cfg) -> int:
    code = aio.load_bundle(cfg["bundle_file"])
    word = list(aio.load_word(cfg["word_file"]).symbols)
    rng = np.random.default_rng(derive_seed(cfg["seed"], "corrupt"))
    n_err = cfg.get("errors", 0)
    n_era = cfg.get("erasures", 0)
    positions = rng.permutation(code.n)[: n_err + n_era]
    q = code.inner.field.q
    for pos in positions[:n_err]:
        old = word[pos]
        while True:
            cand = tuple(int(x) for x in rng.integers(0, q, size=code.d))
            if cand != old:
                word[pos] = cand
                break
    for pos in positions[n_err:]:
        word[pos] = ERASED
    aio.save_word(cfg["word_out"], word)
    print(f"PASS corrupt: {n_err} errors, {n_era} erasures")
    return 0


def _cmd_decode(cfg) -> int:
    code = aio.load_bundle(cfg["bundle_file"])
    word = aio.load_word(cfg["word_file"])
    if word.erasure_count:
        raise ConfigInvalid("decode expects an unerased word; use list-decode")
    result = ael_unique_decode(code, word.symbols)
    rows = []
    if result is None:
        rows.append({"instance": cfg["bundle_file"], "parameter": "unique_decode",
                     "value": "Fail", "bound": "", "margin": "", "pass": False})
        if cfg.get("report_out"):
            aio.save_report(cfg["report_out"], "decode", rows, False)
        print("FAIL decode: no codeword within the guarantee")
        return 1
    h, dist = result
    rows.append({"instance": cfg["bundle_file"], "parameter": "delta_R",
                 "value": aio.frac_str(dist), "bound": "", "margin": "", "pass": True})
    if cfg.get("report_out"):
        aio.save_report(cfg["report_out"], "decode", rows, True,
                        extra={"outer_word": list(code.decode_to_outer(h))})
    print(f"PASS decode: Delta_R = {dist}")
    return 0


def _cmd_list_decode(cfg) -> int:
    code = aio.load_bundle(cfg["bundle_file"])
    word = aio.load_word(cfg["word_file"])
    beta = aio.parse_frac(cfg["beta"])
    lst = brute_force_list(code, word, beta)
    rows = [{"instance": cfg["bundle_file"], "parameter": "list_size",
             "value": len(lst), "bound": "", "margin": "", "pass": True}]
    if cfg.get("report_out"):
        aio.save_report(
            cfg["report_out"], "list-decode", rows, True,
            extra={"beta": aio.frac_str(beta),
                   "outer_words": [list(code.decode_to_outer(h)) for h in lst]},
        )
    print(f"PASS list-decode: {len(lst)} codewords within {beta}")
    return 0


def _cmd_verify_singleton(cfg) -> int:
    delta0, eps = aio.parse_frac(cfg["delta0"]), aio.parse_frac(cfg["eps"])
    code = aio.load_bundle(cfg["bundle_file"])
    rep = verify_generalized_singleton(
        code, cfg["k"], delta0, eps,
        subset_cap=cfg.get("subset_cap", DEFAULT_SUBSET_CAP),
    )
    rows = [
        {
            "instance": cfg["bundle_file"],
            "parameter": f"min_disagreements_m{m}",
            "value": d,
            "bound": aio.frac_str((m - 1) * (delta0 - eps) * code.n),
            "margin": aio.frac_str(Fraction(d) - (m - 1) * (delta0 - eps) * code.n),
            "pass": not any(v["size"] == m for v in rep["violations"]),
        }
        for m, d in rep["min_disagreements_by_size"].items()
    ]
    if cfg.get("report_out"):
        aio.save_report(
            cfg["report_out"], "verify-singleton", rows, rep["empirical_pass"],
            extra={
                "eps_min": aio.frac_str(rep["empirical_eps_min"]),
                "theorem_assertion": rep["theorem_assertion"],
                "hypothesis_satisfied": rep["hypothesis_satisfied"],
            },
        )
    note = _sweep_note(rep["subsets_evaluated"], rep["reduction"])
    if not rep["empirical_pass"]:
        worst = rep["violations"][0]
        print(f"FAIL verify-singleton: witness H = {worst['indices']}, "
              f"lhs {worst['lhs']} < rhs {worst['rhs']}{note}")
        return 1
    print(f"PASS verify-singleton: eps_min = {rep['empirical_eps_min']} "
          f"({rep['theorem_assertion']}){note}")
    return 0


def _cmd_verify_amplification(cfg) -> int:
    code = aio.load_bundle(cfg["bundle_file"])
    try:
        rep = verify_distance_amplification(code)
    except AmplificationViolation as exc:
        print(f"FAIL verify-amplification: {exc}")
        return 1
    rows = [{"instance": cfg["bundle_file"], "parameter": "min_delta_R",
             "value": aio.frac_str(rep["min_delta_R"]),
             "bound": aio.frac_str(rep["global_bound"]) if not rep["global_bound_vacuous"] else "vacuous",
             "margin": "", "pass": True}]
    if cfg.get("report_out"):
        aio.save_report(cfg["report_out"], "verify-amplification", rows, True,
                        extra={"pairs_checked": rep["pairs_checked"],
                               "global_bound_vacuous": rep["global_bound_vacuous"]})
    print(f"PASS verify-amplification: min Delta_R = {rep['min_delta_R']} "
          f"over {rep['pairs_checked']} pairs")
    return 0


def _cmd_verify_eml(cfg) -> int:
    trials = cfg.get("trials", 1000)
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ConfigInvalid(f"trials must be a positive integer, got {trials!r}")
    graph = aio.load_graph(cfg["graph_file"])
    rng = np.random.default_rng(derive_seed(cfg["seed"], "eml"))
    failures = 0
    for _ in range(trials):
        f = [Fraction(int(x), 100) for x in rng.integers(-100, 101, size=graph.n)]
        g = [Fraction(int(x), 100) for x in rng.integers(-100, 101, size=graph.n)]
        if not verify_eml(graph, f, g)[2]:
            failures += 1
        S = [i for i in range(graph.n) if rng.random() < 0.5]
        T = [i for i in range(graph.n) if rng.random() < 0.5]
        if not verify_eml_sets(graph, S, T)[2]:
            failures += 1
    rows = [{"instance": cfg["graph_file"], "parameter": "eml_failures",
             "value": failures, "bound": 0, "margin": -failures,
             "pass": failures == 0}]
    if cfg.get("report_out"):
        aio.save_report(cfg["report_out"], "verify-eml", rows, failures == 0)
    if failures:
        print(f"FAIL verify-eml: {failures} violations in {trials} trials")
        return 1
    print(f"PASS verify-eml: {trials} real + {trials} indicator pairs")
    return 0


_HANDLERS = {
    "build-inner": _cmd_build_inner,
    "verify-inner": _cmd_verify_inner,
    "build-frs": _cmd_build_frs,
    "build-graph": _cmd_build_graph,
    "build-outer": _cmd_build_outer,
    "build-ael": _cmd_build_ael,
    "encode": _cmd_encode,
    "corrupt": _cmd_corrupt,
    "decode": _cmd_decode,
    "list-decode": _cmd_list_decode,
    "verify-singleton": _cmd_verify_singleton,
    "verify-amplification": _cmd_verify_amplification,
    "verify-eml": _cmd_verify_eml,
}


def _cmd_report(args) -> int:
    paths = sorted(Path(args.dir).glob("*.json"))
    lines = aio.report_csv_rows(paths)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aelcert",
        description="Build and exactly certify expander-amplified codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
    p = sub.add_parser("report")
    p.add_argument("--dir", required=True, help="directory of verification reports")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        cfg = _load_config(args.config, args.command)
        return _HANDLERS[args.command](cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # bad input values, malformed JSON included
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except AelcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

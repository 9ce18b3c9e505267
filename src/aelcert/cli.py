"""
Experiment harness: build, persist, corrupt, decode, verify, and report.

Every subcommand reads a JSON config (version field required, unknown keys
rejected, each value parsed to its key's one type) so experiment definitions
are explicit and reproducible.  All randomness flows from the config's root
seed through named streams.

Each subcommand handler returns a `Verdict`; `main` alone prints the
`PASS|FAIL <subcommand>` line, writes the report named by `report_out`
(on a FAIL too, with the handler's wall time in its `# runtime_seconds:`
header) and picks the exit code: 0 pass, 1 assertion failure, 2
config/IO error or bad input (a `ValueError`, malformed JSON included).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import io as aio
from .ael import AELCode, verify_distance_amplification
from .arld import DEFAULT_SUBSET_CAP
from .codes import ERASED
from .errors import AelcertError, AmplificationViolation, ConfigInvalid, SearchExhausted
from .gf import Field, make_field
from .graphs import complete_bipartite, eml_failures, random_regular_bipartite
from .inner import make_folded_rs, min_arld_slack, search_inner_code
from .listdec import brute_force_list, verify_generalized_singleton
from .outer import RSOuterCode
from .rounding import ael_unique_decode
from .seeds import derive_seed


class Verdict(NamedTuple):
    """What a subcommand found.  `main` prints it as `PASS|FAIL <subcommand>`
    (with `: detail` when there is one), saves `rows`/`extra` as the report
    when the handler gave rows and the config names `report_out`, and turns
    `passed` into the exit code."""

    passed: bool
    detail: str = ""
    rows: list | None = None
    extra: dict | None = None


_EML_CHUNK = 1024  # mixing-lemma trials `verify-eml` draws and judges at once


def _load_config(path, subcommand: str) -> dict:
    """The config at `path`, its keys checked against the subcommand's sets and
    each value parsed by `_KEY_TYPES`: the one check of every config value."""
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid(f"config {path} is not a JSON object")
    _, required, optional = _COMMANDS[subcommand]
    missing = required - set(cfg)
    unknown = set(cfg) - required - optional
    if missing:
        raise ConfigInvalid(f"missing config keys: {sorted(missing)}")
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        try:
            cfg[key] = _KEY_TYPES[key](value)
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"{key}: {exc}") from None
    return cfg


def _typed(ok, expected: str):
    """A parser that passes a value for which `ok` holds and rejects any other
    (`type(v) is int` turns away bools, which JSON keeps apart from numbers)."""
    def parse(value):
        if not ok(value):
            raise ConfigInvalid(f"expected {expected}, got {value!r}")
        return value
    return parse


_size = _typed(lambda v: type(v) is int and v >= 1, "an integer >= 1")


def _parse_field(value) -> Field:
    """{"p": prime, "m": degree (default 1)} as the field GF(p^m)."""
    if type(value) is not dict or "p" not in value or not set(value) <= {"p", "m"}:
        raise ConfigInvalid(f'expected {{"p": prime, "m": degree}}, got {value!r}')
    try:
        return make_field(_size(value["p"]), _size(value.get("m", 1)))
    except ValueError as exc:  # FieldRefused
        raise ConfigInvalid(str(exc)) from None


def _fraction_of_n(value) -> Fraction:
    """A fraction of the block length: an exact fraction in [0, 1]."""
    if not 0 <= (frac := aio.parse_frac(value)) <= 1:
        raise ConfigInvalid(f"expected a fraction in [0, 1], got {value!r}")
    return frac


# config key -> parser; a key has one type in every subcommand
_KEY_TYPES = {
    **dict.fromkeys(("k", "n", "d", "b", "length", "dim", "trials", "max_tries",
                     "subset_cap"), _size),
    **dict.fromkeys(("seed", "errors", "erasures"),
                    _typed(lambda v: type(v) is int and v >= 0, "an integer >= 0")),
    **dict.fromkeys(("eps_target", "eps", "rho"), aio.parse_frac),
    **dict.fromkeys(("delta0", "beta"), _fraction_of_n),
    **dict.fromkeys(("message", "points", "alphas"), _typed(
        lambda v: type(v) is list and all(type(x) is int and x >= 0 for x in v),
        "a list of integers >= 0")),
    **dict.fromkeys(("code_file", "graph_file", "inner_file", "outer_file", "bundle_file",
                     "word_file", "code_out", "certificate_out", "graph_out", "bundle_out",
                     "word_out", "report_out"),
                    _typed(lambda v: type(v) is str and v != "", "a non-empty path string")),
    "complete": _typed(lambda v: type(v) is bool, "true or false"),
    "lambda_target": _typed(lambda v: type(v) in (int, float) and 0 <= v < math.inf,
                            "a finite number >= 0"),
    "field": _parse_field,
    "version": _typed(lambda v: type(v) is int and v == 1, "the integer 1"),
}


def _row(instance, parameter: str, value, passed: bool, bound="", margin="") -> dict:
    """One report row, the unit of `aelcert report`'s CSV."""
    return dict(zip(aio.REPORT_COLUMNS, (instance, parameter, value, bound, margin, passed)))


# -- subcommand handlers ---------------------------------------------------------


def _cmd_build_inner(cfg) -> Verdict:
    try:
        code, cert = search_inner_code(
            cfg["field"], cfg["length"], cfg["dim"], cfg["k"], cfg["delta0"],
            cfg["eps_target"], seed=cfg["seed"], max_tries=cfg.get("max_tries", 50),
            subset_cap=cfg.get("subset_cap", DEFAULT_SUBSET_CAP))
    except SearchExhausted as exc:
        return Verdict(False, str(exc))
    aio.save_code(cfg["code_out"], code)
    aio.save_certificate(cfg["certificate_out"], cert)
    note = _sweep_note(cert.subsets_evaluated, cert.reduction)
    return Verdict(True, f"eps_min = {cert.eps_min}{note}")


def _cmd_verify_inner(cfg) -> Verdict:
    code = aio.load_inner(cfg["code_file"])
    cert = min_arld_slack(code, cfg["k"], cfg["delta0"],
                          subset_cap=cfg.get("subset_cap", DEFAULT_SUBSET_CAP),
                          description=cfg["code_file"])
    aio.save_certificate(cfg["certificate_out"], cert)
    note = _sweep_note(cert.subsets_evaluated, cert.reduction)
    if "eps_target" in cfg and cert.eps_min > cfg["eps_target"]:
        return Verdict(False, f"eps_min = {cert.eps_min} > {cfg['eps_target']}{note}")
    return Verdict(True, f"eps_min = {cert.eps_min}{note}")


def _sweep_note(evaluated: int, reduction: str) -> str:
    """What the subset sweep behind a certificate or report evaluated."""
    return f", subsets_evaluated = {evaluated}, reduction = {reduction}"


def _cmd_build_frs(cfg) -> Verdict:
    frs = make_folded_rs(cfg["field"], cfg["b"], cfg["n"], cfg["rho"], cfg.get("alphas"))
    aio.save_frs(cfg["code_out"], frs)
    return Verdict(True, f"appropriate, {frs.field.q}^{frs.dim} codewords")


def _cmd_build_graph(cfg) -> Verdict:
    if cfg.get("complete"):
        sampler_keys = sorted({"seed", "lambda_target", "max_tries"} & set(cfg))
        if sampler_keys:
            raise ConfigInvalid(f"complete graph takes no sampler keys: {sampler_keys}")
        if cfg["d"] != cfg["n"]:
            raise ConfigInvalid(
                f"complete graph needs d = n, got d = {cfg['d']!r}, n = {cfg['n']!r}")
        graph = complete_bipartite(cfg["n"])
    else:
        if "seed" not in cfg:
            raise ConfigInvalid("random graph construction requires a seed")
        graph = random_regular_bipartite(
            cfg["n"], cfg["d"], seed=derive_seed(cfg["seed"], "graph"),
            lam_target=cfg.get("lambda_target", 1.0), max_tries=cfg.get("max_tries", 20))
    aio.save_graph(cfg["graph_out"], graph)
    return Verdict(True, f"lambda = {graph.lam:.6g}")


def _cmd_build_outer(cfg) -> Verdict:
    code = RSOuterCode(cfg["field"], cfg["n"], cfg["dim"], cfg.get("points"))
    aio.save_code(cfg["code_out"], code)
    return Verdict(True, f"RS[{code.n},{code.dim}], decode radius {code.unique_decoding_radius}")


def _cmd_build_ael(cfg) -> Verdict:
    # the parts must fit before the bundle, which names them relative to itself, is written
    code = AELCode(aio.load_graph(cfg["graph_file"]), aio.load_code(cfg["inner_file"]),
                   aio.load_code(cfg["outer_file"]))
    bundle_path = Path(cfg["bundle_out"])
    aio.save_bundle(bundle_path, *(os.path.relpath(cfg[key], bundle_path.parent)
                                   for key in ("graph_file", "inner_file", "outer_file")))
    return Verdict(True, f"n={code.n}, d={code.d}, |C|={code.outer.size}")


def _cmd_encode(cfg) -> Verdict:
    code = aio.load_bundle(cfg["bundle_file"])
    msg, outer = cfg["message"], code.outer
    if len(msg) != outer.dim or any(x >= outer.field.q for x in msg):
        raise ConfigInvalid(
            f"message: expected {outer.dim} symbols below {outer.field.q}, got {msg}")
    aio.save_word(cfg["word_out"], code.encode_message(msg))
    return Verdict(True)


def _cmd_corrupt(cfg) -> Verdict:
    code = aio.load_bundle(cfg["bundle_file"])
    n_err, n_era = cfg.get("errors", 0), cfg.get("erasures", 0)
    if n_err + n_era > code.n:
        raise ConfigInvalid(f"errors + erasures = {n_err + n_era} exceeds n = {code.n}")
    word = list(aio.load_word(cfg["word_file"]).symbols)
    code.read_word(word)  # the word `decode` demands, before any position is drawn
    rng = np.random.default_rng(derive_seed(cfg["seed"], "corrupt"))
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
    return Verdict(True, f"{n_err} errors, {n_era} erasures")


def _cmd_decode(cfg) -> Verdict:
    code = aio.load_bundle(cfg["bundle_file"])
    word = aio.load_word(cfg["word_file"])
    if word.erasure_count:
        raise ConfigInvalid("decode expects an unerased word; use list-decode")
    result = ael_unique_decode(code, word.symbols)
    if result is None:
        return Verdict(False, "no codeword within the guarantee",
                       [_row(cfg["bundle_file"], "unique_decode", "Fail", False)])
    h, dist = result
    return Verdict(True, f"Delta_R = {dist}",
                   [_row(cfg["bundle_file"], "delta_R", aio.frac_str(dist), True)],
                   {"outer_word": list(code.decode_to_outer(h))})


def _cmd_list_decode(cfg) -> Verdict:
    code = aio.load_bundle(cfg["bundle_file"])
    word = aio.load_word(cfg["word_file"])
    beta = cfg["beta"]
    lst = brute_force_list(code, word, beta)
    return Verdict(True, f"{len(lst)} codewords within {beta}",
                   [_row(cfg["bundle_file"], "list_size", len(lst), True)],
                   {"beta": aio.frac_str(beta),
                    "outer_words": [list(code.decode_to_outer(h)) for h in lst]})


def _cmd_verify_singleton(cfg) -> Verdict:
    code = aio.load_bundle(cfg["bundle_file"])
    rep = verify_generalized_singleton(
        code, cfg["k"], cfg["delta0"], cfg["eps"],
        subset_cap=cfg.get("subset_cap", DEFAULT_SUBSET_CAP),
    )
    per_step = (cfg["delta0"] - cfg["eps"]) * code.n
    rows = [
        _row(cfg["bundle_file"], f"min_disagreements_m{m}", d,
             not any(v["size"] == m for v in rep["violations"]),
             aio.frac_str((m - 1) * per_step), aio.frac_str(d - (m - 1) * per_step))
        for m, d in rep["min_disagreements_by_size"].items()
    ]
    extra = {
        "eps_min": aio.frac_str(rep["empirical_eps_min"]),
        "theorem_assertion": rep["theorem_assertion"],
        "hypothesis_satisfied": rep["hypothesis_satisfied"],
    }
    note = _sweep_note(rep["subsets_evaluated"], rep["reduction"])
    if not rep["empirical_pass"]:
        worst = rep["violations"][0]
        return Verdict(False, f"witness H = {worst['indices']}, "
                              f"lhs {worst['lhs']} < rhs {worst['rhs']}{note}", rows, extra)
    return Verdict(True, f"eps_min = {rep['empirical_eps_min']} "
                         f"({rep['theorem_assertion']}){note}", rows, extra)


def _cmd_verify_amplification(cfg) -> Verdict:
    code = aio.load_bundle(cfg["bundle_file"])
    try:
        rep = verify_distance_amplification(code)
    except AmplificationViolation as exc:
        return Verdict(False, str(exc), [_row(cfg["bundle_file"], "min_delta_R", "", False)],
                       {"violation": str(exc)})
    bound = "vacuous" if rep["global_bound_vacuous"] else aio.frac_str(rep["global_bound"])
    return Verdict(True, f"min Delta_R = {rep['min_delta_R']} over {rep['pairs_checked']} pairs",
                   [_row(cfg["bundle_file"], "min_delta_R", aio.frac_str(rep["min_delta_R"]),
                         True, bound)],
                   {"pairs_checked": rep["pairs_checked"],
                    "global_bound_vacuous": rep["global_bound_vacuous"]})


def _cmd_verify_eml(cfg) -> Verdict:
    trials = cfg.get("trials", 1000)
    graph = aio.load_graph(cfg["graph_file"])
    real = np.random.default_rng(derive_seed(cfg["seed"], "eml", "real"))
    sets = np.random.default_rng(derive_seed(cfg["seed"], "eml", "sets"))
    failures = 0
    # trial i: F, G and the masks of S, T are row i of each stream, filled in
    # stream order whatever the chunk; F, G judge f = F/100, g = G/100
    for start in range(0, trials, _EML_CHUNK):
        size = min(_EML_CHUNK, trials - start)
        FG = real.integers(-100, 101, size=(size, 2, graph.n)).swapaxes(0, 1)
        ST = (sets.random((size, 2, graph.n)) < 0.5).swapaxes(0, 1)
        failures += eml_failures(graph, FG, ST)
    rows = [_row(cfg["graph_file"], "eml_failures", failures, failures == 0, 0, -failures)]
    if failures:
        return Verdict(False, f"{failures} violations in {trials} trials", rows)
    return Verdict(True, f"{trials} real + {trials} indicator pairs", rows)


# subcommand: (handler, required config keys, optional config keys)
_COMMANDS = {
    "build-inner": (
        _cmd_build_inner,
        {"version", "seed", "field", "length", "dim", "k", "delta0", "eps_target",
         "code_out", "certificate_out"},
        {"max_tries", "subset_cap"},
    ),
    "verify-inner": (
        _cmd_verify_inner,
        {"version", "code_file", "k", "delta0", "certificate_out"},
        {"eps_target", "subset_cap"},
    ),
    "build-frs": (
        _cmd_build_frs, {"version", "field", "b", "n", "rho", "code_out"}, {"alphas"},
    ),
    "build-graph": (
        _cmd_build_graph,
        {"version", "n", "d", "graph_out"},
        {"seed", "lambda_target", "complete", "max_tries"},
    ),
    "build-outer": (
        _cmd_build_outer, {"version", "field", "n", "dim", "code_out"}, {"points"},
    ),
    "build-ael": (
        _cmd_build_ael,
        {"version", "graph_file", "inner_file", "outer_file", "bundle_out"},
        set(),
    ),
    "encode": (_cmd_encode, {"version", "bundle_file", "message", "word_out"}, set()),
    "corrupt": (
        _cmd_corrupt,
        {"version", "bundle_file", "word_file", "seed", "word_out"},
        {"errors", "erasures"},
    ),
    "decode": (_cmd_decode, {"version", "bundle_file", "word_file"}, {"report_out"}),
    "list-decode": (
        _cmd_list_decode, {"version", "bundle_file", "word_file", "beta"}, {"report_out"},
    ),
    "verify-singleton": (
        _cmd_verify_singleton,
        {"version", "bundle_file", "k", "delta0", "eps"},
        {"report_out", "subset_cap"},
    ),
    "verify-amplification": (
        _cmd_verify_amplification, {"version", "bundle_file"}, {"report_out"},
    ),
    "verify-eml": (
        _cmd_verify_eml, {"version", "graph_file", "seed"}, {"trials", "report_out"},
    ),
}


def _cmd_report(args) -> None:
    paths = sorted(Path(args.dir).glob("*.json"))
    text = "\n".join(aio.report_csv_rows(paths)) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call: parsing leaves it
    unchanged, so every `main` call in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="aelcert",
        description="Build and exactly certify expander-amplified codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
    p = sub.add_parser("report")
    p.add_argument("--dir", required=True, help="directory of verification reports")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "report":
            _cmd_report(args)
            return 0
        cfg = _load_config(args.config, args.command)
        start = time.perf_counter()
        verdict = _COMMANDS[args.command][0](cfg)
        if verdict.rows is not None and cfg.get("report_out"):
            aio.save_report(cfg["report_out"], args.command, verdict.rows,
                            verdict.passed, extra=verdict.extra,
                            runtime_seconds=time.perf_counter() - start)
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
    print(f"{'PASS' if verdict.passed else 'FAIL'} {args.command}"
          + (f": {verdict.detail}" if verdict.detail else ""))
    return 0 if verdict.passed else 1


if __name__ == "__main__":
    sys.exit(main())

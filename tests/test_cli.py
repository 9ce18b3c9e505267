"""Command-line harness: configs, subcommands, exit codes, determinism."""

import argparse
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from test_graphs import _verify_eml_fraction_oracle, _verify_eml_sets_fraction_oracle

from aelcert import cli
from aelcert import io as aio
from aelcert.cli import _COMMANDS, _KEY_TYPES, main
from aelcert.codes import LinearCode
from aelcert.errors import AmplificationViolation
from aelcert.graphs import complete_bipartite
from aelcert.io import artifact_body_bytes, load_artifact, load_graph, save_graph, save_word
from aelcert.seeds import derive_seed

README = Path(__file__).resolve().parents[1] / "README.md"


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    """Built graph + inner + outer + bundle, and the codeword of message
    [1, 0] in word.json, ready for downstream commands."""
    def cfg(name, payload):
        return _write_config(tmp_path / name, payload)

    assert main(["build-inner", "--config", cfg("inner.json", {
        "version": 1, "seed": 0, "field": {"p": 2, "m": 2}, "length": 4,
        "dim": 2, "k": 3, "delta0": "1/2", "eps_target": "1/4",
        "code_out": str(tmp_path / "inner_code.json"),
        "certificate_out": str(tmp_path / "inner_cert.json"),
    })]) == 0
    assert main(["build-graph", "--config", cfg("graph.json", {
        "version": 1, "n": 12, "d": 4, "seed": 7, "lambda_target": 0.95,
        "graph_out": str(tmp_path / "graph_out.json"),
    })]) == 0
    assert main(["build-outer", "--config", cfg("outer.json", {
        "version": 1, "field": {"p": 2, "m": 4}, "n": 12, "dim": 2,
        "code_out": str(tmp_path / "outer_code.json"),
    })]) == 0
    assert main(["build-ael", "--config", cfg("ael.json", {
        "version": 1, "graph_file": str(tmp_path / "graph_out.json"),
        "inner_file": str(tmp_path / "inner_code.json"),
        "outer_file": str(tmp_path / "outer_code.json"),
        "bundle_out": str(tmp_path / "bundle.json"),
    })]) == 0
    assert main(["encode", "--config", cfg("enc.json", {
        "version": 1, "bundle_file": str(tmp_path / "bundle.json"),
        "message": [1, 0], "word_out": str(tmp_path / "word.json"),
    })]) == 0
    return tmp_path


def test_build_inner_refuses_dim_above_length(tmp_path, capsys):
    # refused before any draw, as an error, not a FAIL verdict of the search
    cfg = _write_config(tmp_path / "inner.json", {
        "version": 1, "seed": 0, "field": {"p": 2, "m": 2}, "length": 3,
        "dim": 5, "k": 3, "delta0": "1/2", "eps_target": "1/4",
        "code_out": str(tmp_path / "code.json"),
        "certificate_out": str(tmp_path / "cert.json"),
    })
    assert main(["build-inner", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dim 5 > length 3: no generator has full row rank\n"
    assert not (tmp_path / "code.json").exists()


def test_missing_config_file():
    assert main(["encode", "--config", "/nonexistent/cfg.json"]) == 2


def test_unknown_key_rejected(tmp_path):
    cfg = _write_config(tmp_path / "bad.json", {"version": 1, "bogus": 1})
    assert main(["encode", "--config", cfg]) == 2


def test_config_that_is_a_json_list_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path / "list.json", [{"version": 1}])
    assert main(["encode", "--config", cfg]) == 2
    assert "is not a JSON object" in capsys.readouterr().err


def test_missing_version_rejected(tmp_path):
    cfg = _write_config(tmp_path / "bad.json", {
        "bundle_file": "x", "message": [0], "word_out": "y",
    })
    assert main(["encode", "--config", cfg]) == 2


def test_random_graph_requires_seed(tmp_path):
    cfg = _write_config(tmp_path / "g.json", {
        "version": 1, "n": 12, "d": 4,
        "graph_out": str(tmp_path / "out.json"),
    })
    assert main(["build-graph", "--config", cfg]) == 2


def test_build_graph_complete(tmp_path):
    cfg = _write_config(tmp_path / "g.json", {
        "version": 1, "n": 4, "d": 4, "complete": True,
        "graph_out": str(tmp_path / "out.json"),
    })
    assert main(["build-graph", "--config", cfg]) == 0
    rec = load_artifact(tmp_path / "out.json")
    assert rec["n"] == 4 and rec["d"] == 4


@pytest.mark.parametrize("extra", [
    {"d": 2}, {"seed": 5}, {"lambda_target": 0.5}, {"max_tries": 3},
], ids=["d-not-n", "seed", "lambda_target", "max_tries"])
def test_build_graph_complete_rejects_keys_it_cannot_honour(tmp_path, capsys, extra):
    # K_{n,n} has d = n, and the sampler keys steer only the random graph
    cfg = _write_config(tmp_path / "g.json", {
        "version": 1, "n": 6, "d": 6, "complete": True,
        "graph_out": str(tmp_path / "out.json"), **extra,
    })
    assert main(["build-graph", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_build_frs(tmp_path):
    cfg = _write_config(tmp_path / "frs.json", {
        "version": 1, "field": {"p": 17, "m": 1}, "b": 2, "n": 4,
        "rho": "1/4", "code_out": str(tmp_path / "frs_out.json"),
    })
    assert main(["build-frs", "--config", cfg]) == 0


def test_build_frs_rejects_rate_above_one(tmp_path, capsys):
    cfg = _write_config(tmp_path / "frs.json", {
        "version": 1, "field": {"p": 17, "m": 1}, "b": 2, "n": 2,
        "rho": "3/2", "code_out": str(tmp_path / "frs_out.json"),
    })
    assert main(["build-frs", "--config", cfg]) == 2
    assert "rho*b*n = 6" in capsys.readouterr().err
    assert not (tmp_path / "frs_out.json").exists()


def test_encode_corrupt_decode_cycle(workspace):
    tmp = workspace
    assert main(["encode", "--config", _write_config(tmp / "enc.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "message": [1, 0], "word_out": str(tmp / "word.json"),
    })]) == 0
    assert main(["corrupt", "--config", _write_config(tmp / "cor.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "word_file": str(tmp / "word.json"), "seed": 3, "errors": 1,
        "word_out": str(tmp / "bad_word.json"),
    })]) == 0
    assert main(["decode", "--config", _write_config(tmp / "dec.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "word_file": str(tmp / "bad_word.json"),
        "report_out": str(tmp / "decode_report.json"),
    })]) == 0
    rec = load_artifact(tmp / "decode_report.json")
    assert rec["passed"] is True
    assert len(rec["extra"]["outer_word"]) == 12


def test_reports_carry_their_runtime_in_the_header(workspace):
    # the subcommand's wall time is a header line, so two runs of the same
    # config still write byte-identical bodies
    tmp = workspace
    for name in ("one.json", "two.json"):
        assert main(["decode", "--config", _write_config(tmp / "dec.json", {
            "version": 1, "bundle_file": str(tmp / "bundle.json"),
            "word_file": str(tmp / "word.json"), "report_out": str(tmp / name),
        })]) == 0
        header = [ln for ln in (tmp / name).read_text().splitlines() if ln.startswith("#")]
        runtimes = [ln for ln in header if re.fullmatch(r"# runtime_seconds: \d+\.\d{3}", ln)]
        assert len(runtimes) == 1
    assert artifact_body_bytes(tmp / "one.json") == artifact_body_bytes(tmp / "two.json")


def test_decode_over_an_outer_code_that_is_not_reed_solomon_exits_1(workspace, capsys):
    # the same outer codewords saved as a plain linear_code: nothing decodes it
    tmp = workspace
    outer = aio.load_code(tmp / "outer_code.json")
    aio.save_code(tmp / "linear_outer.json", LinearCode(outer.field, outer.generator))
    assert load_artifact(tmp / "linear_outer.json")["kind"] == "linear_code"
    aio.save_bundle(tmp / "linear_bundle.json", "graph_out.json", "inner_code.json",
                    "linear_outer.json")
    capsys.readouterr()
    assert main(["decode", "--config", _write_config(tmp / "dec.json", {
        "version": 1, "bundle_file": str(tmp / "linear_bundle.json"),
        "word_file": str(tmp / "word.json"), "report_out": str(tmp / "linear_report.json"),
    })]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unique decoding needs a Reed-Solomon outer code")
    assert "Traceback" not in captured.err
    assert not (tmp / "linear_report.json").exists()


@pytest.mark.parametrize("errors,erasures", [
    (10, 10), (-1, 0), ("2", 0), (True, 0), (0, 2.0),
])
def test_corrupt_rejects_counts_it_cannot_apply(workspace, capsys, errors, erasures):
    # n = 12: more than 12 corrupted positions, or a count that is not a
    # non-negative int, is refused before any word is written
    tmp = workspace
    assert main(["encode", "--config", _write_config(tmp / "enc.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "message": [1, 0], "word_out": str(tmp / "word.json"),
    })]) == 0
    capsys.readouterr()
    assert main(["corrupt", "--config", _write_config(tmp / "cor.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "word_file": str(tmp / "word.json"), "seed": 3,
        "errors": errors, "erasures": erasures,
        "word_out": str(tmp / "bad_word.json"),
    })]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "config error" in captured.err
    assert not (tmp / "bad_word.json").exists()


@pytest.mark.parametrize("reshape", [
    lambda symbols: symbols[:-1], lambda symbols: [sym[:3] for sym in symbols],
], ids=["short-word", "narrow-symbols"])
def test_corrupt_rejects_a_word_of_the_wrong_shape(workspace, capsys, reshape):
    # the shape `decode` demands: n symbols of d entries each
    tmp = workspace
    assert main(["encode", "--config", _write_config(tmp / "enc.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "message": [1, 0], "word_out": str(tmp / "word.json"),
    })]) == 0
    save_word(tmp / "bent.json", reshape(load_artifact(tmp / "word.json")["symbols"]))
    capsys.readouterr()
    assert main(["corrupt", "--config", _write_config(tmp / "cor.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "word_file": str(tmp / "bent.json"), "seed": 3, "errors": 1,
        "word_out": str(tmp / "bad_word.json"),
    })]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "Traceback" not in captured.err
    assert "word shape does not match the graph" in captured.err
    assert not (tmp / "bad_word.json").exists()


def test_decode_rejects_narrow_symbols(workspace, capsys):
    tmp = workspace
    assert main(["encode", "--config", _write_config(tmp / "enc.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "message": [1, 0], "word_out": str(tmp / "word.json"),
    })]) == 0
    word = load_artifact(tmp / "word.json")
    save_word(tmp / "narrow.json", [tuple(sym[:3]) for sym in word["symbols"]])
    capsys.readouterr()
    assert main(["decode", "--config", _write_config(tmp / "dec.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "word_file": str(tmp / "narrow.json"),
    })]) == 1
    err = capsys.readouterr().err
    assert "word shape does not match the graph" in err
    assert "Traceback" not in err


def test_list_decode(workspace):
    tmp = workspace
    main(["encode", "--config", _write_config(tmp / "enc.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "message": [1, 0], "word_out": str(tmp / "word.json"),
    })])
    assert main(["list-decode", "--config", _write_config(tmp / "ld.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "word_file": str(tmp / "word.json"), "beta": "0",
        "report_out": str(tmp / "list_report.json"),
    })]) == 0
    rec = load_artifact(tmp / "list_report.json")
    assert rec["rows"][0]["value"] == 1


def test_verify_amplification(workspace):
    tmp = workspace
    assert main(["verify-amplification", "--config", _write_config(
        tmp / "amp.json", {
            "version": 1, "bundle_file": str(tmp / "bundle.json"),
            "report_out": str(tmp / "amp_report.json"),
        })]) == 0
    assert load_artifact(tmp / "amp_report.json")["passed"] is True


def test_verify_singleton(workspace):
    tmp = workspace
    assert main(["verify-singleton", "--config", _write_config(
        tmp / "vs.json", {
            "version": 1, "bundle_file": str(tmp / "bundle.json"),
            "k": 3, "delta0": "1/2", "eps": "1/4",
            "report_out": str(tmp / "vs_report.json"),
        })]) == 0
    rec = load_artifact(tmp / "vs_report.json")
    assert rec["passed"] is True


def test_verify_singleton_impossible_margin_exits_1(workspace):
    tmp = workspace
    assert main(["verify-singleton", "--config", _write_config(
        tmp / "vs2.json", {
            "version": 1, "bundle_file": str(tmp / "bundle.json"),
            "k": 3, "delta0": "1/2", "eps": "-1/2",
        })]) == 1


@pytest.mark.parametrize("delta0", [0.1, True, "abc", "1/0"])
def test_verify_singleton_rejects_inexact_fractions(workspace, capsys, delta0):
    tmp = workspace
    assert main(["verify-singleton", "--config", _write_config(
        tmp / "vs_frac.json", {
            "version": 1, "bundle_file": str(tmp / "bundle.json"),
            "k": 3, "delta0": delta0, "eps": "1/4",
        })]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "config error" in captured.err


@pytest.mark.parametrize("command,payload", [
    ("verify-singleton", {"bundle_file": "bundle.json", "k": 3,
                          "delta0": "1/2", "eps": "1/4"}),
    ("verify-inner", {"code_file": "inner_code.json", "k": 3, "delta0": "1/2",
                      "certificate_out": "capped_cert.json"}),
], ids=["verify-singleton", "verify-inner"])
def test_subset_cap_reaches_the_verifier(workspace, capsys, command, payload):
    tmp = workspace
    payload = {key: str(tmp / v) if key.endswith(("_file", "_out")) else v
               for key, v in payload.items()}
    cfg = _write_config(tmp / "capped.json",
                        {"version": 1, "subset_cap": 10, **payload})
    assert main([command, "--config", cfg]) == 1
    assert "PASS" not in capsys.readouterr().out


def test_every_config_key_has_a_parser():
    keys = set().union(*(required | optional for _, required, optional in _COMMANDS.values()))
    assert set(_KEY_TYPES) == keys


def test_threads_key_rejected(workspace):
    tmp = workspace
    assert main(["verify-singleton", "--config", _write_config(
        tmp / "vs_threads.json", {
            "version": 1, "bundle_file": str(tmp / "bundle.json"),
            "k": 3, "delta0": "1/2", "eps": "1/4", "threads": 1,
        })]) == 2


def test_verify_eml(workspace):
    tmp = workspace
    assert main(["verify-eml", "--config", _write_config(tmp / "eml.json", {
        "version": 1, "graph_file": str(tmp / "graph_out.json"),
        "seed": 5, "trials": 20,
        "report_out": str(tmp / "eml_report.json"),
    })]) == 0


def _verify_eml_cli_fraction_oracle(graph, seed, trials):
    """Reference: the verify-eml trials drawn one at a time from the two
    named streams, f = F/100 and g = G/100 as Fractions and S, T one vertex
    at a time, checked by the Fraction oracles of the mixing lemma."""
    real = np.random.default_rng(derive_seed(seed, "eml", "real"))
    sets = np.random.default_rng(derive_seed(seed, "eml", "sets"))
    failures = 0
    for _ in range(trials):
        f = [Fraction(int(x), 100) for x in real.integers(-100, 101, size=graph.n)]
        g = [Fraction(int(x), 100) for x in real.integers(-100, 101, size=graph.n)]
        failures += not _verify_eml_fraction_oracle(graph, f, g)[2]
        S = [i for i in range(graph.n) if sets.random() < 0.5]
        T = [i for i in range(graph.n) if sets.random() < 0.5]
        failures += not _verify_eml_sets_fraction_oracle(graph, S, T)[2]
    return failures


@pytest.mark.parametrize("lam", [Fraction(1, 10), Fraction(1, 5)])
def test_verify_eml_counts_the_failures_of_the_fraction_loop(workspace, capsys, monkeypatch,
                                                             lam):
    # an understated lambda fails some trials of each form; the integer draws
    # fail exactly the trials their Fractions F/100, G/100 fail
    def understated(path):
        graph = load_graph(path)
        graph.lam_bound = lam
        return graph

    monkeypatch.setattr(aio, "load_graph", understated)
    trials, seed = 40, 5
    expected = _verify_eml_cli_fraction_oracle(
        understated(workspace / "graph_out.json"), seed, trials)
    assert 0 < expected < 2 * trials
    capsys.readouterr()
    assert main(["verify-eml", "--config", _write_config(workspace / "eml.json", {
        "version": 1, "graph_file": str(workspace / "graph_out.json"),
        "seed": seed, "trials": trials,
    })]) == 1
    assert capsys.readouterr().out == (
        f"FAIL verify-eml: {expected} violations in {trials} trials\n")


def test_verify_eml_in_several_blocks_counts_the_same_failures(workspace, capsys, monkeypatch):
    # chunks of 3 trials: the draws keep their order across chunks
    monkeypatch.setattr(aio, "load_graph", _understated_graph)
    graph = _understated_graph(workspace / "graph_out.json")
    monkeypatch.setattr(cli, "_EML_CHUNK", 3)
    trials = 10
    expected = _verify_eml_cli_fraction_oracle(graph, 5, trials)
    assert 0 < expected < 2 * trials
    capsys.readouterr()
    assert main(["verify-eml", "--config", _write_config(workspace / "eml.json", {
        "version": 1, "graph_file": str(workspace / "graph_out.json"),
        "seed": 5, "trials": trials,
    })]) == 1
    assert capsys.readouterr().out == (
        f"FAIL verify-eml: {expected} violations in {trials} trials\n")


@pytest.mark.parametrize("trials", [0, -3, "20", 2.5, True, None])
def test_verify_eml_rejects_trials_not_a_positive_int(workspace, capsys, trials):
    tmp = workspace
    assert main(["verify-eml", "--config", _write_config(tmp / "eml.json", {
        "version": 1, "graph_file": str(tmp / "graph_out.json"),
        "seed": 5, "trials": trials,
    })]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "trials" in captured.err


def test_verify_eml_rejects_tampered_graph(workspace, capsys):
    tmp = workspace
    graph_file = tmp / "graph_out.json"
    rec = load_artifact(graph_file)
    rec["lambda"] = rec["lambda"] / 2
    graph_file.write_text(json.dumps(rec, sort_keys=True, indent=2) + "\n")
    assert main(["verify-eml", "--config", _write_config(tmp / "eml.json", {
        "version": 1, "graph_file": str(graph_file), "seed": 5, "trials": 20,
    })]) == 2
    assert "lambda" in capsys.readouterr().err


def test_verify_eml_rejects_graph_file_missing_a_field(tmp_path, capsys):
    graph_file = tmp_path / "partial_graph.json"
    graph_file.write_text(json.dumps({"kind": "bipartite_graph", "version": 1, "n": 4}))
    assert main(["verify-eml", "--config", _write_config(tmp_path / "eml.json", {
        "version": 1, "graph_file": str(graph_file), "seed": 5, "trials": 20,
    })]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "'d'" in captured.err
    assert "Traceback" not in captured.err


def _parallel_edge_graph(tmp):
    graph_file = tmp / "graph_out.json"
    rec = load_artifact(graph_file)
    rec["left_adj"][0][1] = rec["left_adj"][0][0]
    graph_file.write_text(json.dumps(rec, sort_keys=True, indent=2) + "\n")
    return {"version": 1, "graph_file": str(graph_file), "seed": 5, "trials": 20}


def _complete_graph_lambda(value):
    """verify-eml on a saved K_{4,4}, whose lambda is 0 up to rounding, after
    its stored lambda is set to `value`."""
    def payload(tmp):
        save_graph(tmp / "complete.json", complete_bipartite(4))
        rec = load_artifact(tmp / "complete.json")
        rec["lambda"] = value
        (tmp / "complete.json").write_text(json.dumps(rec))
        return {**_ACCEPTED["verify-eml"](tmp), "graph_file": str(tmp / "complete.json")}
    return "verify-eml", payload


# one accepted config per subcommand; `_probe` changes one key of it
_ACCEPTED = {
    "build-graph": lambda tmp: {
        "version": 1, "n": 4, "d": 2, "seed": 1, "graph_out": str(tmp / "g.json")},
    "build-outer": lambda tmp: {
        "version": 1, "field": {"p": 2, "m": 2}, "n": 4, "dim": 2,
        "code_out": str(tmp / "o.json")},
    "build-frs": lambda tmp: {
        "version": 1, "field": {"p": 17}, "b": 2, "n": 4, "rho": "1/4",
        "code_out": str(tmp / "f.json")},
    "encode": lambda tmp: {
        "version": 1, "bundle_file": str(tmp / "bundle.json"), "message": [1, 0],
        "word_out": str(tmp / "w.json")},
    "verify-eml": lambda tmp: {
        "version": 1, "graph_file": str(tmp / "graph_out.json"), "seed": 5, "trials": 20},
    "verify-inner": lambda tmp: {
        "version": 1, "code_file": str(tmp / "inner_code.json"), "k": 3,
        "delta0": "1/2", "certificate_out": str(tmp / "vi_cert.json")},
    "verify-amplification": lambda tmp: {
        "version": 1, "bundle_file": str(tmp / "bundle.json")},
    "corrupt": lambda tmp: {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "word_file": str(tmp / "word.json"), "seed": 3, "errors": 1,
        "word_out": str(tmp / "c.json")},
    "decode": lambda tmp: {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "word_file": str(tmp / "word.json")},
    "list-decode": lambda tmp: {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "word_file": str(tmp / "word.json"), "beta": "1/2"},
}


def _probe(command, **changes):
    return command, lambda tmp: {**_ACCEPTED[command](tmp), **changes}


def _word_probe(command, mangle):
    """`command` on the workspace word after `mangle` rewrites its symbols."""
    def payload(tmp):
        rec = load_artifact(tmp / "word.json")
        rec["symbols"] = mangle(rec["symbols"])
        (tmp / "mangled.json").write_text(json.dumps(rec))
        return {**_ACCEPTED[command](tmp), "word_file": str(tmp / "mangled.json")}
    return command, payload


def _artifact_probe(command, name, where, value):
    """`command` after the workspace artifact `name` gets `value` at `where`,
    a path of keys and indices into its JSON body."""
    def payload(tmp):
        rec = load_artifact(tmp / name)
        node = rec
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        (tmp / name).write_text(json.dumps(rec))
        return _ACCEPTED[command](tmp)
    return command, payload


# artifact fields `io` reads as ints, given a value that is not a JSON int
_NON_INT_FIELDS = {
    "generator-float": ("verify-inner", "inner_code.json", ("generator", 0, 0), 1.5),
    "generator-bool": ("verify-inner", "inner_code.json", ("generator", 0, 0), True),
    "left_adj-float": ("verify-eml", "graph_out.json", ("left_adj", 0, 0), 10.5),
    "graph-n-float": ("verify-eml", "graph_out.json", ("n",), 12.0),
    "graph-d-float": ("verify-eml", "graph_out.json", ("d",), 4.0),
    "graph-seed-float": ("verify-eml", "graph_out.json", ("seed",), 7.0),
    "graph-seed-bool": ("verify-eml", "graph_out.json", ("seed",), True),
    "rs-n-float": ("decode", "outer_code.json", ("n",), 12.0),
    "rs-dim-str": ("decode", "outer_code.json", ("dim",), "2"),
    "rs-point-float": ("decode", "outer_code.json", ("evaluation_points", 0), 0.0),
    "field-p-float": ("decode", "outer_code.json", ("field", "p"), 2.0),
    "field-m-float": ("list-decode", "inner_code.json", ("field", "m"), 2.0),
    "field-modulus-float": ("decode", "outer_code.json", ("field", "modulus", 0), 1.0),
}


_WORD_COMMANDS = ("corrupt", "decode", "list-decode")
# word files `load_word` refuses (exit 2), and well-formed ones whose
# symbols do not fit the code (exit 1)
_UNREADABLE_WORDS = {
    "int-symbols": lambda symbols: [0] * len(symbols),
    "float-entry": lambda symbols: [[0.5, 0, 0, 0]] + symbols[1:],
    "bool-entry": lambda symbols: [[True, 0, 0, 0]] + symbols[1:],
    "symbols-not-a-list": lambda symbols: "0000",
}
_MISFIT_WORDS = {
    "entry-outside-field": lambda symbols: [[99, 99, 99, 99]] + symbols[1:],
    "narrow-symbols": lambda symbols: [sym[:3] for sym in symbols],
}


@pytest.mark.parametrize("command", sorted(_ACCEPTED))
def test_probe_bases_are_accepted(workspace, command):
    assert main([command, "--config", _write_config(
        workspace / "ok.json", _ACCEPTED[command](workspace))]) == 0


@pytest.mark.parametrize("command,payload", [
    ("build-outer", lambda tmp: {
        "version": 1, "field": {"p": 2, "m": 4}, "n": 4, "dim": 2,
        "points": [1, 2, 2, 3], "code_out": str(tmp / "dup.json"),
    }),
    ("build-graph", lambda tmp: {
        "version": 1, "n": 4, "d": 5, "seed": 1, "graph_out": str(tmp / "g.json"),
    }),
    ("build-outer", lambda tmp: {
        "version": 1, "field": {"p": 2, "m": 0}, "n": 1, "dim": 1,
        "code_out": str(tmp / "m0.json"),
    }),
    ("verify-eml", _parallel_edge_graph),
    *[("verify-singleton", lambda tmp, k=k: {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "k": k, "delta0": "1/2", "eps": "1/4",
    }) for k in ("3", 2.5, True, 0, -3)],
    ("verify-inner", lambda tmp: {
        "version": 1, "code_file": str(tmp / "inner_code.json"), "k": 0,
        "delta0": "1/2", "certificate_out": str(tmp / "vi_cert.json"),
    }),
    ("build-inner", lambda tmp: {
        "version": 1, "seed": 0, "field": {"p": 2, "m": 2}, "length": 4,
        "dim": 2, "k": "3", "delta0": "1/2", "eps_target": "1/4",
        "code_out": str(tmp / "c.json"), "certificate_out": str(tmp / "cc.json"),
    }),
    ("build-graph", lambda tmp: {
        "version": 1, "n": 4, "d": 4, "complete": "false", "graph_out": str(tmp / "g.json"),
    }),
    _probe("build-graph", max_tries="3"),
    _probe("build-graph", max_tries=0),
    _probe("build-graph", d=3.0),
    _probe("build-graph", lambda_target="0.9"),
    _probe("build-graph", lambda_target=float("nan")),
    _probe("build-graph", lambda_target=-1),
    _probe("build-graph", seed=1.5),
    _probe("build-graph", version=True),
    _probe("build-graph", version=1.0),
    _probe("build-outer", dim="2"),
    _probe("build-outer", dim=0),
    _probe("build-outer", points=[0, 1.5, 2, 3]),
    _probe("build-outer", points=[0, 1, 2, 9]),
    _probe("build-outer", field={"p": 2, "m": 2, "modulus": [1, 1, 1]}),
    _probe("build-outer", field={"p": 4}),
    _probe("build-frs", b="2"),
    _probe("build-frs", alphas=[20, 3, 5, 7]),
    _probe("build-outer", field={"p": 2, "m": 10**12}),
    _probe("encode", message=["1", 0]),
    _probe("encode", message=[1]),
    _probe("encode", message=[999, 0]),
    _probe("verify-eml", seed="x"),
    _probe("verify-inner", subset_cap=0),
    _probe("verify-amplification", report_out=3),
    _probe("list-decode", beta="-1/2"),
    _probe("list-decode", beta="3"),
    ("verify-singleton", lambda tmp: {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "k": 3, "delta0": "-1", "eps": "1/4"}),
    _probe("verify-inner", delta0="3/2"),
    *[_word_probe(command, mangle) for command in _WORD_COMMANDS
      for mangle in _UNREADABLE_WORDS.values()],
    _artifact_probe("decode", "bundle.json", ("phi",), "random"),
    _artifact_probe("verify-inner", "inner_code.json", ("generator", 0, 0), 99),
    *[_artifact_probe(*probe) for probe in _NON_INT_FIELDS.values()],
    _artifact_probe("verify-eml", "graph_out.json", ("lambda",), float("nan")),
    _complete_graph_lambda(False),
], ids=["duplicate-points", "degree-above-n", "field-m0", "parallel-edge-graph-file",
        "k-str", "k-float", "k-bool", "k-zero", "k-negative", "verify-inner-k-zero",
        "build-inner-k-str", "complete-str", "max_tries-str", "max_tries-zero", "d-float",
        "lambda_target-str", "lambda_target-nan", "lambda_target-negative", "seed-float",
        "version-bool", "version-float", "dim-str", "dim-zero", "points-float",
        "points-outside-field", "field-extra-key", "field-p-not-prime", "b-str",
        "alphas-outside-field", "field-m-huge", "message-str",
        "message-short", "message-outside-field", "seed-str", "subset_cap-zero", "report_out-int",
        "beta-negative", "beta-above-1", "delta0-negative", "delta0-above-1",
        *[f"{command}-{name}" for command in _WORD_COMMANDS for name in _UNREADABLE_WORDS],
        "phi-random", "generator-outside-field", *_NON_INT_FIELDS, "graph-lambda-nan",
        "complete-graph-lambda-false"])
def test_bad_input_exits_2_without_traceback(workspace, capsys, command, payload):
    config = payload(workspace)
    outputs = [Path(v) for key, v in config.items() if key.endswith("_out") and type(v) is str]
    for out in outputs:
        out.unlink(missing_ok=True)
    cfg = _write_config(workspace / "bad.json", config)
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "error" in captured.err and "Traceback" not in captured.err
    assert not any(out.exists() for out in outputs)


def test_build_ael_of_parts_that_do_not_fit_writes_no_bundle(workspace, capsys):
    tmp = workspace
    assert main(["build-outer", "--config", _write_config(tmp / "o8.json", {
        "version": 1, "field": {"p": 2, "m": 4}, "n": 8, "dim": 2,
        "code_out": str(tmp / "outer8.json")})]) == 0
    capsys.readouterr()
    assert main(["build-ael", "--config", _write_config(tmp / "ael8.json", {
        "version": 1, "graph_file": str(tmp / "graph_out.json"),
        "inner_file": str(tmp / "inner_code.json"), "outer_file": str(tmp / "outer8.json"),
        "bundle_out": str(tmp / "bundle8.json")})]) == 1
    captured = capsys.readouterr()
    assert "error: outer length 8 != graph size 12" in captured.err
    assert "PASS" not in captured.out and "Traceback" not in captured.err
    assert not (tmp / "bundle8.json").exists()


def test_build_ael_bundle_outside_the_parts_directory_loads(workspace):
    tmp = workspace
    (tmp / "sub").mkdir()
    assert main(["build-ael", "--config", _write_config(tmp / "ael_sub.json", {
        "version": 1, "graph_file": str(tmp / "graph_out.json"),
        "inner_file": str(tmp / "inner_code.json"), "outer_file": str(tmp / "outer_code.json"),
        "bundle_out": str(tmp / "sub" / "bundle.json")})]) == 0
    assert load_artifact(tmp / "sub" / "bundle.json")["graph_file"] == "../graph_out.json"
    assert main(["encode", "--config", _write_config(tmp / "enc_sub.json", {
        "version": 1, "bundle_file": str(tmp / "sub" / "bundle.json"),
        "message": [1, 0], "word_out": str(tmp / "sub" / "word.json")})]) == 0
    assert load_artifact(tmp / "sub" / "word.json") == load_artifact(tmp / "word.json")


@pytest.mark.parametrize("name", sorted(_MISFIT_WORDS))
@pytest.mark.parametrize("command", _WORD_COMMANDS)
def test_word_that_does_not_fit_the_code_exits_1(workspace, capsys, command, name):
    # `list-decode` and `corrupt` refuse what `decode` refuses
    _, payload = _word_probe(command, _MISFIT_WORDS[name])
    config = payload(workspace)
    capsys.readouterr()
    assert main([command, "--config", _write_config(workspace / "misfit.json", config)]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "error: word" in captured.err and "Traceback" not in captured.err
    assert not (workspace / "c.json").exists()


def test_verify_inner(workspace):
    tmp = workspace
    assert main(["verify-inner", "--config", _write_config(tmp / "vi.json", {
        "version": 1, "code_file": str(tmp / "inner_code.json"),
        "k": 3, "delta0": "1/2", "eps_target": "1/4",
        "certificate_out": str(tmp / "vi_cert.json"),
    })]) == 0


def test_verify_inner_reads_a_folded_rs_file(tmp_path, capsys):
    # the AC8 code: its block view over GF(17)^2 certifies eps_min = 0 at k = 3
    assert main(["build-frs", "--config", _write_config(tmp_path / "frs.json", {
        "version": 1, "field": {"p": 17, "m": 1}, "b": 2, "n": 4, "rho": "1/4",
        "code_out": str(tmp_path / "frs_out.json"),
    })]) == 0
    capsys.readouterr()
    assert main(["verify-inner", "--config", _write_config(tmp_path / "vi.json", {
        "version": 1, "code_file": str(tmp_path / "frs_out.json"), "k": 3, "delta0": "3/4",
        "eps_target": "0", "certificate_out": str(tmp_path / "frs_cert.json"),
    })]) == 0
    assert re.match(r"PASS verify-inner: eps_min = 0, subsets_evaluated = \d+, "
                    r"reduction = translation\n$", capsys.readouterr().out)
    cert = load_artifact(tmp_path / "frs_cert.json")
    assert (cert["eps_min"], cert["n"], cert["k"]) == ("0/1", 4, 3)
    assert all(len(symbol) == 2 for symbol in cert["witness_center"])


def test_verify_inner_refuses_a_file_of_another_kind(workspace, capsys):
    assert main(["verify-inner", "--config", _write_config(workspace / "vi.json", {
        "version": 1, "code_file": str(workspace / "graph_out.json"), "k": 3,
        "delta0": "1/2", "certificate_out": str(workspace / "vi_cert.json"),
    })]) == 2
    assert "rs_code/linear_code/folded_rs" in capsys.readouterr().err


def test_verify_inner_above_eps_target_fails(workspace, capsys):
    # a [4,2] code has two words at distance <= 3/4, so eps_min >= 1/4 at delta0 = 1
    tmp = workspace
    capsys.readouterr()
    assert main(["verify-inner", "--config", _write_config(tmp / "vi.json", {
        "version": 1, "code_file": str(tmp / "inner_code.json"),
        "k": 2, "delta0": "1", "eps_target": "0",
        "certificate_out": str(tmp / "vi_cert.json"),
    })]) == 1
    assert re.match(r"FAIL verify-inner: eps_min = \S+ > 0, ", capsys.readouterr().out)
    assert (tmp / "vi_cert.json").exists()  # the certificate states the eps_min found


def test_decode_of_a_word_with_an_erasure_exits_2(workspace, capsys):
    _, payload = _word_probe("decode", lambda symbols: [None] + symbols[1:])
    capsys.readouterr()
    assert main(["decode", "--config", _write_config(
        workspace / "erased.json", payload(workspace))]) == 2
    assert "config error: decode expects an unerased word" in capsys.readouterr().err


@pytest.mark.parametrize("field", [
    {"p": 300, "m": 2, "modulus": [1, 0, 1]},
    # x^17 + 1 is reducible, and q = 2^17 builds no tables that would notice
    {"p": 2, "m": 17, "modulus": [1] + [0] * 16 + [1]},
], ids=["p-not-prime", "modulus-reducible"])
def test_code_file_over_a_non_field_exits_2(workspace, capsys, field):
    command, payload = _artifact_probe("decode", "outer_code.json", ("field",), field)
    capsys.readouterr()
    assert main([command, "--config", _write_config(
        workspace / "nonfield.json", payload(workspace))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "outer_code.json" in err


@pytest.mark.parametrize("command,payload,evaluated", [
    # [4,2]/GF(4) inner codes: 16 words, 120 pairs + C(15, 2) triples
    ("build-inner", {"seed": 1, "field": {"p": 2, "m": 2}, "length": 4, "dim": 2,
                     "k": 3, "delta0": "1/2", "eps_target": "1/4",
                     "code_out": "bi_code.json", "certificate_out": "bi_cert.json"},
     120 + 105),
    ("verify-inner", {"code_file": "inner_code.json", "k": 3, "delta0": "1/2",
                      "certificate_out": "vi_cert.json"}, 120 + 105),
    # 256 AEL words: C(256, 2) pairs + C(255, 2) triples
    ("verify-singleton", {"bundle_file": "bundle.json", "k": 3,
                          "delta0": "1/2", "eps": "1/4"}, 32_640 + 32_385),
], ids=["build-inner", "verify-inner", "verify-singleton"])
def test_sweep_lines_report_the_reduction(workspace, capsys, command, payload, evaluated):
    tmp = workspace
    capsys.readouterr()
    payload = {key: str(tmp / v) if key.endswith(("_file", "_out")) else v
               for key, v in payload.items()}
    assert main([command, "--config", _write_config(
        tmp / "sweep.json", {"version": 1, **payload})]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"PASS {command}:")
    assert f"subsets_evaluated = {evaluated}, reduction = translation" in out


def test_report_csv(workspace, capsys):
    tmp = workspace
    main(["verify-amplification", "--config", _write_config(tmp / "amp.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "report_out": str(tmp / "amp_report.json"),
    })])
    (tmp / "list.json").write_text("[1, 2]")  # JSON that is not an object: skipped
    assert main(["report", "--dir", str(tmp), "--out", str(tmp / "out.csv")]) == 0
    lines = (tmp / "out.csv").read_text().splitlines()
    assert lines[0].startswith("instance,parameter")
    assert len(lines) >= 2


def test_one_parser_serves_every_main_call(tmp_path, monkeypatch, capsys):
    # a refused subcommand leaves the shared parser as it was: the next call
    # in the same process parses and exits as a first call would
    cli._parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err
    assert main(["report", "--dir", str(tmp_path), "--out", str(tmp_path / "out.csv")]) == 0
    assert (tmp_path / "out.csv").read_text().startswith("instance,parameter")
    assert len(built) == len(_COMMANDS) + 2  # the parser and one per subcommand
    assert cli._parser() is cli._parser()


def test_cli_outputs_deterministic(tmp_path):
    # same seed, two runs: artifact bodies byte-identical
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        cfg = _write_config(d / "cfg.json", {
            "version": 1, "seed": 0, "field": {"p": 2, "m": 2}, "length": 4,
            "dim": 2, "k": 3, "delta0": "1/2", "eps_target": "1/4",
            "code_out": str(d / "code.json"),
            "certificate_out": str(d / "cert.json"),
        })
        assert main(["build-inner", "--config", cfg]) == 0
    for name in ("code.json", "cert.json"):
        assert artifact_body_bytes(tmp_path / "one" / name) == artifact_body_bytes(
            tmp_path / "two" / name
        )


def _golden_pipeline(tmp):
    def f(name):
        return str(tmp / name)
    bundle = {"bundle_file": f("bundle.json")}
    return [
        ("build-inner", {"seed": 0, "field": {"p": 2, "m": 2}, "length": 4, "dim": 2,
                         "k": 3, "delta0": "1/2", "eps_target": "1/4",
                         "code_out": f("inner_code.json"),
                         "certificate_out": f("inner_cert.json")}, 0,
         "PASS build-inner: eps_min = 0, subsets_evaluated = 225, reduction = translation"),
        ("build-inner", {"seed": 0, "field": {"p": 2, "m": 2}, "length": 4, "dim": 2,
                         "k": 3, "delta0": "1/2", "eps_target": "-1", "max_tries": 2,
                         "code_out": f("x_code.json"), "certificate_out": f("x_cert.json")},
         1, "FAIL build-inner: no code with eps_min <= -1 in 2 tries"),
        ("verify-inner", {"code_file": f("inner_code.json"), "k": 3, "delta0": "1/2",
                          "eps_target": "1/4", "certificate_out": f("vi_cert.json")}, 0,
         "PASS verify-inner: eps_min = 0, subsets_evaluated = 225, reduction = translation"),
        ("build-frs", {"field": {"p": 17, "m": 1}, "b": 2, "n": 4, "rho": "1/4",
                       "code_out": f("frs.json")}, 0,
         "PASS build-frs: appropriate, 17^2 codewords"),
        ("build-graph", {"n": 12, "d": 4, "seed": 7, "lambda_target": 0.95,
                         "graph_out": f("graph.json")}, 0,
         "PASS build-graph: lambda = 0.664292"),
        ("build-outer", {"field": {"p": 2, "m": 4}, "n": 12, "dim": 2,
                         "code_out": f("outer.json")}, 0,
         "PASS build-outer: RS[12,2], decode radius 5"),
        ("build-ael", {"graph_file": f("graph.json"), "inner_file": f("inner_code.json"),
                       "outer_file": f("outer.json"), "bundle_out": f("bundle.json")}, 0,
         "PASS build-ael: n=12, d=4, |C|=256"),
        ("encode", {**bundle, "message": [1, 0], "word_out": f("word.json")}, 0,
         "PASS encode"),
        ("corrupt", {**bundle, "word_file": f("word.json"), "seed": 3, "errors": 1,
                     "word_out": f("bad_word.json")}, 0,
         "PASS corrupt: 1 errors, 0 erasures"),
        ("corrupt", {**bundle, "word_file": f("word.json"), "seed": 3, "errors": 9,
                     "word_out": f("worse_word.json")}, 0,
         "PASS corrupt: 9 errors, 0 erasures"),
        ("corrupt", {**bundle, "word_file": f("word.json"), "seed": 4, "errors": 1,
                     "erasures": 2, "word_out": f("erased_word.json")}, 0,
         "PASS corrupt: 1 errors, 2 erasures"),
        ("decode", {**bundle, "word_file": f("bad_word.json")}, 0,
         "PASS decode: Delta_R = 1/12"),
        ("decode", {**bundle, "word_file": f("worse_word.json")}, 1,
         "FAIL decode: no codeword within the guarantee"),
        ("list-decode", {**bundle, "word_file": f("erased_word.json"), "beta": "1/2"}, 0,
         "PASS list-decode: 1 codewords within 1/2"),
        ("verify-singleton", {**bundle, "k": 3, "delta0": "1/2", "eps": "1/4"}, 0,
         "PASS verify-singleton: eps_min = 0 (NOT APPLICABLE), "
         "subsets_evaluated = 65025, reduction = translation"),
        ("verify-singleton", {**bundle, "k": 3, "delta0": "1/2", "eps": "-1/2"}, 1,
         "FAIL verify-singleton: witness H = (0, 23), lhs 11/12 < rhs 1, "
         "subsets_evaluated = 65025, reduction = translation"),
        # k < 2 sweeps nothing, so no reduction applies
        ("verify-singleton", {**bundle, "k": 1, "delta0": "1/2", "eps": "1/4"}, 0,
         "PASS verify-singleton: eps_min = 0 (NOT APPLICABLE), "
         "subsets_evaluated = 0, reduction = none"),
        ("verify-amplification", bundle, 0,
         "PASS verify-amplification: min Delta_R = 11/12 over 32640 pairs"),
        ("verify-eml", {"graph_file": f("graph.json"), "seed": 5, "trials": 20}, 0,
         "PASS verify-eml: 20 real + 20 indicator pairs"),
    ]


def test_pipeline_stdout_is_golden(tmp_path, capsys):
    # every subcommand once, and each FAIL the configs can reach: the exact
    # verdict line, the only thing a subcommand prints on stdout
    for i, (command, payload, code, line) in enumerate(_golden_pipeline(tmp_path)):
        cfg = _write_config(tmp_path / f"cfg_{i:02d}.json", {"version": 1, **payload})
        assert main([command, "--config", cfg]) == code, command
        assert capsys.readouterr().out == line + "\n"


def _understated_graph(path):
    graph = load_graph(path)
    graph.lam_bound = Fraction(1, 10)
    return graph


def _violated_amplification(code):
    raise AmplificationViolation("pair (0,1): Delta_R=0 < 1")


@pytest.mark.parametrize("command,payload,fake", [
    ("decode", {"bundle_file": "bundle.json", "word_file": "worse_word.json"}, None),
    ("verify-singleton", {"bundle_file": "bundle.json", "k": 3, "delta0": "1/2",
                          "eps": "-1/2"}, None),
    # a correct lambda cannot make these two fail: the graph's lambda is
    # understated, and the amplification check is replaced
    ("verify-eml", {"graph_file": "graph_out.json", "seed": 5, "trials": 2},
     ("aio.load_graph", _understated_graph)),
    ("verify-amplification", {"bundle_file": "bundle.json"},
     ("verify_distance_amplification", _violated_amplification)),
])
def test_failing_verifier_writes_its_report(workspace, monkeypatch, capsys,
                                            command, payload, fake):
    tmp = workspace
    assert main(["encode", "--config", _write_config(tmp / "enc.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "message": [1, 0], "word_out": str(tmp / "word.json"),
    })]) == 0
    assert main(["corrupt", "--config", _write_config(tmp / "cor.json", {
        "version": 1, "bundle_file": str(tmp / "bundle.json"),
        "word_file": str(tmp / "word.json"), "seed": 3, "errors": 9,
        "word_out": str(tmp / "worse_word.json"),
    })]) == 0
    if fake is not None:
        monkeypatch.setattr(f"aelcert.cli.{fake[0]}", fake[1])
    payload = {key: str(tmp / v) if key.endswith("_file") else v
               for key, v in payload.items()}
    capsys.readouterr()
    assert main([command, "--config", _write_config(tmp / "fail.json", {
        "version": 1, "report_out": str(tmp / "fail_report.json"), **payload,
    })]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL {command}: ")
    rec = load_artifact(tmp / "fail_report.json")
    assert rec["name"] == command and rec["passed"] is False
    assert rec["rows"] and not all(row["pass"] for row in rec["rows"])


def test_readme_names_every_subcommand():
    text = README.read_text()
    block = text[text.index("## Command line"):]
    block = block[block.index("```sh"):block.index("```", block.index("```sh") + 5)]
    named = set(re.findall(r"^aelcert (\S+)", block, re.MULTILINE))
    assert named == set(_COMMANDS) | {"report"}

"""Command-line harness: configs, subcommands, exit codes, determinism."""

import json

import pytest

from aelcert.cli import main
from aelcert.io import artifact_body_bytes, load_artifact, save_word


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    """Built graph + inner + outer + bundle, ready for downstream commands."""
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
    return tmp_path


def test_missing_config_file():
    assert main(["encode", "--config", "/nonexistent/cfg.json"]) == 2


def test_unknown_key_rejected(tmp_path):
    cfg = _write_config(tmp_path / "bad.json", {"version": 1, "bogus": 1})
    assert main(["encode", "--config", cfg]) == 2


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


def test_build_frs(tmp_path):
    cfg = _write_config(tmp_path / "frs.json", {
        "version": 1, "field": {"p": 17, "m": 1}, "b": 2, "n": 4,
        "rho": "1/4", "code_out": str(tmp_path / "frs_out.json"),
    })
    assert main(["build-frs", "--config", cfg]) == 0


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


def test_verify_inner(workspace):
    tmp = workspace
    assert main(["verify-inner", "--config", _write_config(tmp / "vi.json", {
        "version": 1, "code_file": str(tmp / "inner_code.json"),
        "k": 3, "delta0": "1/2", "eps_target": "1/4",
        "certificate_out": str(tmp / "vi_cert.json"),
    })]) == 0


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
    assert main(["report", "--dir", str(tmp), "--out", str(tmp / "out.csv")]) == 0
    lines = (tmp / "out.csv").read_text().splitlines()
    assert lines[0].startswith("instance,parameter")
    assert len(lines) >= 2


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

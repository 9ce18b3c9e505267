"""Artifact round trips and byte-level determinism of file bodies."""

import csv as pycsv
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from aelcert import (
    AELCode,
    ERASED,
    LinearCode,
    make_field,
    make_folded_rs,
    min_arld_slack,
    random_regular_bipartite,
)
from aelcert.errors import ConfigInvalid
from aelcert.io import (
    CSV_HEADER,
    artifact_body_bytes,
    frac_str,
    load_artifact,
    load_bundle,
    load_certificate,
    load_code,
    load_frs,
    load_graph,
    load_word,
    parse_frac,
    report_csv_rows,
    save_bundle,
    save_certificate,
    save_code,
    save_frs,
    save_graph,
    save_report,
    save_word,
)
from aelcert.outer import RSOuterCode
from instances import erasure_fraction


def test_frac_round_trip():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert parse_frac("3/4") == Fraction(3, 4)
    assert parse_frac("0/1") == 0
    assert parse_frac(-2) == -2


@pytest.mark.parametrize("value", [0.1, True, False, "abc", "1/0", None, [1, 2]])
def test_parse_frac_rejects_inexact_or_malformed_values(value):
    with pytest.raises(ConfigInvalid):
        parse_frac(value)


def test_code_round_trip(tmp_path, gf16):
    code = RSOuterCode(gf16, 12, 2)
    save_code(tmp_path / "code.json", code)
    loaded = load_code(tmp_path / "code.json")
    assert isinstance(loaded, RSOuterCode)
    assert loaded.points == code.points
    assert loaded.generator == code.generator
    assert loaded.field.modulus == code.field.modulus


@pytest.mark.parametrize("key,index,value", [
    ("p", None, 2.0), ("p", None, True), ("m", None, 2.0), ("modulus", 0, 1.0),
    ("modulus", 2, True),
])
def test_loaded_fields_are_shared_and_inexact_entries_refused(tmp_path, gf4, key, index, value):
    # GF(4) is proved a field once per (p, m, modulus); a float or bool that
    # equals an int (2.0 == 2, True == 1) is refused, never a cache hit
    save_code(tmp_path / "a.json", RSOuterCode(gf4, 4, 2))
    save_code(tmp_path / "b.json", RSOuterCode(gf4, 3, 2))
    assert load_code(tmp_path / "a.json").field is load_code(tmp_path / "b.json").field
    rec = json.loads(artifact_body_bytes(tmp_path / "a.json"))
    if index is None:
        rec["field"][key] = value
    else:
        rec["field"][key][index] = value
    (tmp_path / "a.json").write_text(json.dumps(rec))
    with pytest.raises(ConfigInvalid, match=key):
        load_code(tmp_path / "a.json")


def test_frs_round_trip(tmp_path, gf17):
    frs = make_folded_rs(gf17, 2, 4, Fraction(1, 4))
    save_frs(tmp_path / "frs.json", frs)
    loaded = load_frs(tmp_path / "frs.json")
    assert loaded.alphas == frs.alphas
    assert loaded.gamma == frs.gamma
    assert loaded.enumerate_codewords() == frs.enumerate_codewords()


@pytest.mark.parametrize("key,index,value", [
    ("b", None, 2.0), ("n", None, True), ("alphas", 0, 1.0), ("alphas", None, "1,2"),
])
def test_frs_with_a_non_int_field_rejected(tmp_path, gf17, key, index, value):
    save_frs(tmp_path / "frs.json", make_folded_rs(gf17, 2, 4, Fraction(1, 4)))
    rec = load_artifact(tmp_path / "frs.json")
    if index is None:
        rec[key] = value
    else:
        rec[key][index] = value
    (tmp_path / "frs.json").write_text(json.dumps(rec))
    with pytest.raises(ConfigInvalid, match=key):
        load_frs(tmp_path / "frs.json")


@pytest.mark.parametrize("anchor", [-1, 20])
def test_frs_file_with_an_anchor_outside_the_field_rejected(tmp_path, gf17, anchor):
    # GF(17) would read -1 as 16; the file must say 16 or be refused
    save_frs(tmp_path / "frs.json", make_folded_rs(gf17, 2, 4, Fraction(1, 4)))
    rec = load_artifact(tmp_path / "frs.json")
    rec["alphas"][0] = anchor
    (tmp_path / "frs.json").write_text(json.dumps(rec))
    with pytest.raises(ConfigInvalid, match=f"frs.json: alphas: {anchor} is not an element"):
        load_frs(tmp_path / "frs.json")


def _rewrite(path, where, value):
    """The artifact at `path` with `value` stored at `where`, a path of keys
    and indices into its JSON body."""
    rec = load_artifact(path)
    node = rec
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path.write_text(json.dumps(rec))


@pytest.mark.parametrize("kind,where,value", [
    ("linear_code", ("n",), 9),
    ("linear_code", ("dim",), 5),
    ("rs_code", ("generator", 1, 2), 0),
    ("folded_rs", ("gamma",), 5),  # a generator of GF(17)*, but not the one in use
])
def test_stored_field_that_disagrees_with_the_code_rejected(tmp_path, gf4, gf17,
                                                            kind, where, value):
    path = tmp_path / "code.json"
    if kind == "folded_rs":
        save_frs(path, make_folded_rs(gf17, 2, 4, Fraction(1, 4)))
        load = load_frs
    else:
        rows = [[1, 0, 1, 1], [0, 1, 2, 3]]
        save_code(path, LinearCode(gf4, rows) if kind == "linear_code"
                  else RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]))
        load = load_code
    load(path)
    _rewrite(path, where, value)
    with pytest.raises(ConfigInvalid, match=f"{where[0]} does not match"):
        load(path)


def test_graph_round_trip(tmp_path):
    g = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    save_graph(tmp_path / "graph.json", g)
    loaded = load_graph(tmp_path / "graph.json")
    assert loaded.left_adj == g.left_adj
    assert loaded.lam == g.lam


def _tamper_lambda(path, delta):
    rec = load_artifact(path)
    rec["lambda"] += delta
    path.write_text(json.dumps(rec, sort_keys=True, indent=2) + "\n")


def test_graph_with_tampered_lambda_rejected(tmp_path):
    g = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    path = tmp_path / "graph.json"
    save_graph(path, g)
    _tamper_lambda(path, 1e-12)  # within tolerance: still loads
    assert load_graph(path).lam == g.lam
    _tamper_lambda(path, -1e-3)
    with pytest.raises(ConfigInvalid):
        load_graph(path)


def test_bundle_round_trip(tmp_path, gf4, gf16):
    graph = random_regular_bipartite(12, 4, seed=7, lam_target=0.95)
    inner = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    outer = RSOuterCode(gf16, 12, 2)
    save_graph(tmp_path / "graph.json", graph)
    save_code(tmp_path / "inner.json", inner)
    save_code(tmp_path / "outer.json", outer)
    save_bundle(tmp_path / "bundle.json", "graph.json", "inner.json", "outer.json")
    code = load_bundle(tmp_path / "bundle.json")
    assert isinstance(code, AELCode)
    assert code.n == 12 and code.d == 4
    direct = AELCode(graph, inner, outer)
    assert code.encode_message([1, 0]) == direct.encode_message([1, 0])


@pytest.mark.parametrize("phi", ["random", None, 0, "absent"])
def test_bundle_with_another_phi_rejected(tmp_path, phi):
    # the AEL code has one symbol map; a bundle naming another is refused
    save_graph(tmp_path / "graph.json", random_regular_bipartite(12, 4, seed=7, lam_target=0.95))
    save_code(tmp_path / "inner.json", RSOuterCode(make_field(2, 2), 4, 2, points=[0, 1, 2, 3]))
    save_code(tmp_path / "outer.json", RSOuterCode(make_field(2, 4), 12, 2))
    save_bundle(tmp_path / "bundle.json", "graph.json", "inner.json", "outer.json")
    rec = load_artifact(tmp_path / "bundle.json")
    if phi == "absent":
        del rec["phi"]
    else:
        rec["phi"] = phi
    (tmp_path / "bundle.json").write_text(json.dumps(rec))
    with pytest.raises(ConfigInvalid, match="phi"):
        load_bundle(tmp_path / "bundle.json")


@pytest.mark.parametrize("symbols", [
    [0, 1], [[0.5, 0]], [[True, 0]], [["0", 0]], [[0, None]], "00", None,
])
def test_word_with_a_malformed_symbol_rejected(tmp_path, symbols):
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"kind": "word", "version": 1, "symbols": symbols}))
    with pytest.raises(ConfigInvalid):
        load_word(path)


def test_word_round_trip_with_erasures(tmp_path):
    word = [(0, 1, 2, 3), ERASED, (1, 1, 1, 1)]
    save_word(tmp_path / "word.json", word)
    loaded = load_word(tmp_path / "word.json")
    assert loaded.symbols == ((0, 1, 2, 3), ERASED, (1, 1, 1, 1))
    assert erasure_fraction(loaded) == Fraction(1, 3)


def test_certificate_round_trip(tmp_path, gf4):
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    cert = min_arld_slack(code, k=3, delta0=Fraction(3, 4))
    save_certificate(tmp_path / "cert.json", cert)
    loaded = load_certificate(tmp_path / "cert.json")
    assert loaded.eps_min == cert.eps_min
    assert loaded.witness_indices == cert.witness_indices
    assert loaded.min_disagreements_by_size == cert.min_disagreements_by_size
    assert loaded.reevaluate(code) == cert.eps_min
    # the per-size witnesses stay with the sweep that found them
    assert {m: w.disagreement_count for m, w in cert.witnesses.items()} == (
        cert.min_disagreements_by_size)
    assert loaded.witnesses == {}


@pytest.mark.parametrize("where,value", [
    (("k",), "3"),
    (("n",), 4.0),
    (("witness_indices",), "01"),
    (("witness_indices", 0), True),
    (("witness_disagreements",), 1.5),
    (("subsets_examined",), "225"),
    (("min_disagreements_by_size", "2"), "3"),
])
def test_certificate_with_a_non_int_field_rejected(tmp_path, gf4, where, value):
    # a string or bool here would reach reevaluate as a wrong index or count
    path = tmp_path / "cert.json"
    save_certificate(path, min_arld_slack(RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]),
                                          k=3, delta0=Fraction(3, 4)))
    _rewrite(path, where, value)
    with pytest.raises(ConfigInvalid, match=where[0]):
        load_certificate(path)


@pytest.mark.parametrize("key", ["2.0", "true", "x"])
def test_certificate_with_a_non_int_size_key_rejected(tmp_path, gf4, key):
    path = tmp_path / "cert.json"
    save_certificate(path, min_arld_slack(RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3]),
                                          k=3, delta0=Fraction(3, 4)))
    rec = load_artifact(path)
    rec["min_disagreements_by_size"][key] = rec["min_disagreements_by_size"].pop("2")
    path.write_text(json.dumps(rec))
    with pytest.raises(ConfigInvalid):
        load_certificate(path)


def test_certificate_sweep_counts_in_header_only(tmp_path, gf4):
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    cert = min_arld_slack(code, k=3, delta0=Fraction(3, 4))
    save_certificate(tmp_path / "cert.json", cert)
    text = (tmp_path / "cert.json").read_text()
    assert f"# subsets_evaluated: {cert.subsets_evaluated}\n" in text
    assert f"# subsets_scored: {cert.subsets_scored}\n" in text
    assert 0 < cert.subsets_scored <= cert.subsets_evaluated
    assert "# reduction: translation\n" in text
    body = artifact_body_bytes(tmp_path / "cert.json").decode()
    assert all(key not in body for key in ("subsets_evaluated", "subsets_scored", "reduction"))


def test_wrong_kind_rejected(tmp_path, gf4):
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    save_code(tmp_path / "code.json", code)
    with pytest.raises(ConfigInvalid):
        load_graph(tmp_path / "code.json")
    with pytest.raises(ConfigInvalid):
        load_word(tmp_path / "code.json")


@pytest.mark.parametrize("version", [0, 2, None, "1"])
def test_wrong_version_rejected(tmp_path, gf4, version):
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    save_code(tmp_path / "code.json", code)
    rec = load_artifact(tmp_path / "code.json")
    rec["version"] = version
    (tmp_path / "code.json").write_text(json.dumps(rec))
    with pytest.raises(ConfigInvalid, match="version"):
        load_code(tmp_path / "code.json")


def test_non_object_artifact_rejected(tmp_path):
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(ConfigInvalid):
        load_word(tmp_path / "list.json")


def test_bodies_identical_across_reruns(tmp_path, gf4):
    # headers carry timestamps/runtimes; bodies must be byte-identical
    code = RSOuterCode(gf4, 4, 2, points=[0, 1, 2, 3])
    for name in ("a.json", "b.json"):
        cert = min_arld_slack(code, k=3, delta0=Fraction(3, 4))
        save_certificate(tmp_path / name, cert)
    assert artifact_body_bytes(tmp_path / "a.json") == artifact_body_bytes(
        tmp_path / "b.json"
    )
    # and the headers genuinely differ from the body content
    assert b"#" not in artifact_body_bytes(tmp_path / "a.json")


def test_report_and_csv(tmp_path):
    rows = [
        {"instance": "x", "parameter": "p", "value": 1, "bound": 0,
         "margin": 1, "pass": True},
    ]
    save_report(tmp_path / "rep.json", "demo", rows, True)
    rec = load_artifact(tmp_path / "rep.json")
    assert rec["kind"] == "verification_report"
    assert rec["passed"] is True
    csv = report_csv_rows([tmp_path / "rep.json"])
    assert csv[0] == CSV_HEADER
    assert csv[1] == "x,p,1,0,1,True"


def test_report_csv_quotes_a_field_with_a_comma_a_quote_or_a_newline(tmp_path):
    rows = [
        {"instance": "runs/a,b/bundle.json", "parameter": 'say "x"', "value": "1\n2",
         "bound": "", "margin": 0, "pass": False},
        {"instance": "plain", "parameter": "p", "value": None, "pass": True},
    ]
    save_report(tmp_path / "rep.json", "demo", rows, False)
    lines = report_csv_rows([tmp_path / "rep.json"])
    assert lines[1:] == ['"runs/a,b/bundle.json","say ""x""","1\n2",,0,False',
                         "plain,p,None,,,True"]
    # read back, every record has the header's six fields and its values
    records = list(pycsv.reader(io.StringIO("\n".join(lines) + "\n")))
    assert [len(r) for r in records] == [6, 6, 6]
    assert records[1][:3] == ["runs/a,b/bundle.json", 'say "x"', "1\n2"]

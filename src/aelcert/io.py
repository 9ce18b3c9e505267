"""
Versioned, human-readable artifact files.

Every artifact is a `# `-prefixed header (timestamp, runtimes) followed by
canonical JSON (sorted keys, fixed indentation).  Header lines carry the
only run-dependent content, so rerunning with the same seed reproduces the
JSON body byte-identically.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timezone
from fractions import Fraction
from functools import lru_cache, wraps
from io import StringIO
from pathlib import Path

from .ael import AELCode
from .codes import ERASED, ErasedWord, LinearCode
from .errors import ConfigInvalid
from .gf import Field, _ints
from .graphs import BipartiteGraph
from .inner import ARLDCertificate, FoldedRSCode
from .outer import RSOuterCode

FORMAT_VERSION = 1


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(s) -> Fraction:
    """An int that is not a bool, or a string such as "2/3", as a Fraction;
    anything else (a float is never exact) raises ConfigInvalid."""
    try:
        if isinstance(s, str) or (isinstance(s, int) and not isinstance(s, bool)):
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigInvalid(f"expected an int or a fraction string like \"2/3\", got {s!r}")


def save_artifact(path, payload: dict, header_extras: dict | None = None) -> None:
    path = Path(path)
    lines = [f"# generated: {datetime.now(timezone.utc).isoformat()}"]
    for key, value in (header_extras or {}).items():
        lines.append(f"# {key}: {value}")
    body = json.dumps(payload, sort_keys=True, indent=2)
    path.write_text("\n".join(lines) + "\n" + body + "\n")


class _Record(dict):
    """A JSON object of an artifact file: a missing field raises
    ConfigInvalid naming the file, not KeyError."""

    __slots__ = ("path",)

    def __init__(self, path, fields):
        super().__init__(fields)
        self.path = path

    def __missing__(self, key):
        raise ConfigInvalid(f"{self.path} lacks the field {key!r}")


def artifact_body_bytes(path) -> bytes:
    """Artifact content with the `#` header lines stripped: the JSON body,
    which is what a rerun with the same seed reproduces byte for byte."""
    text = Path(path).read_text()
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#")).encode()


def load_artifact(path) -> dict:
    return json.loads(artifact_body_bytes(path), object_hook=lambda fields: _Record(path, fields))


def _load_kind(path, *kinds) -> dict:
    """The artifact at path if its kind is one of kinds and its version is
    FORMAT_VERSION; ConfigInvalid otherwise."""
    rec = load_artifact(path)
    if not (isinstance(rec, dict) and rec.get("kind") in kinds
            and rec.get("version") == FORMAT_VERSION):
        raise ConfigInvalid(f"{path} is not a version-{FORMAT_VERSION} {'/'.join(kinds)} file")
    return rec


def _refusals_name_the_file(load):
    """`load(path)`, with a constructor's refusal of a value in the file
    (a ValueError, `FieldRefused` included) as ConfigInvalid."""
    @wraps(load)
    def checked(path):
        try:
            return load(path)
        except ValueError as exc:
            raise ConfigInvalid(f"{path}: {exc}") from None
    return checked


def _stored(rec, key, derived, depth: int = 0) -> None:
    """ConfigInvalid unless rec[key] is the integer (tree) `derived` that the
    loaded object gives: a stored field is used or refused, never ignored."""
    if _ints(rec[key], key, depth) != derived:
        raise ConfigInvalid(f"{rec.path}: {key} does not match the {rec['kind']} it stores")


# -- fields and codes ----------------------------------------------------------


def field_from_payload(rec: dict) -> Field:
    """The stored field, one `Field` per (p, m, modulus), so a load proves
    no modulus irreducible twice.  The values are read by `_ints` before
    the cache sees them: a float or bool is refused, never matched as an
    equal int (1.0 == 1)."""
    return _field(_ints(rec["p"], "p"), _ints(rec["m"], "m"),
                  tuple(_ints(rec["modulus"], "modulus", 1)))


_field = lru_cache(maxsize=64)(Field)


def save_code(path, code: LinearCode) -> None:
    payload = {
        "kind": "linear_code",
        "version": FORMAT_VERSION,
        "field": code.field.record(),
        "n": code.n,
        "dim": code.dim,
        "generator": [list(row) for row in code.generator],
    }
    if isinstance(code, RSOuterCode):
        payload["kind"] = "rs_code"
        payload["evaluation_points"] = list(code.points)
    save_artifact(path, payload)


@_refusals_name_the_file
def load_code(path) -> LinearCode:
    rec = _load_kind(path, "rs_code", "linear_code")
    field = field_from_payload(rec["field"])
    if rec["kind"] == "rs_code":
        code = RSOuterCode(field, rec["n"], rec["dim"], rec["evaluation_points"])
        _stored(rec, "generator", [list(row) for row in code.generator], 2)
    else:
        code = LinearCode(field, rec["generator"])
        _stored(rec, "n", code.n)
        _stored(rec, "dim", code.dim)
    return code


def save_frs(path, frs: FoldedRSCode) -> None:
    save_artifact(
        path,
        {
            "kind": "folded_rs",
            "version": FORMAT_VERSION,
            "field": frs.field.record(),
            "b": frs.b,
            "n": frs.n,
            "rho": frac_str(frs.rho),
            "gamma": frs.gamma,
            "alphas": list(frs.alphas),
        },
    )


@_refusals_name_the_file
def load_frs(path) -> FoldedRSCode:
    rec = _load_kind(path, "folded_rs")
    field = field_from_payload(rec["field"])
    frs = FoldedRSCode(field, rec["b"], rec["n"], parse_frac(rec["rho"]), rec["alphas"])
    _stored(rec, "gamma", frs.gamma)
    return frs


def load_inner(path) -> LinearCode | FoldedRSCode:
    """The code of an rs_code, linear_code or folded_rs file."""
    if _load_kind(path, "rs_code", "linear_code", "folded_rs")["kind"] == "folded_rs":
        return load_frs(path)
    return load_code(path)


# -- graphs --------------------------------------------------------------------


def save_graph(path, graph: BipartiteGraph) -> None:
    save_artifact(
        path,
        {
            "kind": "bipartite_graph",
            "version": FORMAT_VERSION,
            "n": graph.n,
            "d": graph.d,
            "left_adj": [list(row) for row in graph.left_adj],
            "lambda": graph.lam,
            "seed": graph.seed,
        },
    )


@_refusals_name_the_file
def load_graph(path) -> BipartiteGraph:
    rec = _load_kind(path, "bipartite_graph")
    graph = BipartiteGraph(rec["n"], rec["d"], rec["left_adj"], seed=rec.get("seed"))
    # the stored lambda must be the one this graph's adjacency gives: a bool
    # is no number, and NaN or an infinity lies in no interval
    stored = rec.get("lambda")
    if type(stored) not in (int, float) or not graph.lam - 1e-9 <= stored <= graph.lam + 1e-9:
        raise ConfigInvalid(
            f"graph file lambda {stored!r} does not match recomputed {graph.lam!r}"
        )
    return graph


# -- AEL bundles ---------------------------------------------------------------


def save_bundle(path, graph_file: str, inner_file: str, outer_file: str) -> None:
    save_artifact(
        path,
        {
            "kind": "ael_bundle",
            "version": FORMAT_VERSION,
            "graph_file": str(graph_file),
            "inner_file": str(inner_file),
            "outer_file": str(outer_file),
            "phi": "lexicographic",
        },
    )


def load_bundle(path) -> AELCode:
    """The AEL code a bundle names.  `phi` must be "lexicographic", the one
    symbol map an `AELCode` has; any other value raises ConfigInvalid."""
    rec = _load_kind(path, "ael_bundle")
    if rec["phi"] != "lexicographic":
        raise ConfigInvalid(f"{path}: phi {rec['phi']!r} is not \"lexicographic\"")
    base = Path(path).parent
    graph = load_graph(base / rec["graph_file"])
    inner = load_code(base / rec["inner_file"])
    outer = load_code(base / rec["outer_file"])
    return AELCode(graph, inner, outer)


# -- words ---------------------------------------------------------------------


def save_word(path, word) -> None:
    symbols = [None if sym is ERASED else list(sym) for sym in word]
    save_artifact(
        path, {"kind": "word", "version": FORMAT_VERSION, "symbols": symbols}
    )


@_refusals_name_the_file
def load_word(path) -> ErasedWord:
    """The word at `path`: a list of symbols, each null (erased) or a list
    of integers; anything else raises ConfigInvalid."""
    rec = _load_kind(path, "word")
    symbols = rec["symbols"]
    if type(symbols) is not list:
        raise ConfigInvalid(f"{path}: symbols must be a list")
    return ErasedWord(tuple(
        ERASED if sym is None else tuple(_ints(sym, "symbols", 1)) for sym in symbols
    ))


# -- certificates and reports ----------------------------------------------------


def save_certificate(path, cert: ARLDCertificate) -> None:
    payload = {
        "kind": "arld_certificate",
        "version": FORMAT_VERSION,
        "delta0": frac_str(cert.delta0),
        "k": cert.k,
        "eps_min": frac_str(cert.eps_min),
        "n": cert.n,
        "witness_indices": list(cert.witness_indices),
        "witness_center": _jsonable_symbols(cert.witness_center),
        "witness_disagreements": cert.witness_disagreements,
        "subsets_examined": cert.subsets_examined,
        "min_disagreements_by_size": {
            str(m): d for m, d in cert.min_disagreements_by_size.items()
        },
        "code_description": cert.code_description,
    }
    # how the sweep ran is not part of the certified result: header only
    save_artifact(
        path,
        payload,
        header_extras={
            "runtime_seconds": f"{cert.runtime_seconds:.3f}",
            "subsets_evaluated": cert.subsets_evaluated,
            "subsets_scored": cert.subsets_scored,
            "reduction": cert.reduction,
        },
    )


@_refusals_name_the_file
def load_certificate(path) -> ARLDCertificate:
    """The certificate at `path`; its counts and indices must be integers.
    A `min_disagreements_by_size` key is a JSON integer in a string."""
    rec = _load_kind(path, "arld_certificate")
    by_size = "min_disagreements_by_size"
    return ARLDCertificate(
        delta0=parse_frac(rec["delta0"]),
        k=_ints(rec["k"], "k"),
        eps_min=parse_frac(rec["eps_min"]),
        n=_ints(rec["n"], "n"),
        witness_indices=tuple(_ints(rec["witness_indices"], "witness_indices", 1)),
        witness_center=_symbols_from_json(rec["witness_center"]),
        witness_disagreements=_ints(rec["witness_disagreements"], "witness_disagreements"),
        subsets_examined=_ints(rec["subsets_examined"], "subsets_examined"),
        runtime_seconds=0.0,
        code_description=rec.get("code_description", ""),
        min_disagreements_by_size={
            _ints(json.loads(m), by_size): _ints(d, by_size)
            for m, d in rec.get(by_size, {}).items()
        },
    )


def _jsonable_symbols(symbols):
    return [list(s) if isinstance(s, tuple) else s for s in symbols]


def _symbols_from_json(symbols):
    return tuple(tuple(s) if isinstance(s, list) else s for s in symbols)


def save_report(path, name: str, rows: list[dict], passed: bool, extra: dict | None = None,
                runtime_seconds: float | None = None) -> None:
    """Verification report: a named pass/fail plus CSV-ready rows.

    Each row: {instance, parameter, value, bound, margin, pass}.  A given
    `runtime_seconds` goes in the header, as a certificate's does: it is
    not part of the verified result.
    """
    payload = {
        "kind": "verification_report",
        "version": FORMAT_VERSION,
        "name": name,
        "passed": passed,
        "rows": rows,
    }
    if extra:
        payload["extra"] = extra
    header = {} if runtime_seconds is None else {"runtime_seconds": f"{runtime_seconds:.3f}"}
    save_artifact(path, payload, header_extras=header)


# the columns of a report row, in the order `aelcert report` writes them
REPORT_COLUMNS = ("instance", "parameter", "value", "bound", "margin", "pass")
CSV_HEADER = ",".join(REPORT_COLUMNS)


def report_csv_rows(report_paths) -> list[str]:
    """The header and one CSV record per row of the verification reports
    among `report_paths`; a field with a comma, a quote or a newline is quoted."""
    lines = [CSV_HEADER]
    for p in sorted(str(x) for x in report_paths):
        rec = load_artifact(p)
        if not isinstance(rec, dict) or rec.get("kind") != "verification_report":
            continue
        for row in rec["rows"]:
            out = StringIO()
            csv.writer(out, lineterminator="\n").writerow(
                [str(row.get(col, "")) for col in REPORT_COLUMNS])
            lines.append(out.getvalue()[:-1])
    return lines

"""The boundary-mutant catalogue stays applicable to the source it mutates."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _runner():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_catalogue_fragment_occurs_once_in_its_file():
    runner = _runner()
    rows = runner.load_catalogue()
    assert rows
    assert runner.catalogue_problems(rows) == []


def test_catalogue_check_flags_stale_rows():
    runner = _runner()
    row = {"file": "src/aelcert/listdec.py", "tests": ["tests/test_listdec.py"]}
    stale = [
        dict(row, fragment="no such source text", replacement="x"),
        dict(row, fragment="if lhs < rhs:", replacement="if lhs <= rhs:"),  # twice
        dict(row, fragment="if m < required:", replacement="if m < required:"),
        dict(row, fragment="if m < required:", replacement="if m <= required:", tests=[]),
        {"file": "src/aelcert/listdec.py", "fragment": "if m < required:"},
    ]
    problems = runner.catalogue_problems(stale)
    assert [p.split(":")[0] for p in problems] == [f"row {i} (src/aelcert/listdec.py)"
                                                   for i in range(5)]

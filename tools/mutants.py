#!/usr/bin/env python3
"""
Boundary-mutant runner for the verdict comparisons of aelcert.

The catalogue, `tools/mutants.json`, is a list of rows

    {"file": "src/aelcert/listdec.py",      path from the repository root
     "fragment": "hypothesis_ok = lam <= hyp_rhs",
     "replacement": "hypothesis_ok = lam < hyp_rhs",
     "tests": ["tests/test_listdec.py"],    test files or pytest node ids
     "equivalent": "why no test can tell"}   optional

The fragment must occur exactly once in its file.  The runner copies
`src/`, `tests/`, `pyproject.toml` and `README.md` (which `tests/test_cli.py`
reads) to a temporary directory, checks that the unmutated listed tests
pass there, then applies one mutant at a time and runs `pytest -x -q` on
its row's test files.  A mutant is killed when a test
fails or the run times out, and survives when every test passes.  The
working tree is never written.

Exits 1 on a catalogue error, on any survivor not marked equivalent, and on
a mutant marked equivalent that a test kills (its reason is then wrong).

    python3 tools/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = Path(__file__).with_name("mutants.json")
# seconds one pytest run may take before its mutant counts as killed
TIMEOUT = 600


def load_catalogue(path=CATALOGUE) -> list[dict]:
    return json.loads(Path(path).read_text())


def catalogue_problems(rows, root=ROOT) -> list[str]:
    """One message per row that cannot be applied as written."""
    problems = []
    for i, row in enumerate(rows):
        where = f"row {i} ({row.get('file')})"
        missing = {"file", "fragment", "replacement", "tests"} - row.keys()
        if missing:
            problems.append(f"{where}: lacks {sorted(missing)}")
            continue
        path = Path(root) / row["file"]
        if not path.is_file():
            problems.append(f"{where}: no such file")
            continue
        count = path.read_text().count(row["fragment"])
        if count != 1:
            problems.append(f"{where}: fragment occurs {count} times, not once")
        if row["replacement"] == row["fragment"]:
            problems.append(f"{where}: replacement equals the fragment")
        if not row["tests"]:
            problems.append(f"{where}: names no test file")
        problems += [
            f"{where}: no test file {t}" for t in row["tests"]
            if not (Path(root) / t.split("::")[0]).is_file()
        ]
    return problems


def _pytest(workdir: Path, tests) -> int | None:
    """pytest's exit code on the copy, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(
            cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def _label(row, text: str) -> str:
    """file:line of the first line the mutant changes, old -> new."""
    pairs = zip(row["fragment"].splitlines(), row["replacement"].splitlines())
    offset, (old, new) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
    line = text[: text.index(row["fragment"])].count("\n") + 1 + offset
    return f"{row['file']}:{line}: {old.strip()!r} -> {new.strip()!r}"


def main() -> int:
    rows = load_catalogue()
    problems = catalogue_problems(rows)
    for p in problems:
        print(f"catalogue: {p}")
    if problems:
        return 1
    with tempfile.TemporaryDirectory(prefix="aelcert-mutants-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, work)
        all_tests = sorted({t for row in rows for t in row["tests"]})
        if _pytest(work, all_tests) != 0:
            print("the unmutated tests do not pass, so no mutant can be judged")
            return 1
        failed = 0
        for row in rows:
            target = work / row["file"]
            original = target.read_text()
            target.write_text(original.replace(row["fragment"], row["replacement"]))
            t0 = time.perf_counter()
            code = _pytest(work, row["tests"])
            target.write_text(original)
            seconds = time.perf_counter() - t0
            if code not in (0, 1, None):
                verdict, bad = f"ERROR (pytest exit {code})", True
            elif "equivalent" in row:
                killed = code != 0
                verdict = "KILLED, but marked equivalent" if killed else "equivalent"
                bad = killed
            else:
                verdict = "SURVIVED" if code == 0 else "killed"
                bad = code == 0
            note = f"  ({row['equivalent']})" if "equivalent" in row else ""
            print(f"{verdict:<30} {_label(row, original)}  [{seconds:.1f} s]{note}")
            failed += bad
        print(f"{len(rows)} mutants, {failed} not as the catalogue expects")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

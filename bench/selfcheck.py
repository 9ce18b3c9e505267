"""Smoke self-check of the benchmark.

    python3 bench/selfcheck.py

1. BENCHMARK.json is well formed.
2. Each workload runs at the tiny size, untraced and traced; its last line
   is the result object, its metric names and units are exactly those of
   BENCHMARK.json, and its outputs are correct.
3. The correctness oracle catches a wrong output: with one library function
   replaced by a wrong one, each workload's pass reports a problem.
4. In a directory that holds only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import common

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    expect(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
           "names are well formed and unique")
    expect(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for key in ("end_to_end", "per_layer") for m in spec[key]),
           "units and directions are well formed")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
           and any(m["name"] == "setup_s" and m["unit"] == "s"
                   for m in spec["end_to_end"]), "bounds, and setup_s present")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds")


def run(argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace), "--size", "tiny"], common.ROOT)
    what = f"{workload} trace={trace}"
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{what}: last line is a JSON object ({proc.stderr.strip()[-300:]})")
        return
    expect(proc.returncode == 0 and set(out) == {"correct", "attempted", "failed", "metrics"}
           and out["correct"] is True, f"{what}: exit 0, result keys, correct")
    expect(isinstance(out["attempted"], int) and out["attempted"] >= 1
           and isinstance(out["failed"], int), f"{what}: attempted and failed counts")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    expect(got == wanted, f"{what}: metric names and units match BENCHMARK.json")
    values = [v["value"] for v in out["metrics"].values()]
    expect(all(isinstance(v, (int, float)) for v in values)
           and (trace or all(v > 0 for v in values)), f"{what}: values are numbers")


def check_oracle() -> None:
    """Replace one library function by a wrong one; the pass must notice."""
    A = common.import_aelcert()
    import certify
    import decode
    import sweep_generic

    def wrong_decode(code, word):
        return code.enumerate_codewords()[0], Fraction(0)

    def wrong_amplification(code, cap=1 << 24):
        rep = original["verify_distance_amplification"](code, cap)
        return {**rep, "min_delta_R": rep["min_delta_R"] - Fraction(1, 12)}

    def wrong_slack(words, k, delta0, **kwargs):
        cert = original["min_arld_slack"](words, k, delta0, **kwargs)
        cert.min_disagreements_by_size = {m: d + 1 for m, d in
                                          cert.min_disagreements_by_size.items()}
        return cert

    def never_decode(code, word):
        return None

    cases = [
        (decode, "ael_unique_decode", wrong_decode),
        (decode, "ael_unique_decode", never_decode),
        (certify, "verify_distance_amplification", wrong_amplification),
        (sweep_generic, "min_arld_slack", wrong_slack),
    ]
    original = {name: getattr(A, name) for _, name, _ in cases}
    for module, name, wrong in cases:
        with tempfile.TemporaryDirectory(dir=common.WORK_DIR) as tmp:
            st = module.setup(A, 7, "tiny", Path(tmp))
            setattr(A, name, wrong)
            try:
                O = common.Oracle()
                module.run_pass(st, common.Timer(), O)
            finally:
                setattr(A, name, original[name])
        expect(not O.correct, f"oracle catches {wrong.__name__} as {name} in {module.__name__}")


def check_bare_directory() -> None:
    """Without the sources next to it, the benchmark must fail cleanly."""
    with tempfile.TemporaryDirectory(dir=common.WORK_DIR) as tmp:
        shutil.copy(common.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(common.BENCH_DIR, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([sys.executable, "bench/run.py", "--workload", "certify",
                    "--seed", "1", "--seconds", "1", "--trace", "0"], tmp)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and not last.startswith("{"),
               "bare directory: non-zero exit, no result printed")


def main() -> int:
    common.WORK_DIR.mkdir(exist_ok=True)
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_oracle()
    check_bare_directory()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

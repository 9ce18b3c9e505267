"""`sweep-generic` workload: `min_arld_slack` on seeded random block codes.

The word sets are not closed under coordinatewise addition (checked exactly
when they are drawn), so a translation-symmetry reduction of the subset
sweep cannot apply here; a change that relies on it should leave this
workload unchanged.  One code has k = 5, which runs the generic m >= 5 path.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from common import (
    THREADS, accepts_threads, count_subsets, job_seconds, min_pair_distance, witness_ok,
)

# (label, how many codes, words, length, alphabet, k)
SIZES = {
    "full": [
        ("big", 1, 150, 8, 3, 4),
        ("mid", 2, 80, 7, 4, 4),
        ("small", 16, 14, 5, 3, 4),
        ("k5", 1, 24, 6, 3, 5),
    ],
    "tiny": [
        ("big", 1, 40, 6, 3, 4),
        ("small", 3, 14, 5, 3, 4),
        ("k5", 1, 12, 5, 3, 5),
    ],
}
MIN_PASSES = 3  # every code timed at least three times
DELTA0 = Fraction(2, 3)
# Every per-size minimum is recomputed by brute force up to this many words.
ORACLE_MAX_WORDS = 30


def _closed_under_addition(words, q: int) -> bool:
    present = set(words)
    return all(
        tuple((x + y) % q for x, y in zip(a, b)) in present
        for a in words for b in words
    )


def _draw_words(A, seed, label, i, n_words, n, q):
    """Distinct random words, redrawn in the rare case the set is closed."""
    for attempt in range(100):
        rng = np.random.default_rng(A.derive_seed(seed, "sweep", label, i, attempt))
        flat = rng.choice(q ** n, size=n_words, replace=False)
        words = [tuple(int(x) for x in np.unravel_index(v, (q,) * n)) for v in flat]
        if not _closed_under_addition(words, q):
            return words
    raise RuntimeError("no word set that is not closed under addition")


def setup(A, seed: int, size: str, workdir) -> dict:
    codes = []
    for label, count, n_words, n, q, k in SIZES[size]:
        for i in range(count):
            codes.append({
                "label": f"{label}{i}", "kind": label, "k": k, "n": n, "q": q,
                "words": _draw_words(A, seed, label, i, n_words, n, q),
            })
    return {"A": A, "seed": seed, "size": size, "codes": codes}


def run_pass(st, T, O) -> dict:
    A = st["A"]
    certs = {}
    for code in st["codes"]:
        try:
            with T.section(f"sweep.{code['label']}"):
                cert = A.min_arld_slack(code["words"], code["k"], DELTA0,
                                        description=code["label"])
        except Exception as exc:  # a raising sweep is a failed operation
            O.raised(f"sweep {code['label']}", exc)
            continue
        certs[code["label"]] = cert
        _check(A, code, cert, O)
    return {"certs": certs}



def _brute_minima(words, k: int) -> dict:
    """Minimum D(H) for each subset size, by direct vectorized enumeration."""
    ids = np.array(words, dtype=np.int8)
    n = ids.shape[1]
    out = {}
    for m in range(2, min(k, len(words)) + 1):
        rows = ids[np.array(list(combinations(range(len(words)), m)))]  # (C, m, n)
        counts = (rows[:, :, None, :] == rows[:, None, :, :]).sum(axis=2, dtype=np.int8)
        out[m] = int((m * n - counts.max(axis=1).sum(axis=1)).min())
    return out


def _check(A, code, cert, O) -> None:
    words, k = code["words"], code["k"]
    ok = (
        witness_ok(A, cert, words)
        and cert.subsets_examined == count_subsets(len(words), k)
        and cert.min_disagreements_by_size[2] == min_pair_distance(words)
    )
    if len(words) <= ORACLE_MAX_WORDS:
        ok = ok and cert.min_disagreements_by_size == _brute_minima(words, k)
    O.op(ok, f"sweep {code['label']}: witness or minima wrong")


def report(passes) -> dict:
    return {"certify_s": (job_seconds([T for T, _ in passes]), "s")}


def layer_extras(st, r, T, O):
    """Per-subset-size times, and the same sweeps at threads=1.

    m_j is the time at k = j minus the time at k = j - 1, on the largest
    code for m3 and m4 and on the k = 5 code for m5; the time at the code's
    own k is the untraced pass's.  A witness mismatch is a code whose
    witness for some subset size differs between threads=1 and threads=N;
    the threaded per-size witnesses come from
    `aelcert.arld.min_disagreement_by_size`.
    """
    A = st["A"]
    by_kind = {c["kind"]: c for c in st["codes"]}
    extras = {}

    def sweep_time(code, k):
        t0 = time.perf_counter()
        A.min_arld_slack(code["words"], k, DELTA0)
        return time.perf_counter() - t0

    big = by_kind["big"]
    t = {2: sweep_time(big, 2), 3: sweep_time(big, 3),
         4: T.times[f"sweep.{big['label']}"]}
    extras["arld.m3_s"] = t[3] - t[2]
    extras["arld.m4_s"] = t[4] - t[3]
    k5 = by_kind["k5"]
    extras["arld.m5_s"] = T.times[f"sweep.{k5['label']}"] - sweep_time(k5, 4)

    sweep = getattr(getattr(A, "arld", None), "min_disagreement_by_size", None)
    if sweep is None or not accepts_threads(sweep):
        return extras, ["arld.thread_speedup", "arld.witness_thread_mismatches"]
    mismatches, t_one, t_many = 0, 0.0, 0.0
    for code in st["codes"]:
        sym, _ = A.arld.intern_symbols(code["words"])
        t0 = time.perf_counter()
        one = sweep(sym, code["k"], threads=1)
        t1 = time.perf_counter()
        many = sweep(sym, code["k"], threads=THREADS)
        t_one += t1 - t0
        t_many += time.perf_counter() - t1
        O.check({m: w.disagreement_count for m, w in one.items()}
                == {m: w.disagreement_count for m, w in many.items()},
                f"sweep {code['label']}: minima differ between thread counts")
        mismatches += any(one[m].indices != many[m].indices for m in one)
    extras["arld.thread_speedup"] = t_one / t_many
    extras["arld.witness_thread_mismatches"] = mismatches
    return extras, []

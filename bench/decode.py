"""`decode` workload: a closed-loop stream of decoding requests on the AC3
expander code (RS[4,2]/GF(4) inner, RS[12,2]/GF(16) outer, n = 12, d = 4).

The code is the acceptance instance, built from the root seed's "ac3-graph"
stream whatever `--seed` is: decoding time depends on the graph, and the
workload measures the decoder on one code.  `--seed` draws the requests:

- unique: a random codeword with 0-5 right vertices replaced by another
  d-tuple (each weight equally often), into `ael_unique_decode`;
- soft: AC6-style planted distributions, into `decode_from_distributions`;
- list: a codeword with 0-3 erased and 0-5 wrong right vertices (each
  pair of counts equally often), into `brute_force_list` at beta = 1/2.

One caller sends the requests in a seeded shuffled order and waits for each.
A unique request that comes back empty is a miss when the sent codeword is
beyond the decoder's guarantee (`_beyond_guarantee`), and a failure
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from statistics import median

import numpy as np

from common import DEFAULT_SEED, job_seconds, percentile

SIZES = {
    "full": {"unique": 400, "soft": 40, "list": 80},
    "tiny": {"unique": 30, "soft": 10, "list": 10},
}
MIN_PASSES = 3  # every request timed at least three times
MAX_ERRORS = 5
MAX_ERASURES = 3
LIST_BETA = Fraction(1, 2)


def _corrupt(rng, word, positions, q, d):
    """Replace each listed right vertex by a different random d-tuple."""
    out = list(word)
    for pos in positions:
        while True:
            cand = tuple(int(x) for x in rng.integers(0, q, size=d))
            if cand != out[pos]:
                out[pos] = cand
                break
    return out


def _stratified(rng, count: int, kinds: int) -> list[int]:
    """count values cycling through range(kinds), in a random order."""
    return [int(x) for x in rng.permutation(np.arange(count) % kinds)]


def setup(A, seed: int, size: str, workdir) -> dict:
    f4, f16 = A.make_field(2, 2), A.make_field(2, 4)
    graph = A.random_regular_bipartite(
        12, 4, seed=A.derive_seed(DEFAULT_SEED, "ac3-graph"), lam_target=0.95)
    outer = A.RSOuterCode(f16, 12, 2)
    ael = A.AELCode(graph, A.RSOuterCode(f4, 4, 2, points=[0, 1, 2, 3]), outer)
    words = ael.enumerate_codewords()
    n, d, q = ael.n, ael.d, 4
    counts = SIZES[size]
    requests = []

    # Error weights (and, for list requests, erasure counts) are stratified:
    # every seed sends each weight equally often, so seeds differ in which
    # codewords, positions and symbols they draw, not in how much work the
    # requests hold.
    rng = np.random.default_rng(A.derive_seed(seed, "decode", "unique"))
    for errors in _stratified(rng, counts["unique"], MAX_ERRORS + 1):
        idx = int(rng.integers(0, len(words)))
        positions = rng.permutation(n)[:errors]
        requests.append(("unique", idx, _corrupt(rng, words[idx], positions, q, d)))

    for i in range(counts["soft"]):
        rng = np.random.default_rng(A.derive_seed(seed, "decode", "soft", i))
        idx = int(rng.integers(0, len(words)))
        picks = [ael.outer_symbol_to_inner_index(s) for s in ael.decode_to_outer(words[idx])]
        budget = outer.delta_dec * n
        weights = []
        for left in range(n):
            steal = min(Fraction(int(rng.integers(0, 49)), 100), budget)
            budget -= steal
            row = [Fraction(0)] * ael.inner.size
            row[picks[left]] = 1 - steal
            other = int(rng.integers(0, ael.inner.size))
            if other == picks[left]:
                other = (other + 1) % ael.inner.size
            row[other] = steal
            weights.append(row)
        requests.append(("soft", idx, A.InnerDistributionEnsemble(weights)))

    rng = np.random.default_rng(A.derive_seed(seed, "decode", "list"))
    kinds = (MAX_ERASURES + 1) * (MAX_ERRORS + 1)
    for kind in _stratified(rng, counts["list"], kinds):
        idx = int(rng.integers(0, len(words)))
        order = rng.permutation(n)
        erased = order[:kind // (MAX_ERRORS + 1)]
        wrong = order[len(erased):len(erased) + kind % (MAX_ERRORS + 1)]
        symbols = _corrupt(rng, words[idx], wrong, q, d)
        for pos in erased:
            symbols[pos] = None
        requests.append(("list", idx, A.ErasedWord(tuple(symbols))))

    order = np.random.default_rng(A.derive_seed(seed, "decode", "order")).permutation(len(requests))
    ids = np.array([[sum(s * q ** j for j, s in enumerate(sym)) for sym in w] for w in words])
    return {"A": A, "seed": seed, "size": size, "ael": ael, "words": words,
            "ids": ids, "inner": np.array(ael.inner.enumerate_codewords()),
            "requests": [requests[i] for i in order]}


def run_pass(st, T, O) -> dict:
    A, ael, words = st["A"], st["ael"], st["words"]
    good = 0
    for i, (kind, idx, payload) in enumerate(st["requests"]):
        try:
            with T.section(f"{kind}.{i}", sample=kind):
                if kind == "unique":
                    out = A.ael_unique_decode(ael, payload)
                elif kind == "soft":
                    out = A.decode_from_distributions(ael, payload)
                else:
                    out = A.brute_force_list(ael, payload, LIST_BETA)
        except Exception as exc:  # a raising decoder is a failed request
            O.raised(f"{kind} request", exc)
            continue
        sent = words[idx]
        if kind == "unique":
            if out is None and _beyond_guarantee(st, payload, sent):
                O.miss()
                good += 1
            elif out is None:
                O.op(False, "unique decode missed a word within its guarantee")
            else:
                wrong = sum(a != b for a, b in zip(payload, sent))
                good += O.op(out[0] == sent and out[1] == Fraction(wrong, ael.n),
                             "unique decode returned another codeword")
        elif kind == "soft":
            good += O.op(out == sent, "soft decode did not return the planted codeword")
        else:
            good += O.op(sent in out and set(out) == _list_oracle(st, payload),
                         "list decode: wrong list")
    return {"good": good}


def _beyond_guarantee(st, word, sent) -> bool:
    """Whether the sent codeword lies beyond what `ael_unique_decode`
    guarantees to recover, recomputed with numpy.

    The decoder gives each left view the uniform distribution over its
    nearest inner codewords.  Threshold rounding then provably finds every
    codeword whose expected disagreement with those distributions is at most
    the outer code's relative unique-decoding radius, and only those.
    """
    ael, inner = st["ael"], st["inner"]
    views = np.array(ael.left_views(word))
    dist = (views[:, None, :] != inner[None, :, :]).sum(axis=2)  # (n, M)
    nearest = dist == dist.min(axis=1, keepdims=True)
    mass = Fraction(0)
    for l, view in enumerate(ael.left_views(sent)):
        j = int(np.flatnonzero((inner == view).all(axis=1))[0])
        if nearest[l, j]:
            mass += Fraction(1, int(nearest[l].sum()))
    return 1 - mass / ael.n > ael.outer.delta_dec


def _list_oracle(st, erased) -> set:
    """Every codeword within beta of the erased word, by numpy."""
    ids, n = st["ids"], st["ael"].n
    keep = np.array([s is not None for s in erased.symbols])
    target = np.array([0 if s is None else sum(x * 4 ** j for j, x in enumerate(s))
                       for s in erased.symbols])
    dist = ((ids != target) & keep).sum(axis=1)
    return {st["words"][i] for i in np.nonzero(dist <= LIST_BETA * n)[0]}



def report(passes) -> dict:
    timers = [T for T, _ in passes]
    samples = {k: [x for T, _ in passes for x in T.samples.get(k, [])]
               for k in ("unique", "soft", "list")}
    return {
        "unique_p50_ms": (1000 * percentile(samples["unique"], 50), "ms"),
        "unique_p99_ms": (1000 * percentile(samples["unique"], 99), "ms"),
        "soft_p50_ms": (1000 * percentile(samples["soft"], 50), "ms"),
        "soft_p90_ms": (1000 * percentile(samples["soft"], 90), "ms"),
        "list_p50_ms": (1000 * percentile(samples["list"], 50), "ms"),
        "requests_per_s": (median(r["good"] for _, r in passes) / job_seconds(timers), "1/s"),
    }


def layer_extras(st, r, T, O):
    return {}, []

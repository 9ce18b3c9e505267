"""aelcert benchmark.

    python3 bench/run.py --workload {certify,sweep-generic,decode,all}
                         [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

Run from anywhere; the benchmark imports aelcert from the `src/` next to
this directory.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, from a traced
pass compared against an untraced one.  See bench/README.md.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import common  # noqa: E402
import speed  # noqa: E402

WORKLOADS = {"certify": "certify", "sweep-generic": "sweep_generic", "decode": "decode"}
END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MB"))
SETUP_RUNS = 7  # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="run as many whole passes as fit in this time (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every path on small inputs (smoke check)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_argv(args, workload, *extra):
    return [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--size", args.size, *extra]


def run_child(argv) -> tuple[list[str], dict]:
    """Run one child to completion; return its output lines and last-line JSON."""
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{argv[3:]} printed nothing: {proc.stderr.strip()}")
    return lines, json.loads(lines[-1])


def emit(correct, attempted, failed, metrics) -> int:
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_oracle(O) -> None:
    print(f"# oracle: {O.attempted} operations, {O.failed} failed, {O.misses} decodes "
          f"missed beyond the decoder's guarantee, {O.checks} checks, "
          f"{len(O.problems)} problems")
    for problem in O.problems[:20]:
        print(f"#   problem: {problem}")


def run_untraced(args, wl, st, setup) -> int:
    setups = [setup]
    for _ in range(SETUP_RUNS - 1):
        _, out = run_child(child_argv(args, args.workload, "--setup-only"))
        setups.append((out["setup_wall_s"], out["setup_s"]))
    O = common.Oracle()
    passes, rss = [], None
    began = last = time.perf_counter()
    # As many whole passes as fit in --seconds, judged by the last one, and
    # at least the workload's minimum.
    while (len(passes) < wl.MIN_PASSES
           or 2 * time.perf_counter() - last - began <= args.seconds):
        last = time.perf_counter()
        T = common.Timer(probe=True)
        passes.append((T, wl.run_pass(st, T, O)))
        T.close()
        rss = rss or common.peak_rss_mb()  # set-up and one pass, whatever the count
    timers = [T for T, _ in passes]
    job = [T.total() for T in timers]
    # job_s is the pass time at reference speed (common.Timer): each
    # section's median over the passes, summed.
    values = {"setup_s": median(s for _, s in setups),
              "job_s": common.job_seconds(timers, key="scaled"),
              "peak_rss_mb": rss}
    figures = {name: {"value": v, "unit": u} for name, (v, u) in wl.report(passes).items()}
    figures.update({
        "setup_s": {"value": median(w for w, _ in setups), "unit": "s"},
        "job_wall_s": {"value": common.job_seconds(timers), "unit": "s"},
        "peak_rss_mb": {"value": values["peak_rss_mb"], "unit": "MB"},
        "ops_attempted": {"value": O.attempted, "unit": "count"},
        # failed_frac also counts decodes that missed (see common.Oracle)
        "failed_frac": {"value": (O.failed + O.misses) / max(O.attempted, 1), "unit": "ratio"},
    })
    probes = [x for T in timers for x in T.probes.refs]
    print(f"# setup_s samples, wall: {[round(w, 4) for w, _ in setups]}")
    print(f"# setup_s samples, at reference speed: {[round(s, 4) for _, s in setups]}")
    print(f"# job_s per pass, wall: {[round(x, 4) for x in job]}")
    print(f"# job_s per pass, at reference speed: "
          f"{[round(sum(T.scaled.values()), 4) for T in timers]}")
    print(f"# speed reference: {len(probes)} probes, median {median(probes) * 1000:.3f} ms, "
          f"fastest {min(probes) * 1000:.3f} ms, nominal {speed.REF_NOMINAL_S * 1000:.3f} ms")
    for name, secs in sorted(passes[0][0].times.items()):
        if not name.startswith(("unique", "soft", "list")):
            print(f"#   section {name}: {secs:.4f} s")
    print(f"report: {json.dumps(figures)}")
    print_oracle(O)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return emit(O.correct, O.attempted, O.failed, metrics)


def run_traced(wl, st, A) -> int:
    import tracing

    O = common.Oracle()
    T0 = common.Timer()
    r0 = wl.run_pass(st, T0, O)
    tracer, counter = tracing.Tracer(), tracing.Tracer()
    timers = []
    for tr, counts_only in ((tracer, False), (counter, True)):
        tr.install(A, counts_only=counts_only)
        try:
            timers.append(common.Timer(tr))
            wl.run_pass(st, timers[-1], O)
        finally:
            tr.uninstall()
    extras, absent = wl.layer_extras(st, r0, T0, O)
    untraced, traced = T0.total(), timers[0].total()
    extras["trace.overhead_s"] = traced - untraced
    agg = tracer.aggregate()
    agg.counters.update(counter.counters)
    agg.known |= counter.known
    metrics, absent = tracing.per_layer_metrics(agg, extras, absent)
    print(f"# untraced job_s {untraced:.4f}, traced job_s {traced:.4f}, "
          f"{agg.spans} spans")
    print("# self time by layer (traced pass):")
    for layer in (*tracing.LAYERS, "bench"):
        print(f"#   {layer:9s} {agg.self_by_layer.get(layer, 0.0):10.4f} s")
    layers = sum(agg.self_by_layer.get(layer, 0.0) for layer in tracing.LAYERS)
    print(f"#   all layers + bench = {sum(agg.self_by_layer.values()):.4f} s; "
          f"root spans = {agg.roots_s:.4f} s")
    print(f"# accounting: layers' self time {layers:.4f} s - untraced job_s "
          f"{untraced:.4f} s = {layers - untraced:+.4f} s; "
          f"trace.overhead_s = {extras['trace.overhead_s']:+.4f} s")
    print("# slowest spans by self time:")
    for name, secs in sorted(agg.self_by_name.items(), key=lambda kv: -kv[1])[:15]:
        print(f"#   {name:48s} {secs:9.4f} s {agg.calls[name]:9d} calls")
    print(f"# absent: {absent}")
    print_oracle(O)
    return emit(O.correct, O.attempted, O.failed, metrics)


def run_all(args) -> int:
    """Every workload in its own process, and one table of all their figures."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        lines, out = run_child(child_argv(args, workload, "--trace", "0"))
        figures = json.loads(next(ln for ln in lines if ln.startswith("report: "))[8:])
        print(f"# {workload}")
        for name, m in figures.items():
            print(f"#   {name:16s} {m['value']:14.6g} {m['unit']}")
            metrics[f"{workload}.{name}"] = m
        correct &= out["correct"]
        attempted += out["attempted"]
        failed += out["failed"]
    return emit(correct, attempted, failed, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    probes = speed.Probes()  # the speed reference, during set-up
    try:
        A = common.import_aelcert()
    except common.SourcesMissing as exc:
        probes.stop()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = importlib.import_module(WORKLOADS[args.workload])
    common.WORK_DIR.mkdir(exist_ok=True)  # left in place, empty; .gitignore names it
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK_DIR)
    try:
        try:
            st = wl.setup(A, args.seed, args.size, Path(workdir))
        finally:
            probes.stop()
        # set-up time without the probes, as measured and at reference speed
        setup_wall = time.perf_counter() - T_START - probes.mark[1]
        setup = (setup_wall, setup_wall / probes.speed(0, len(probes.refs)))
        if args.setup_only:
            print(json.dumps({"setup_wall_s": setup[0], "setup_s": setup[1]}))
            return 0
        print(f"# aelcert benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace} size={args.size}")
        print(f"# machine: {json.dumps(common.machine_record(A))}")
        if args.trace:
            return run_traced(wl, st, A)
        return run_untraced(args, wl, st, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

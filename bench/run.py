"""Benchmark of the rampsvm pipeline.

One workload per run:

    python3 bench/run.py --workload train-batch-m16 --seed 0 --seconds 30 --trace 0

prints the end-to-end metrics (setup_s, wall_s, op_p50_ms, peak_rss_mib);
with --trace 1 it prints the per-layer metrics instead.  --workload all runs
every workload, one process each, and prints a table.  The last line of
standard output is always one JSON object: correct, attempted, failed and
metrics.  See bench/README.md for the workloads and the metrics.

A run repeats whole rounds of its workload's operations.  It starts another
round while the time spent so far plus the last round fits in --seconds
(with 10% slack), and always runs at least one.  A traced run spends half of
--seconds untraced and half traced, and checks that both give identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_PROBES = 5
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}


def load_rampsvm():
    """Import rampsvm from the checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import rampsvm
    import rampsvm.cli  # noqa: F401  (the submodules the workloads reach)
    import rampsvm.solver  # noqa: F401
    import rampsvm.support  # noqa: F401

    where = Path(rampsvm.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"rampsvm came from {where}, not from {SRC}")
    return rampsvm


def run_phase(workload, budget: float, tracer=None):
    """Run whole rounds of the workload's operations.

    Returns the per-op results of each round and, with a tracer, the
    per-layer figures of each round.  A result holds the op's label, its
    time, the fingerprint of its output and the errors the checks found.
    An op that raises counts as failed with the exception as its error.
    """
    rounds, layers = [], []
    started = perf_counter()
    while True:
        round_start = perf_counter()
        if tracer is not None:
            tracer.reset_round()
        results, recs = [], []
        for op in workload.ops:
            label = op[0]
            if tracer is not None:
                tracer.op = label
            try:
                seconds, rec = workload.run(op)
            except Exception as exc:  # a failed op is counted, not fatal
                results.append({"op": label, "seconds": None, "fingerprint": None,
                                "errors": [f"raised {exc!r}"]})
                recs.append(None)
                continue
            results.append({"op": label, "seconds": seconds,
                            "fingerprint": workload.fingerprint(rec),
                            "errors": workload.check(op, rec)})
            recs.append(rec)
        for k, errors in workload.round_check(recs).items():
            results[k]["errors"] += errors
        if tracer is not None:
            tracer.op = None
            layers.append(tracer.round_metrics())
        rounds.append(results)
        elapsed = perf_counter() - started
        if elapsed + (perf_counter() - round_start) > 1.1 * budget:
            return rounds, layers


def ops_of(rounds):
    return [r for rnd in rounds for r in rnd]


def compare(rounds, reference: dict, what: str) -> None:
    """Mark an op failed when its output differs from the reference output
    of the same op (the first round, or the untraced phase)."""
    for r in ops_of(rounds):
        ref = reference.get(r["op"])
        if r["fingerprint"] is not None and ref is not None and r["fingerprint"] != ref:
            r["errors"].append(f"output differs from {what}")


def round_wall(rnd) -> float:
    return sum(r["seconds"] for r in rnd if r["seconds"] is not None)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter on this script to the point
    where its inputs are ready (imports, input generation, CSV writing)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {code} after {line!r}")
    return ready - start


def run_workload(args, rs) -> dict:
    cls = WORKLOADS[args.workload]
    if not args.trace:
        setup_s = statistics.median(probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES))
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        (workdir / "plain").mkdir()
        workload = cls(rs, args.seed, workdir / "plain")
        workload.setup()
        budget = args.seconds / 2.0 if args.trace else args.seconds
        rounds, _ = run_phase(workload, budget)
        reference = {r["op"]: r["fingerprint"] for r in rounds[0]}
        compare(rounds[1:], reference, "the first round")
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = [round_wall(rnd) for rnd in rounds]
        times = [r["seconds"] for r in ops_of(rounds) if r["seconds"] is not None]
        details = {"untraced_round_walls_s": walls, "op_seconds": times}
        all_rounds = list(rounds)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(rs)
            try:
                (workdir / "traced").mkdir()
                traced = cls(rs, args.seed, workdir / "traced")
                tracer.op = "setup"
                traced.setup()
                gen_s = tracer.total("datasets.gen_synthetic")
                traced_rounds, traced_layers = run_phase(traced, budget, tracer)
            finally:
                tracer.uninstall()
            compare(traced_rounds, reference, "the untraced run")
            all_rounds += traced_rounds
            traced_walls = [round_wall(rnd) for rnd in traced_rounds]
            layers = tracing.median_metrics(traced_layers)
            layers["datasets.gen_synthetic_s"] = gen_s
            layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
            metrics = {k: {"value": layers[k], "unit": unit}
                       for k, unit in tracing.PER_LAYER.items()}
            details["traced_round_walls_s"] = traced_walls
            spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
            tracer.write(spans_path)
        else:
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls),
                "op_p50_ms": 1e3 * statistics.median(times) if times else 0.0,
                "peak_rss_mib": peak_rss_mib,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = ops_of(all_rounds)
    failed = [r for r in ops if r["errors"]]
    for r in failed:
        for err in r["errors"]:
            print(f"FAILED {args.workload} {r['op']}: {err}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "rounds": len(rounds), **details}, indent=1) + "\n")
    return result


def print_table(results: dict) -> None:
    for workload, res in results.items():
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    print_table(results)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        rs = load_rampsvm()
    except ImportError as exc:
        print(f"error: cannot import rampsvm from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        RESULTS.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=RESULTS))
        try:
            WORKLOADS[args.workload](rs, args.seed, workdir).setup()
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result = run_workload(args, rs)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

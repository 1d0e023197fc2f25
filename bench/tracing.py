"""Per-layer tracing from outside the program.

A Tracer replaces module attributes of rampsvm with wrappers that record a
span (operation, name, start, end, id, parent) around each call into a layer,
and counts calls where a span would cost more than the call itself:
prox_scalar is counted, and the calls the trainer makes are also timed, but
no prox call gets a span.  Spans stay in memory; write() puts them out as
JSON lines when the run ends.  uninstall() restores every attribute.
"""

from __future__ import annotations

import itertools
import json
import statistics
import tracemalloc
from collections import defaultdict
from time import perf_counter

MIB = 1024.0 * 1024.0

# Unit of every per-layer metric, in report order.
PER_LAYER = {
    "prox.prox_scalar_calls": "count",
    "problem.build_problem_s": "s",
    "problem.build_problem_peak_mib": "MiB",
    "problem.spd_solve_calls": "count",
    "problem.spd_solve_s": "s",
    "certify.check_pstationary_calls": "count",
    "certify.check_pstationary_s": "s",
    "certify.recover_multiplier_s": "s",
    "solver.train_admm_s": "s",
    "solver.train_admm_self_s": "s",
    "solver.iterations": "count",
    "solver.converged_runs": "count",
    "solver.us_per_sample_iter": "us",
    "solver.global_oracle_s": "s",
    "losses.objective_calls": "count",
    "losses.objective_s": "s",
    "support.extract_support_s": "s",
    "support.verify_support_margins_s": "s",
    "datasets.parse_dataset_s": "s",
    "datasets.gen_synthetic_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Wrappers around the layer entry points, plus what they recorded."""

    def __init__(self):
        self.spans = []  # (op, name, start, end, id, parent)
        self.op = None  # label of the operation now running
        self._stack = []
        self._ids = itertools.count()
        self._saved = []
        # Lists, not ints: the prox wrappers hold them and count in place.
        self.prox_calls = [0]
        self.trainer_prox_s = [0.0]  # seconds in the trainer's own prox calls
        self.reset_round()

    # --- wrappers ---------------------------------------------------------

    def span(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self.op, name, start, end, sid, parent))

        return wrapper

    def _counted_prox(self, fn):
        calls = self.prox_calls

        def prox_scalar(s, params):
            calls[0] += 1
            return fn(s, params)

        return prox_scalar

    def _timed_prox(self, fn):
        calls, own = self.prox_calls, self.trainer_prox_s

        def prox_scalar(s, params):
            start = perf_counter()
            out = fn(s, params)
            own[0] += perf_counter() - start
            calls[0] += 1
            return out

        return prox_scalar

    def _spd_solver(self, fn):
        factor = self.span("problem.spd_factor", fn)

        def spd_solver(M):
            return self.span("problem.spd_solve", factor(M))

        return spd_solver

    def _build_problem(self, fn):
        inner = self.span("problem.build_problem", fn)

        def build_problem(dataset):
            # tracemalloc runs only inside the call, outside its span times.
            tracemalloc.start()
            try:
                return inner(dataset)
            finally:
                self.build_peaks.append(tracemalloc.get_traced_memory()[1] / MIB)
                tracemalloc.stop()

        return build_problem

    def _train_admm(self, fn):
        inner = self.span("solver.train_admm", fn)

        def train_admm(problem, config):
            res = inner(problem, config)
            self.trains.append(
                (problem.m, res.iterations, res.status.value == "converged")
            )
            return res

        return train_admm

    # --- install / uninstall ----------------------------------------------

    def install(self, rampsvm) -> None:
        """Wrap every layer entry point the workloads reach."""
        cli, certify, datasets = rampsvm.cli, rampsvm.certify, rampsvm.datasets
        losses, problem, solver = rampsvm.losses, rampsvm.problem, rampsvm.solver
        support = rampsvm.support
        plan = [
            (solver, "prox_scalar", self._timed_prox),
            (certify, "prox_scalar", self._counted_prox),
            (cli, "prox_scalar", self._counted_prox),
            (solver, "spd_solver", self._spd_solver),
        ]
        spanned = {
            "build_problem": ("problem.build_problem", [problem, cli], self._build_problem),
            "check_pstationary": ("certify.check_pstationary", [certify, solver, cli], None),
            "recover_multiplier": ("certify.recover_multiplier", [certify], None),
            "train_admm": ("solver.train_admm", [solver, cli], self._train_admm),
            "global_oracle": ("solver.global_oracle", [solver], None),
            "objective": ("losses.objective", [losses, solver, cli], None),
            "extract_support": ("support.extract_support", [support, cli], None),
            "verify_support_margins": ("support.verify_support_margins", [support, cli], None),
            "parse_dataset": ("datasets.parse_dataset", [datasets, cli], None),
            "gen_synthetic": ("datasets.gen_synthetic", [datasets, cli], None),
            "main": ("cli.main", [cli], None),
        }
        for attr, (name, modules, make) in spanned.items():
            for mod in modules:
                plan.append((mod, attr, make or (lambda fn, n=name: self.span(n, fn))))
        for mod, attr, make in plan:
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, make(original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def reset_round(self) -> None:
        """Start a round: zero the counters the prox wrappers hold."""
        self.first_span = len(self.spans)
        self.prox_calls[0] = 0
        self.trainer_prox_s[0] = 0.0
        self.trains = []  # (m, iterations, converged) per train_admm call
        self.build_peaks = []  # tracemalloc peak (MiB) per build_problem call

    # --- aggregation --------------------------------------------------------

    def round_metrics(self) -> dict:
        """Per-layer figures of the spans and counts since reset_round()."""
        spans = self.spans[self.first_span:]
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for _, name, start, end, _, _ in spans:
            total[name] += end - start
            calls[name] += 1
        by_id = {sid: name for _, name, _, _, sid, _ in spans}
        for _, _, start, end, _, parent in spans:
            if parent in by_id:
                child[by_id[parent]] += end - start
        sample_iters = sum(m * it for m, it, _ in self.trains)
        return {
            "prox.prox_scalar_calls": self.prox_calls[0],
            "problem.build_problem_s": total["problem.build_problem"],
            "problem.build_problem_peak_mib": max(self.build_peaks, default=0.0),
            "problem.spd_solve_calls": calls["problem.spd_solve"],
            "problem.spd_solve_s": total["problem.spd_solve"],
            "certify.check_pstationary_calls": calls["certify.check_pstationary"],
            "certify.check_pstationary_s": total["certify.check_pstationary"],
            "certify.recover_multiplier_s": total["certify.recover_multiplier"],
            "solver.train_admm_s": total["solver.train_admm"],
            "solver.train_admm_self_s": total["solver.train_admm"]
            - child["solver.train_admm"]
            - self.trainer_prox_s[0],
            "solver.iterations": sum(it for _, it, _ in self.trains),
            "solver.converged_runs": sum(1 for *_, ok in self.trains if ok),
            "solver.us_per_sample_iter": 1e6 * total["solver.train_admm"] / sample_iters
            if sample_iters
            else 0.0,
            "solver.global_oracle_s": total["solver.global_oracle"],
            "losses.objective_calls": calls["losses.objective"],
            "losses.objective_s": total["losses.objective"],
            "support.extract_support_s": total["support.extract_support"],
            "support.verify_support_margins_s": total["support.verify_support_margins"],
            "datasets.parse_dataset_s": total["datasets.parse_dataset"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": total["cli.main"] - child["cli.main"],
        }

    def total(self, name: str) -> float:
        """Seconds in all spans of this name so far."""
        return sum(end - start for _, n, start, end, _, _ in self.spans if n == name)

    def write(self, path) -> None:
        """Write every span as one JSON array per line, times relative to the
        first span's start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for op, name, start, end, sid, parent in self.spans:
                fh.write(json.dumps([op, name, start - t0, end - t0, sid, parent]) + "\n")


def median_metrics(rounds: list[dict]) -> dict:
    """Median of each per-round figure over the traced rounds."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}

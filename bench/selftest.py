"""Show that the benchmark's checks catch wrong outputs.

Runs real operations of each workload, confirms that their outputs pass the
checks, then perturbs copies of them and confirms that every copy fails:
each coordinate block of the point (w, b, u, lambda) moved by 1e-3, and the
reported objective moved by 1e-6.  Also checks the numpy reference prox
against a dense scan of the prox objective.  Takes about 30 s:

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run
from workloads import OraclePairs, TrainBatch, TrainM8000

POINT_SHIFT = 1e-3
OBJECTIVE_SHIFT = 1e-6


def perturbed_records(rec):
    """(what, record) pairs, each moved away from the program's output."""
    for key in ("w", "b", "u", "lam"):
        bad = copy.deepcopy(rec)
        bad[key] = bad[key] + POINT_SHIFT
        yield f"{key} + {POINT_SHIFT}", bad
    bad = copy.deepcopy(rec)
    bad["objective"] += OBJECTIVE_SHIFT
    yield f"objective + {OBJECTIVE_SHIFT}", bad


def perturbed_reports(rec):
    """The same perturbations applied to a `rampsvm train` JSON report."""
    for key, field in (("w", "w"), ("b", "b"), ("u", "u"), ("lam", "lambda")):
        report = json.loads(rec["text"])
        point = report["result"]["point"]
        value = np.asarray(point[field]) + POINT_SHIFT
        point[field] = value.tolist() if value.ndim else float(value)
        yield f"{key} + {POINT_SHIFT}", {"code": 0, "text": json.dumps(report)}
    report = json.loads(rec["text"])
    report["result"]["objective"] += OBJECTIVE_SHIFT
    yield f"objective + {OBJECTIVE_SHIFT}", {"code": 0, "text": json.dumps(report)}


def check_prox_against_scan() -> list[str]:
    """checks.ramp_prox against the minimum of a dense scan of the prox
    objective, in both regimes, at the regime boundary and at the ties."""
    errors = []
    v = np.linspace(-4.0, 6.0, 200001)  # step 5e-5
    for gamma_c in (0.5, 1.0, 1.9, 2.0, 3.0, 8.0):
        tie = 1.0 + gamma_c / 2.0 if gamma_c < 2.0 else np.sqrt(2.0 * gamma_c)
        s_vals = np.concatenate((np.linspace(-1.5, 5.0, 131), [tie, gamma_c, 0.0]))
        prox, alt = checks.ramp_prox(s_vals, gamma_c, 1.0)
        for s, p, a in zip(s_vals, prox, alt):
            f = np.clip(v, 0.0, 1.0) + (v - s) ** 2 / (2.0 * gamma_c)
            f_prox = min(np.clip(p, 0, 1) + (p - s) ** 2 / (2 * gamma_c),
                         np.inf if np.isnan(a) else np.clip(a, 0, 1) + (a - s) ** 2 / (2 * gamma_c))
            if f_prox > f.min() + 1e-9:
                errors.append(f"gamma*C={gamma_c}, s={s}: prox value {f_prox} above scan {f.min()}")
            if (s == tie) == np.isnan(a):
                errors.append(f"gamma*C={gamma_c}, s={s}: tie reported wrongly")
    return errors


def main() -> int:
    rs = run.load_rampsvm()
    failures = check_prox_against_scan()
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        batch = TrainBatch(rs, 0, Path(tmp))
        m8000 = TrainM8000(rs, 0, Path(tmp))
        oracle = OraclePairs(rs, 0, Path(tmp))
        cases = []
        for wl in (batch, m8000, oracle):
            wl.setup()
        by_label = {op[0]: op for op in batch.ops}
        # batch-4 converges (its support vectors are checked); batch-0 does not.
        for label in ("batch-4", "batch-0"):
            cases.append((batch, by_label[label], perturbed_records))
        cases.append((m8000, m8000.ops[0], perturbed_reports))
        cases.append((oracle, oracle.ops[1], perturbed_records))
        for wl, op, perturb in cases:
            _, rec = wl.run(op)
            errors = wl.check(op, rec)
            status = "ok" if not errors else f"FAILS {errors}"
            print(f"{wl.name} {op[0]}: program output {status}")
            failures += [f"{op[0]}: {e}" for e in errors]
            for what, bad in perturb(rec):
                caught = wl.check(op, bad)
                print(f"  {what}: {'rejected' if caught else 'NOT rejected'}")
                if not caught:
                    failures.append(f"{op[0]}: {what} passed the checks")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selftest", "passed" if not failures else f"failed ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

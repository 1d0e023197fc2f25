"""The benchmark's workloads call rampsvm in fixed forms (keyword sv_tol,
three bounds pairs, the default recovery region); a few of each workload's
operations must run and pass the workload's own checks."""

import importlib.util
from pathlib import Path

import pytest

import rampsvm
import rampsvm.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # for its `import checks`
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _run_ops(workload, ops):
    recs, errors = [], {}
    for op in ops:
        _, rec = workload.run(op)
        recs.append(rec)
        errors[op[0]] = workload.check(op, rec)
    for k, more in workload.round_check(recs).items():
        errors[ops[k][0]] += more
    return recs, errors


@pytest.mark.parametrize("name", ["train-batch-m16", "train-m8000", "oracle-n2"])
def test_workload_ops_pass_their_checks(workloads, tmp_path, name):
    workload = workloads[name](rampsvm, 0, tmp_path)
    workload.setup()
    ops = workload.ops[:2]
    recs, errors = _run_ops(workload, ops)
    assert errors == {op[0]: [] for op in ops}
    if name == "train-batch-m16":
        # A converged run goes on to extract_support and
        # verify_support_margins.
        assert any(rec["status"] == "converged" for rec in recs)
        assert all(rec["margin_ok"] for rec in recs if "margin_ok" in rec)
    if name == "oracle-n2":
        assert [op[0].rsplit("-", 1)[1] for op in ops] == ["clean", "outlier"]

"""The benchmark's tracer wraps rampsvm module attributes by name; every
name it wraps must exist, and uninstall() must restore them all."""

import importlib.util
from pathlib import Path

import rampsvm
import rampsvm.cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = (
    rampsvm.certify,
    rampsvm.cli,
    rampsvm.datasets,
    rampsvm.losses,
    rampsvm.problem,
    rampsvm.solver,
    rampsvm.support,
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall():
    before = {mod: dict(vars(mod)) for mod in MODULES}
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(rampsvm)
        cli_before = before[rampsvm.cli]
        assert rampsvm.cli.check_pstationary is not cli_before["check_pstationary"]
    finally:
        tracer.uninstall()
    for mod, attrs in before.items():
        after = vars(mod)
        assert after.keys() == attrs.keys(), mod.__name__
        changed = [k for k, v in attrs.items() if after[k] is not v]
        assert not changed, f"{mod.__name__}: not restored: {changed}"

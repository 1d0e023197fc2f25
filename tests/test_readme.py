"""README drift: the module map names real exports, the example runs."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import rampsvm

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
IDENTIFIER = re.compile(r"`([A-Za-z_]\w*)`")


def _section(start: str, end: str) -> str:
    return README[README.index(start) : README.index(end, README.index(start))]


def test_module_map_names_exports():
    # The table after the header and separator rows, up to a blank line.
    table = _section("| module | contents |", "\n\n").splitlines()[2:]
    rows = [line.split("|")[1:3] for line in table]
    assert len(rows) == 8
    for module_cell, contents in rows:
        module = module_cell.strip().strip("`")
        importlib.import_module(module)
        for name in IDENTIFIER.findall(contents):
            assert name in rampsvm.__all__, f"{module} row names {name}"


def test_library_example_prints_what_it_promises():
    block = _section("## Library\n\n```python\n", "\n```\n")
    code = block.split("```python\n", 1)[1]
    promised = [
        re.search(r'#\s*"([^"]+)"', line)
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert [m.group(1) for m in promised if m] == ["converged", "p-stationary"]
    for line, match in zip(printed, promised):
        if match:
            assert line == match.group(1)

"""README drift: the module map names real exports, the library example
and every CLI example run; and no private helper in the package is left
without a caller."""

import ast
import contextlib
import importlib
import io
import json
import re
import shlex
from pathlib import Path

import rampsvm
from rampsvm.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
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


def test_cli_examples_run(capsys, monkeypatch, tmp_path):
    # Each `rampsvm ...` line of the CLI block, in order (gen-data first,
    # which writes the file the others read), exits 0 with one JSON report.
    block = _section("## CLI", "\n```\n\n").split("```\n", 1)[1]
    commands = [line for line in block.splitlines() if line.startswith("rampsvm ")]
    assert commands[0].startswith("rampsvm gen-data ") and len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for line in commands:
        capsys.readouterr()
        assert main(shlex.split(line)[1:]) == 0, line
        out = capsys.readouterr().out
        assert out.endswith("}\n") and isinstance(json.loads(out), dict), line


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_unreferenced_private_helpers():
    # A module-level private function, class or constant must be named by
    # some Name, Attribute or import alias in the package; docstrings and
    # comments do not count, and neither do the definitions themselves.
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "rampsvm").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [
                    n.id
                    for t in targets
                    for n in ast.walk(t)
                    if isinstance(n, ast.Name)
                ]
            else:
                names = []
            for name in filter(_is_private, names):
                defined[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
                used.add(node.name)
    assert defined, "no private helpers found; is the source path right?"
    dead = sorted(f"{mod}: {name}" for name, mod in defined.items() if name not in used)
    assert not dead, dead

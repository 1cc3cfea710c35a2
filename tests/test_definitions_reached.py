"""Every top-level function and class of the package has a program caller.

A definition counts as reached when its name appears outside its own body
in the package, the scripts, the benchmark harness or the README.  Code
names and the words of string literals count (the scripts pass Python
source to child processes as strings); comments, docstrings and the
strings of ``__all__`` do not.  A definition that only tests call belongs
in the tests.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _references(source: str) -> list[tuple[int, str]]:
    """(line, word) of every name and every word of a string literal, except in
    comments, docstrings and the ``__all__`` assignment."""
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            skipped.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                skipped.update(range(first.lineno, first.end_lineno + 1))
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.start[0] in skipped:
            continue
        if tok.type == tokenize.NAME:
            out.append((tok.start[0], tok.string))
        elif tok.type == tokenize.STRING:
            out += [(tok.start[0] + tok.string.count("\n", 0, m.start()), m.group())
                    for m in re.finditer(r"\w+", tok.string)]
    return out


def unreached_definitions(root: Path = ROOT) -> list[str]:
    """module.name of each top-level function or class of the package with no reference
    outside its own body."""
    package = root / "src" / "spherestab"
    files = [*sorted(package.glob("*.py")), *sorted((root / "scripts").glob("*.py")),
             *sorted((root / "perfbench").glob("*.py"))]
    readme = set(re.findall(r"\w+", (root / "README.md").read_text()))
    uses, defs = {}, []
    for path in files:
        source = path.read_text()
        for line, word in _references(source):
            uses.setdefault(word, []).append((path, line))
        if path.parent == package:
            defs += [(path, d) for d in ast.parse(source).body if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
    return [f"{path.stem}.{d.name}" for path, d in defs
            if d.name not in readme
            and all(p == path and d.lineno <= line <= d.end_lineno for p, line in uses.get(d.name, ()))]


def test_every_package_definition_has_a_program_caller():
    unreached = unreached_definitions()
    assert not unreached, f"{len(unreached)} definitions only tests reach: {', '.join(unreached)}"


def test_the_scan_sees_a_definition_only_its_own_body_names(tmp_path):
    pkg = tmp_path / "src" / "spherestab"
    pkg.mkdir(parents=True)
    for d in ("scripts", "perfbench"):
        (tmp_path / d).mkdir()
    (pkg / "a.py").write_text(
        '"""Mentions lonely and in_readme."""\n'
        '__all__ = ["lonely", "used", "in_script", "in_string"]\n\n\n'
        'def lonely(x):\n    # lonely\n    return lonely(x - 1) if x else 0\n\n\n'
        'def used():\n    return 1\n\n\n'
        'class in_script:\n    pass\n\n\n'
        'def in_string():\n    pass\n\n\n'
        'def in_readme():\n    pass\n\n\n'
        'VALUE = used()\n')
    (tmp_path / "scripts" / "s.py").write_text('from spherestab.a import in_script\nCODE = "in_string()"\n')
    (tmp_path / "README.md").write_text("`in_readme` is documented.\n")
    assert unreached_definitions(tmp_path) == ["a.lonely"]

"""The README's "API:" lists: a name that nothing in src/ refers to is
public API, listed in its module's row, or it is dead code.

References are matched by name (an ``ast.Name`` or the attribute of an
``ast.Attribute``, outside the name's own definition), so a method that
shares its name with another reference (``operator.mul`` against a method
``mul``) counts as referenced."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quiveralg"
NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)`")


def _definitions():
    """(module, name, node) for every module-level function and class, and
    every method of such a class whose name is not a dunder, with methods
    named Class.method."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((path.stem, node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [
                    (path.stem, f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
    return out


def _references():
    """Every Name and Attribute node in src/, by the name it refers to."""
    refs = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
    return refs


def _readme_api():
    """{module: names listed after "API:" in its README module-map row}."""
    listed = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| `quiveralg\.(\w+)` \|", line)
        if row and "API:" in line:
            listed[row.group(1)] = set(NAME.findall(line.split("API:", 1)[1]))
    return listed


def test_every_unreferenced_name_is_listed_as_api():
    refs = _references()
    listed = _readme_api()
    missing = []
    for module, name, node in _definitions():
        inside = {id(n) for n in ast.walk(node)}
        short = name.rsplit(".", 1)[-1]
        if not any(id(n) not in inside for n in refs.get(short, ())):
            if name not in listed.get(module, ()):
                missing.append(f"{module}.{name}")
    assert not missing, f"unreferenced in src/ and not listed as API: {missing}"


def test_every_listed_api_name_exists():
    defined = {(module, name) for module, name, _ in _definitions()}
    listed = _readme_api()
    assert listed
    unknown = [
        f"{module}.{name}"
        for module, names in sorted(listed.items())
        for name in sorted(names)
        if (module, name) not in defined
    ]
    assert not unknown, f"listed as API but not defined: {unknown}"

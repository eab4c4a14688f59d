"""The README's Python examples run, and every exported name has a user."""

import ast
import re
from pathlib import Path
from types import ModuleType

import sspbounds

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_section(title: str) -> str:
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def referenced_names(path: Path) -> set[str]:
    """Identifiers a Python file refers to: names, attributes, imports and identifier strings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # e.g. the function names the benchmark's tracer wraps
    return {name for name in names if name.isidentifier()}


def test_every_export_is_used_or_documented():
    users = [ROOT / "src" / "sspbounds" / name for name in ("cli.py", "gridworld.py")]
    users += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(referenced_names, users))
    documented = set(re.findall(r"`(\w+)`", readme_section("Library API")))
    assert sorted(set(sspbounds.__all__) - used - documented) == []
    assert not [n for n in sspbounds.__all__ if isinstance(getattr(sspbounds, n), ModuleType)]

"""src/ holds only what a run reaches: no module-level name goes unread."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reads(paths) -> set:
    """Every name the modules ``paths`` read: a loaded name, an attribute,
    an imported name, or a string constant that is an identifier (a name
    looked up by getattr)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.name.rpartition(".")[2] for a in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names.add(node.value)
    return names


def _defined(path) -> list:
    """The module-level functions, classes and assigned names of ``path``."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_module_level_name_is_read():
    # a name that nothing in src/ reads is a dead helper, unless the
    # benchmark (perfbench/) calls it by that name
    modules = sorted((ROOT / "src" / "magtube").glob("*.py"))
    read = _reads(modules) | _reads(sorted((ROOT / "perfbench").glob("*.py")))
    unread = [f"{path.stem}.{name}" for path in modules
              for name in _defined(path) if name not in read]
    assert unread == []

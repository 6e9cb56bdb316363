"""Every name a module of the package imports is used in that module, and
every defaulted parameter of its functions is set by some call.

``__init__`` is left out of the import check: its imports are the
package's re-exports.
"""

import ast
import functools
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rsi_certify"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((PACKAGE / path).read_text(encoding="utf-8")) == []


# ---------------------------------------------------------------------------
# every library setting has a caller that sets it

CALLERS = ("src", "tests", "tools", "perfbench")


def defaulted_parameters(source: str) -> list[tuple[str, int | None, str]]:
    """(function, position or None if keyword-only, parameter) of each
    defaulted parameter of a module-level function or classmethod; a
    classmethod's positions do not count ``cls``."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            funcs = [(node, 0)]
        elif isinstance(node, ast.ClassDef):
            funcs = [(f, 1) for f in node.body
                     if isinstance(f, ast.FunctionDef)
                     and any(getattr(d, "id", None) == "classmethod"
                             for d in f.decorator_list)]
        else:
            continue
        for f, skip in funcs:
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            out += [(f.name, i - skip, a.arg)
                    for i, a in enumerate(positional) if i >= first]
            out += [(f.name, None, a.arg) for a, d
                    in zip(f.args.kwonlyargs, f.args.kw_defaults)
                    if d is not None]
    return out


@functools.cache
def calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in the callers' sources, by the name it calls."""
    root = PACKAGE.parents[1]
    out = {}
    for top in CALLERS:
        for path in (root / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) \
                        or getattr(node.func, "attr", None)
                    out.setdefault(name, []).append(node)
    return out


def sets(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter, by keyword or by position; a
    ``*args`` or ``**kwargs`` passes every one it could."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args)


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_default_is_set_by_some_call(path):
    calls = calls_by_name()
    source = (PACKAGE / path).read_text(encoding="utf-8")
    unset = [f"{func}({name})"
             for func, position, name in defaulted_parameters(source)
             if not any(sets(c, position, name) for c in calls.get(func, ()))]
    assert unset == []

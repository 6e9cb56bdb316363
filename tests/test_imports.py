"""Every name a module of the package imports is used in that module,
every defaulted parameter of its functions is set by some call, the json
module is used by one writer and one reader alone, the certify pipeline
and the config reader import no I/O module, the reader and the CLI no
numpy.

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


# ---------------------------------------------------------------------------
# one JSON writer and one JSON reader

JSON_IO = ("series.py", ("json_text", "read_json_document"))


def json_uses(module: str, source: str) -> list[str]:
    """Each line of ``source`` that names the json module outside
    ``series.json_text`` and ``series.read_json_document``; ``series``
    alone may import it, and only as ``json``."""
    out = []
    for top in ast.parse(source).body:
        if module == JSON_IO[0] and (getattr(top, "name", None) in JSON_IO[1]
                                     or isinstance(top, ast.Import) and all(
                                         a.asname is None for a in top.names)):
            continue
        out += [f"line {node.lineno}" for node in ast.walk(top)
                if isinstance(node, ast.Name) and node.id == "json"
                or isinstance(node, ast.ImportFrom) and node.module == "json"
                or isinstance(node, ast.Import)
                and any(a.name == "json" for a in node.names)]
    return out


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_json_is_read_and_written_in_one_place(path):
    assert json_uses(path, (PACKAGE / path).read_text(encoding="utf-8")) == []


# ---------------------------------------------------------------------------
# the certify pipeline stays pure, and the CLI stays a shell around it

SHELL_MODULES = ("os", "sys", "argparse", "json", "warnings")


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def opens(source: str) -> list[int]:
    """The lines of ``source`` that name ``open``, bare or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id == "open"
            or isinstance(node, ast.Attribute) and node.attr == "open"]


def test_pipeline_does_no_io_and_cli_no_numerics():
    pipeline = (PACKAGE / "pipeline.py").read_text(encoding="utf-8")
    assert imported_modules(pipeline).isdisjoint(SHELL_MODULES)
    assert not opens(pipeline)
    cli = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert "numpy" not in imported_modules(cli)
    assert "os" in imported_modules(cli)    # the scan sees the shell's I/O


def test_config_reader_does_no_io_and_no_numerics():
    config = (PACKAGE / "config.py").read_text(encoding="utf-8")
    assert imported_modules(config).isdisjoint({*SHELL_MODULES, "numpy"})
    assert not opens(config)

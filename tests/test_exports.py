"""Every name a module lists in ``__all__`` resolves on that module, every
name a module imports is used, every memo has a finite bound, every binary
search is bounded, every JSON file is read by ``memory.read_json``, only
``cli.main`` ends a command, only the runner's one helper switches the
cyclic garbage collector, and a module loads only the modules it runs.

A deletion that leaves its name behind in ``__all__`` fails here, not later
as an ``ImportError`` in a star import; one that leaves behind an import of
what only the deleted code read fails here too.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "memsteer"

MODULES = ["memsteer", "memsteer.memory", "memsteer.oracle", "memsteer.envs",
           "memsteer.envs.textgame"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert module.__all__ and missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _annotation(node: ast.AST) -> ast.expr | None:
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    return None


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the module reads, in code or in annotations (also those
    written as strings), plus the names it lists in ``__all__``."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        annotation = _annotation(node)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            read |= _names_read(ast.parse(annotation.value, mode="eval"))
    return read


def _names_bound_by_imports(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds -> the line of its import (``__future__`` left out)."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _names_read(tree)
        unused += [f"{path.relative_to(SOURCE)}:{line} {name}"
                   for name, line in _names_bound_by_imports(tree).items() if name not in read]
    assert unused == []


def _resolver(tree: ast.Module, module: str, names: tuple[str, ...]):
    """A function from an expression node to the one of ``names`` of
    ``module`` it refers to, through ``import module as m`` or ``from module
    import name as n``, or None."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == module}
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == module
                for alias in node.names if alias.name in names}

    def name_of(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and node.attr in names:
            return node.attr
        return imported.get(node.id) if isinstance(node, ast.Name) else None

    return name_of


def _calls(tree: ast.Module, callee) -> list[ast.Call]:
    """The calls whose function ``callee`` (a :func:`_resolver`) names."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and callee(node.func)]


_MEMOS = ("cache", "lru_cache")


def _unbounded_memos(tree: ast.Module) -> list[int]:
    """Lines that name ``functools.cache``, or an ``lru_cache`` not called
    with a positive integer ``maxsize``."""
    memo = _resolver(tree, "functools", _MEMOS)
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and memo(node.func) == "lru_cache":
            size = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0:
                bounded.add(node.func)
    return [node.lineno for node in ast.walk(tree) if memo(node) and node not in bounded]


@pytest.mark.parametrize("source,unbounded", [
    ("from functools import lru_cache\n@lru_cache(maxsize=4096)\ndef f(x): pass", []),
    ("import functools\n@functools.lru_cache(8)\ndef f(x): pass", []),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass", [2]),
    ("from functools import lru_cache\n@lru_cache(None)\ndef f(x): pass", [2]),
    ("from functools import lru_cache\n@lru_cache\ndef f(x): pass", [2]),
    ("from functools import lru_cache as memo\nN = 8\n@memo(maxsize=N)\ndef f(x): pass", [3]),
    ("import functools as ft\n@ft.cache\ndef f(x): pass", [2]),
    ("from functools import cache\ng = cache(len)", [2]),
    ("cache = {}\nlru_cache = dict\ng = lru_cache()", []),
], ids=["keyword", "positional", "none", "none-positional", "bare", "named-size",
        "cache", "cache-call", "not-functools"])
def test_the_memo_check_flags_each_unbounded_form(source, unbounded):
    assert _unbounded_memos(ast.parse(source)) == unbounded


def test_every_memo_has_a_finite_bound():
    unbounded = []
    for path in sorted(SOURCE.rglob("*.py")):
        unbounded += [f"{path.relative_to(SOURCE)}:{line}"
                      for line in _unbounded_memos(ast.parse(path.read_text(encoding="utf-8")))]
    assert unbounded == []


_BISECTS = ("bisect_right", "bisect_left")


def _unbounded_bisects(tree: ast.Module) -> list[int]:
    """Lines of a ``bisect_right`` or ``bisect_left`` call from the ``bisect``
    module that does not pass both ``lo`` and ``hi``. An inverse-CDF draw
    needs ``hi``: without it, a draw past the table's rounded total indexes
    one past its end."""
    lines = []
    for node in _calls(tree, _resolver(tree, "bisect", _BISECTS)):
        passed = {"lo", "hi"}.intersection(("lo", "hi")[:len(node.args) - 2])
        passed |= {kw.arg for kw in node.keywords}
        if not {"lo", "hi"} <= passed:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source,unbounded", [
    ("from bisect import bisect_right\nbisect_right(r, u, 0, 3)", []),
    ("from bisect import bisect_left\nbisect_left(r, u, lo=0, hi=3)", []),
    ("import bisect\nbisect.bisect_right(r, u, 0, hi=3)", []),
    ("from bisect import bisect_right\nmin(bisect_right(r, u), 3)", [2]),
    ("from bisect import bisect_right\nbisect_right(r, u, 0)", [2]),
    ("from bisect import bisect_left\nbisect_left(r, u, hi=3)", [2]),
    ("from bisect import bisect_right as search\nsearch(r, u)", [2]),
    ("import bisect as b\nb.bisect_left(r, u, 1)", [2]),
    ("def bisect_right(r, u): pass\nbisect_right(r, u)", []),
], ids=["positional", "keyword", "module", "clamped", "lo-only", "hi-only", "alias",
        "module-alias", "not-bisect"])
def test_the_bisect_check_flags_each_unbounded_form(source, unbounded):
    assert _unbounded_bisects(ast.parse(source)) == unbounded


def test_every_bisect_passes_lo_and_hi():
    unbounded = []
    for path in sorted(SOURCE.rglob("*.py")):
        unbounded += [f"{path.relative_to(SOURCE)}:{line}"
                      for line in _unbounded_bisects(ast.parse(path.read_text(encoding="utf-8")))]
    assert unbounded == []


def _json_loads_of_files(tree: ast.Module) -> list[int]:
    """Lines of a ``json.load`` call: a file is read by ``memory.read_json``,
    which names the file in every error."""
    return [node.lineno for node in _calls(tree, _resolver(tree, "json", ("load",)))]


@pytest.mark.parametrize("source,lines", [
    ("import json\njson.load(fh)", [2]),
    ("import json as j\nj.load(fh)", [2]),
    ("from json import load\nload(fh)", [2]),
    ("from json import load as read\nread(fh)", [2]),
    ("import json\njson.loads(text)", []),
    ("from pickle import load\nload(fh)", []),
], ids=["module", "module-alias", "imported", "imported-alias", "loads", "not-json"])
def test_the_json_check_flags_each_form_of_json_load(source, lines):
    assert _json_loads_of_files(ast.parse(source)) == lines


def test_no_module_calls_json_load():
    calls = []
    for path in sorted(SOURCE.rglob("*.py")):
        calls += [f"{path.relative_to(SOURCE)}:{line}"
                  for line in _json_loads_of_files(ast.parse(path.read_text(encoding="utf-8")))]
    assert calls == []


def _inside(tree: ast.Module, allowed: tuple[str, ...]) -> set[ast.AST]:
    """Every node inside the module's top-level functions named in ``allowed``."""
    return {inner for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in allowed
            for inner in ast.walk(node)}


def _exits(tree: ast.Module, allowed: tuple[str, ...] = ()) -> list[int]:
    """Lines that raise ``SystemExit`` or call ``sys.exit`` outside the
    module's functions named in ``allowed`` and its ``__main__`` guard."""
    exempt = _inside(tree, allowed)
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            exempt.update(ast.walk(node))
    exits = _calls(tree, _resolver(tree, "sys", ("exit",)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "SystemExit":
                exits.append(node)
    return sorted(node.lineno for node in exits if node not in exempt)


@pytest.mark.parametrize("source,allowed,lines", [
    ("def f():\n    raise SystemExit('error: x')", (), [2]),
    ("def f():\n    raise SystemExit", (), [2]),
    ("import sys\ndef f():\n    sys.exit(1)", (), [3]),
    ("import sys as s\ns.exit()", (), [2]),
    ("from sys import exit as leave\nleave(2)", (), [2]),
    ("def main():\n    raise SystemExit(2)", ("main",), []),
    ("def main():\n    def inner():\n        raise SystemExit(2)", ("main",), []),
    ("def main():\n    raise SystemExit(2)", (), [2]),
    ("import sys\nif __name__ == '__main__':\n    sys.exit(main())", (), []),
    ("import sys\nif __name__ != '__main__':\n    sys.exit(main())", (), [3]),
    ("def f():\n    raise ValueError('x')\nexit = print\nexit(1)", (), []),
], ids=["raise-call", "raise-bare", "sys-exit", "sys-alias", "exit-imported", "in-main",
        "nested-in-main", "main-not-allowed", "main-guard", "not-main-guard", "not-sys"])
def test_the_exit_check_flags_each_exit_outside_main(source, allowed, lines):
    assert _exits(ast.parse(source), allowed) == lines


def test_only_cli_main_ends_a_command():
    exits = []
    for path in sorted(SOURCE.rglob("*.py")):
        allowed = ("main",) if path == SOURCE / "cli.py" else ()
        exits += [f"{path.relative_to(SOURCE)}:{line}"
                  for line in _exits(ast.parse(path.read_text(encoding="utf-8")), allowed)]
    assert exits == []


_COLLECTOR_SWITCHES = ("disable", "enable", "freeze", "unfreeze", "set_threshold")


def _collector_switches(tree: ast.Module, allowed: tuple[str, ...] = ()) -> list[int]:
    """Lines of a call that switches the cyclic garbage collector or retunes
    it for the whole process (``gc.disable``, ``enable``, ``freeze``,
    ``unfreeze``, ``set_threshold``) outside the module's functions named in
    ``allowed``."""
    exempt = _inside(tree, allowed)
    return [node.lineno for node in _calls(tree, _resolver(tree, "gc", _COLLECTOR_SWITCHES))
            if node not in exempt]


@pytest.mark.parametrize("source,allowed,lines", [
    ("import gc\ngc.disable()", (), [2]),
    ("import gc as g\ng.freeze()\ng.unfreeze()", (), [2, 3]),
    ("from gc import set_threshold\nset_threshold(0)", (), [2]),
    ("from gc import enable as on\non()", (), [2]),
    ("import gc\ndef paused():\n    gc.disable()\n    gc.enable()", ("paused",), []),
    ("import gc\ndef paused():\n    gc.disable()\n    gc.enable()", (), [3, 4]),
    ("import gc\nclass C:\n    def paused(self):\n        gc.disable()", ("paused",), [4]),
    ("import gc\ngc.collect()\ngc.isenabled()\ngc.set_debug(0)", (), []),
    ("def disable(): pass\ndisable()", (), []),
], ids=["disable", "module-alias", "set-threshold", "imported-alias", "in-helper",
        "helper-not-allowed", "method-not-helper", "not-a-switch", "not-gc"])
def test_the_collector_check_flags_each_switch_outside_the_helper(source, allowed, lines):
    assert _collector_switches(ast.parse(source), allowed) == lines


def test_only_the_runner_helper_switches_the_collector():
    switches = []
    for path in sorted(SOURCE.rglob("*.py")):
        allowed = ("_collector_paused",) if path == SOURCE / "runner.py" else ()
        switches += [f"{path.relative_to(SOURCE)}:{line}" for line in
                     _collector_switches(ast.parse(path.read_text(encoding="utf-8")), allowed)]
    assert switches == []
    assert _collector_switches(ast.parse((SOURCE / "runner.py").read_text(encoding="utf-8")))


def _loaded_by(statement: str) -> set[str]:
    """The memsteer modules a fresh interpreter holds after running ``statement``.
    Without a bytecode cache every module loaded is compiled, so this is what
    the statement costs at start-up."""
    code = (f"import sys\n{statement}\n"
            "print(*(name for name in sys.modules if name.split('.')[0] == 'memsteer'))")
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return set(done.stdout.split())


def test_the_cli_loads_only_what_every_command_needs():
    # each command imports the rest inside the function that runs it
    assert _loaded_by("import memsteer.cli") == {
        "memsteer", "memsteer.cli", "memsteer.config", "memsteer.memory", "memsteer.tokens"}


def test_the_text_game_does_not_load_the_tabular_mdp():
    loaded = _loaded_by("import memsteer.envs.textgame")
    assert "memsteer.envs.textgame" in loaded and "memsteer.envs.tabular" not in loaded


def test_the_oracle_does_not_load_the_tabular_mdp():
    loaded = _loaded_by("import memsteer.oracle")
    assert "memsteer.oracle" in loaded and "memsteer.envs.tabular" not in loaded


def test_the_run_path_loads_neither_the_wire_path_nor_the_text_game():
    loaded = _loaded_by("import memsteer.runner")
    assert "memsteer.runner" in loaded
    assert not {"memsteer.wire", "memsteer.envs.textgame"} & loaded

"""The API that the benchmark scripts under perfbench/ use.

Each script is parsed, not run: every name it imports from eegsong must
still resolve, and every call it makes to such a name must still bind to the
callee's signature.  A change that renames or drops a public name or
parameter the benchmark depends on then fails here instead of only when the
benchmark runs.
"""

import ast
import importlib
import inspect
from pathlib import Path

from eegsong.cli import _build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _eegsong_module(node: ast.ImportFrom) -> bool:
    return node.level == 0 and (node.module or "").split(".")[0] == "eegsong"


def _scripts():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(PERFBENCH.glob("*.py"))]


def imported_names():
    """(script, module, name) for each name a script imports from eegsong;
    name is None for a plain `import eegsong...`."""
    found = []
    for script, tree in _scripts():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _eegsong_module(node):
                found += [(script, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (script, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "eegsong"
                ]
    return found


def calls():
    """(script:line, module, name, n_positional, keywords) for each call of
    a name imported from eegsong; n_positional is None after a *args."""
    found = []
    for script, tree in _scripts():
        origin = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and _eegsong_module(node)
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in origin:
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                found.append((
                    f"{script}:{node.lineno}",
                    *origin[node.func.id],
                    None if starred else len(node.args),
                    tuple(kw.arg for kw in node.keywords if kw.arg is not None),
                ))
    return found


def test_the_benchmark_imports_eegsong():
    assert {module for _, module, _ in imported_names()} >= {"eegsong", "eegsong.preprocess"}
    assert calls()


def test_imported_names_resolve():
    missing = []
    for script, module, name in imported_names():
        imported = importlib.import_module(module)  # raises if the module is gone
        if name is not None and not hasattr(imported, name):
            missing.append(f"{script}: {module}.{name}")
    assert missing == []


def test_calls_bind_to_the_signatures():
    unbound = []
    for where, module, name, n_positional, keywords in calls():
        callee = getattr(importlib.import_module(module), name)
        try:
            inspect.signature(callee).bind_partial(
                *[None] * (n_positional or 0), **dict.fromkeys(keywords)
            )
        except TypeError as exc:
            unbound.append(f"{where}: {name}: {exc}")
    assert unbound == []


def test_the_benchmark_cli_flags_parse():
    """perfbench/workloads.py runs `python -m eegsong.cli <stage> --config C
    --seed N --out D` for each stage of harness.CLI_STAGES, and `pipeline`."""
    tree = ast.parse((PERFBENCH / "harness.py").read_text())
    stages = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CLI_STAGES" for t in node.targets)
    )
    assert stages
    parser = _build_parser()
    for stage in (*stages, "pipeline"):
        args = parser.parse_args([stage, "--config", "c.json", "--seed", "1", "--out", "run"])
        assert (args.command, args.config, args.seed, args.out) == (stage, "c.json", 1, "run")

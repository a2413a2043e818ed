"""Every definition and every setting in `src/cnma` has a caller.

A public definition must be named (as an `ast.Name` or an `ast.Attribute`)
somewhere in the package outside its own body, or be exported in
`cnma.__all__`.  A parameter with a default must be passed by some call in
the package, and a `CnmaConfig` field must be set by a shipped problem file
or by a `cnma run` flag.  Code and settings that only the tests reach belong
in `tests/`.
"""
import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import cnma
from cnma import cli
from cnma.benchmarks import REGISTRY, builtin_problem_names, builtin_problem_path
from cnma.loop import CnmaConfig
from cnma.problem import load_problem

SOURCE = Path(cnma.__file__).parent

ALLOWED = {
    # the acceptance suite's gradient criterion checks this exact gradient
    # against finite differences; `fit` uses the same function privately
    ("mlp", "loss_gradient"),
}


def referenced(node: ast.AST) -> Counter:
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def source_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SOURCE.glob("*.py"))}


def test_every_public_definition_has_a_caller():
    trees = source_trees()
    everywhere = sum((referenced(tree) for tree in trees.values()), Counter())
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in cnma.__all__ or (module, name) in ALLOWED:
                continue
            if everywhere[name] - referenced(node)[name] == 0:
                uncalled.append(f"{module}.{name}")
    assert uncalled == []


UNPASSED_ALLOWED = {
    # entry points: `__main__` calls them with no arguments, tests pass argv
    ("cli", "main", "argv"),
    ("serve", "main", "argv"),
    # exported for writing problems in Python; the package builds no constants
    ("problem", "linear", "constant"),
    # perfbench binds it on every solve to count wall-clock cuts
    ("milp", "solve", "time_budget"),
} | {
    # a builtin blackbox's parameters come from a problem file's `params`,
    # passed through `**params`
    ("benchmarks", b.fn.__name__, arg)
    for b in REGISTRY.values()
    for arg in inspect.signature(b.fn).parameters
}


def defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter with a default; keyword-only ones have no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(i, p.arg) for i, p in enumerate(positional) if i >= first] + [
        (None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def passes(call: ast.Call, position: int | None, name: str, shift: int) -> bool:
    """True if `call` passes the parameter by keyword, or by position once
    `shift` leading parameters (a method's instance) are filled for it."""
    if any(k.arg == name for k in call.keywords):
        return True
    if position is None or any(isinstance(a, ast.Starred) for a in call.args):
        return False
    return len(call.args) + shift > position


def test_every_defaulted_parameter_is_passed():
    trees = source_trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(callee, []).append(node)
    unpassed = []
    for module, tree in trees.items():
        for parent in ast.walk(tree):
            for fn in ast.iter_child_nodes(parent):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                method = isinstance(parent, ast.ClassDef) and not any(
                    getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list
                )
                callees = [fn.name] + ([parent.name] if method and fn.name == "__init__" else [])
                site = [c for callee in callees for c in calls.get(callee, [])]
                for position, name in defaulted(fn):
                    if (module, fn.name, name) in UNPASSED_ALLOWED:
                        continue
                    if not any(passes(c, position, name, int(method)) for c in site):
                        unpassed.append(f"{module}.{fn.name}({name})")
    assert unpassed == []


def test_every_cnma_option_is_set_by_a_problem_or_a_flag(tmp_path, monkeypatch, capsys):
    by_flags: set[str] = set()
    real = CnmaConfig.for_problem.__func__

    def for_problem(cls, problem, **overrides):
        by_flags.update(overrides)
        return real(cls, problem, **overrides)

    monkeypatch.setattr(CnmaConfig, "for_problem", classmethod(for_problem))
    code = cli.main([
        "run", "--problem", "rosenbrock", "--solver", "cnma", "--budget", "1",
        "--seed", "1", "--target", "0", "--trace", str(tmp_path / "t.csv"),
    ])
    assert code == 0, capsys.readouterr().err
    in_files = {
        key
        for name in builtin_problem_names()
        for key in load_problem(builtin_problem_path(name)).solver_defaults
    }
    fields = {f.name for f in dataclasses.fields(CnmaConfig)}
    assert fields - by_flags - in_files == set()

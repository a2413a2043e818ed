"""Every public module-level function and class in `src/cnma` has a caller.

A public definition must be named (as an `ast.Name` or an `ast.Attribute`)
somewhere in the package outside its own body, or be exported in
`cnma.__all__`.  Code that only the tests reach belongs in `tests/`.
"""
import ast
from collections import Counter
from pathlib import Path

import cnma

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


def test_every_public_definition_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SOURCE.glob("*.py"))}
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

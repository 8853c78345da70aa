"""No function in ``src/jwcat`` assigns a local name that nothing reads.

A name counts as read when the function, or a function or comprehension
nested in it, loads it. Names declared ``global`` or ``nonlocal`` belong to
another scope, and ``_``-prefixed names are deliberately unused."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jwcat"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_nodes(fn):
    """The nodes of ``fn``'s own scope: its body, without nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(tree):
    """(function name, line, local name) for each name a function stores in
    its own scope and never loads, in its own scope or a nested one."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        outer = {n for node in own_nodes(fn)
                 if isinstance(node, (ast.Global, ast.Nonlocal)) for n in node.names}
        loaded = {node.id for node in ast.walk(fn)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in own_nodes(fn):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and not node.id.startswith("_")
                    and node.id not in loaded and node.id not in outer):
                found.append((fn.name, node.lineno, node.id))
    return found


def test_the_scan_finds_a_dead_local():
    tree = ast.parse("def f(x):\n"
                     "    y = x + 1\n"
                     "    z, _w = x, x\n"
                     "    def g():\n"
                     "        return z\n"
                     "    return g\n")
    assert dead_locals(tree) == [("f", 2, "y")]


def test_no_dead_locals_in_the_package():
    found = [(path.name, *hit) for path in sorted(SRC.glob("*.py"))
             for hit in dead_locals(ast.parse(path.read_text(), str(path)))]
    assert found == []

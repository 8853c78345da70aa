"""The chain identity d∘φ_i vs φ_(i+1)∘d is written once, in
``ProjChainMap.sides``: no other function in ``src/jwcat`` multiplies a
``.diff(...)`` call by a ``.component(...)`` call, in either order. Every
other reader of the identity (validation, ``defect``, the ladder's chain
blocks, the intertwining block's homotopy term, ``witnesses`` and the
comparison lift) goes through ``sides``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jwcat"
HOME = ("complexes.py", "ProjChainMap", "sides")


def _calls(node, method):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == method)


def chain_products(tree):
    """(class, function, line) of each product of a ``.diff(...)`` call and
    a ``.component(...)`` call, with the innermost class and function that
    hold it (None outside one)."""
    found = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            pair = (node.left, node.right)
            if any(_calls(a, "diff") and _calls(b, "component")
                   for a, b in (pair, pair[::-1])):
                found.append((cls, fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def products_in_src():
    """(file, class, function, line) of each such product in ``src/jwcat``."""
    return [(path.name, cls, fn, line) for path in sorted(SRC.glob("*.py"))
            for cls, fn, line in chain_products(ast.parse(path.read_text()))]


def test_the_chain_identity_is_written_only_in_sides():
    found = products_in_src()
    assert [p for p in found if p[:3] != HOME] == []
    # both products of the identity, d∘φ_i and φ_(i+1)∘d
    assert len(found) == 2


def test_the_scan_sees_a_product_in_either_order():
    tree = ast.parse("def f(x, y, i):\n"
                     "    return x.diff(i) * y.component(i), y.component(i + 1) * x.diff(i)\n")
    assert chain_products(tree) == [(None, "f", 2), (None, "f", 2)]

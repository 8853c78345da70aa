"""Each tail rule is written once, on ``TailSpec``: no function in
``src/jwcat`` outside the class calls ``lcm`` (pattern agreement takes the
lcm of the periods in ``TailSpec.common``) or writes the two-period offset
2·period - 1 (``TailSpec.two_period_end``). A construction that needs
either calls the class."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jwcat"
HOME = ("complexes.py", "TailSpec")


def _is_two(node):
    return isinstance(node, ast.Constant) and node.value == 2


def _is_one(node):
    return isinstance(node, ast.Constant) and node.value == 1


def _is_period(node):
    """A name or attribute that holds a period: ``p``, ``period``,
    ``t.period``, ``climb_period`` and the like."""
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else ""
    return name == "p" or "period" in name


def _summands(node):
    """The terms of an addition chain a + b + ..."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _summands(node.left) + _summands(node.right)
    return [node]


def _two_period_offset(node):
    """Whether ``node`` is x + 2·p - 1 for a period p, with p·2 or with no
    x included."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and _is_one(node.right)
            and any(isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mult)
                    and any(_is_two(a) and _is_period(b)
                            for a, b in ((t.left, t.right), (t.right, t.left)))
                    for t in _summands(node.left)))


def _lcm_call(node):
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "lcm") or \
        (isinstance(f, ast.Attribute) and f.attr == "lcm")


def tail_rules(tree):
    """(rule, class, function, line) of each lcm call and each two-period
    offset, with the innermost class and function that hold it (None
    outside one)."""
    found = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif _lcm_call(node):
            found.append(("lcm", cls, fn, node.lineno))
        elif _two_period_offset(node):
            found.append(("two-period", cls, fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def rules_in_src():
    """(file, rule, class, function, line) of each one in ``src/jwcat``."""
    return [(path.name, *found) for path in sorted(SRC.glob("*.py"))
            for found in tail_rules(ast.parse(path.read_text()))]


def test_each_tail_rule_is_written_only_in_tailspec():
    found = rules_in_src()
    assert [f for f in found if (f[0], f[2]) != HOME] == []
    assert sorted((rule, fn) for _, rule, _, fn, _ in found) == [
        ("lcm", "common"), ("two-period", "two_period_end")]


def test_the_scan_sees_a_planted_rule():
    tree = ast.parse("import math\n"
                     "from math import lcm\n"
                     "def head(t, q0):\n"
                     "    return q0 + 2 * t.period - 1, (2 * t.period - 1)\n"
                     "class C:\n"
                     "    def f(self, p, q):\n"
                     "        return math.lcm(p, q), lcm(p, q), p * 2 + 3 - 1\n"
                     "    def g(self, p, k):\n"
                     "        return 2 * p + 2, 2 * p, p - 1, 2 * k - 1\n")
    assert tail_rules(tree) == [
        ("two-period", None, "head", 4), ("two-period", None, "head", 4),
        ("lcm", "C", "f", 7), ("lcm", "C", "f", 7), ("two-period", "C", "f", 7)]

"""Each reader takes what its input's construction certified, and derives it
no second time:

* D and P's lift read the repeats their inputs carry, so ``functors.py``
  and ``resolutions.py`` call no tail walker: none of ``_repeat_start``,
  ``_tail_break`` and ``_break_at`` (``_complexes_repeat`` is gone);
* ``LadderSystem._pattern`` is the families' common tail: it builds no
  pattern except through ``TailSpec.common``, and reads no tail's side,
  period or shift itself;
* ``verify.py`` writes no comparison order: ``_classes_agree`` takes two
  classes and compares them through the orders they hold, and
  ``_decategorification`` derives no order from the window N."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jwcat"
WALKERS = {"_complexes_repeat", "_repeat_start", "_tail_break", "_break_at"}
TAIL_FIELDS = {"side", "period", "shift", "start"}


def _names(node):
    """Every name ``node`` reads, calls or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name)
    return out


def _method(tree, cls, name):
    """The method ``name`` of the top-level class ``cls``."""
    body = next(n.body for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)


def walkers_named(tree):
    """The tail walkers a module reads, calls or imports."""
    return sorted(_names(tree) & WALKERS)


def pattern_rules(fn):
    """What a pattern function does besides ``TailSpec.common``: each
    ``TailSpec(...)`` construction and each tail field it reads; and
    whether it calls ``TailSpec.common`` at all."""
    found, common = [], False
    for n in ast.walk(fn):
        if isinstance(n, ast.Call):
            f = n.func
            if isinstance(f, ast.Name) and f.id == "TailSpec":
                found.append(("build", n.lineno))
            common |= (isinstance(f, ast.Attribute) and f.attr == "common"
                       and isinstance(f.value, ast.Name) and f.value.id == "TailSpec")
        elif isinstance(n, ast.Attribute) and n.attr in TAIL_FIELDS:
            found.append((n.attr, n.lineno))
    return found, common


def _mentions_N(node):
    return any(isinstance(n, ast.Name) and n.id == "N" for n in ast.walk(node))


def comparison_orders(tree):
    """(kind, line) of each comparison order ``tree`` writes: a
    ``_classes_agree`` defined or called with other than two classes, and an
    order derived from N, an N - c, inside ``_decategorification``."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.FunctionDef) and n.name == "_classes_agree" \
                and len(n.args.args) != 2:
            found.append(("parameter", n.lineno))
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                and n.func.id == "_classes_agree" and len(n.args) + len(n.keywords) != 2:
            found.append(("argument", n.lineno))
        elif isinstance(n, ast.FunctionDef) and n.name == "_decategorification":
            found += [("order", m.lineno) for m in ast.walk(n)
                      if isinstance(m, ast.BinOp) and isinstance(m.op, ast.Sub)
                      and isinstance(m.right, ast.Constant) and _mentions_N(m.left)]
    return found


def _tree(name):
    return ast.parse((SRC / name).read_text())


def test_functors_and_resolutions_walk_no_tail():
    assert walkers_named(_tree("functors.py")) == []
    assert walkers_named(_tree("resolutions.py")) == []


def test_the_ladder_pattern_is_the_common_tail():
    pattern = _method(_tree("complexes.py"), "LadderSystem", "_pattern")
    found, common = pattern_rules(pattern)
    assert found == [] and common


def test_verify_writes_no_comparison_order():
    assert comparison_orders(_tree("verify.py")) == []


def test_the_scans_see_a_planted_copy_of_each():
    walker = ast.parse("from .complexes import _break_at, TailSpec\n"
                       "def lift(t, r):\n"
                       "    return complexes._repeat_start(t, r.window(), bool)\n")
    assert walkers_named(walker) == ["_break_at", "_repeat_start"]
    pattern = ast.parse(
        "def _pattern(self):\n"
        "    kinds = {(f.tail.side, f.tail.period, f.tail.shift) for f in self.families}\n"
        "    return TailSpec(*kinds.pop()[:1], 0, 1, 2)\n")
    found, common = pattern_rules(pattern.body[0])
    assert sorted(found) == [("build", 3), ("period", 2), ("shift", 2), ("side", 2)]
    assert not common
    orders = ast.parse("def _classes_agree(x, y, order):\n"
                       "    return x == y\n"
                       "def _decategorification(self, N, got, want):\n"
                       "    o = min(order, 2 * N - 3)\n"
                       "    return _classes_agree(got, want, N - 6), o\n")
    assert sorted(comparison_orders(orders)) == [
        ("argument", 5), ("order", 4), ("order", 5), ("parameter", 1)]

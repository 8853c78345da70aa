"""An ``AlgMatrix`` is built once and never written afterwards, so a shift
shares its entry rows:

* a scan: outside ``AlgMatrix``'s constructors (``__init__`` and
  ``_trusted``), ``_Eliminator``, ``_drop`` and ``_replay``, no function in
  ``src/jwcat`` assigns into or deletes from ``.entries``, calls a list
  mutator on it, or assigns ``.entries``, ``.rows`` or ``.cols``. A name
  bound in a function from an expression that reads ``.entries`` (``row =
  m.entries[k]``, ``for row in m.entries``, element by element through
  ``zip`` and ``enumerate``) counts as ``.entries`` there;
* the arithmetic, ``submatrix``, ``shifted`` and ``from_sums`` leave their
  operands' entries as they were, and ``m.shifted(r).entries is m.entries``;
* the elimination writes only rows of its own: ``gaussian_reduce`` and
  ``reduce_on_window`` of a materialized or shifted tailed complex from the
  pool at N = 12, with its witnesses read, leave that complex and the one it
  was made from entry for entry as they were, although the copies of a
  materialized or shifted complex share their rows."""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from jwcat.complexes import (AlgMatrix, ProjComplex, RegimeError, Summand,
                             WindowTooSmall, gaussian_reduce, reduce_on_window)
from jwcat.exprs import FUNCTORS, OBJECT_ATOMS, _eval, parse
from jwcat.functors import Setup
from jwcat.quiver import AlgebraElement

SRC = Path(__file__).resolve().parents[1] / "src" / "jwcat"
WRITERS = {("AlgMatrix", "__init__"), ("AlgMatrix", "_trusted"), ("_Eliminator", None),
           (None, "_drop"), (None, "_replay")}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
FIELDS = {"entries", "rows", "cols"}
SETUP = Setup.create()
B = SETUP.B
WINDOW = (0, 12)


def _reads_entries(node, aliases) -> bool:
    return any((isinstance(n, ast.Attribute) and n.attr == "entries")
               or (isinstance(n, ast.Name) and n.id in aliases) for n in ast.walk(node))


def _bind(target, value, aliases) -> None:
    """Add to ``aliases`` the names ``target`` binds to what ``value``
    yields when iterated (or holds, when assigned) where that reads
    ``.entries``: the elements of a ``zip`` and the second of an
    ``enumerate`` one by one."""
    if isinstance(target, ast.Name):
        if _reads_entries(value, aliases):
            aliases.add(target.id)
        return
    if isinstance(target, (ast.Tuple, ast.List)) and isinstance(value, ast.Call) \
            and isinstance(value.func, ast.Name):
        if value.func.id == "zip" and len(value.args) == len(target.elts):
            for t, v in zip(target.elts, value.args):
                _bind(t, v, aliases)
            return
        if value.func.id == "enumerate" and len(target.elts) == 2:
            _bind(target.elts[1], value.args[0], aliases)
            return
    if isinstance(target, (ast.Tuple, ast.List, ast.Starred)):
        for n in ast.walk(target):
            if isinstance(n, ast.Name):
                _bind(n, value, aliases)


def _written(target, aliases) -> bool:
    """Whether assigning to or deleting ``target`` writes a matrix: a field
    of it, or an item of its entry rows."""
    if isinstance(target, ast.Attribute):
        return target.attr in FIELDS
    if isinstance(target, ast.Subscript):
        return _reads_entries(target.value, aliases)
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_written(t, aliases) for t in target.elts)
    return False


def _in_order(node):
    """``node`` and the nodes under it, each before its children, in the
    order of the source."""
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _in_order(child)


def _function_writes(fn) -> list[int]:
    """The lines at which ``fn`` writes a matrix, nested scopes included."""
    aliases: set[str] = set()
    lines = []
    for node in _in_order(fn):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                _bind(t, node.value, aliases)
        elif isinstance(node, (ast.For, ast.comprehension)):
            _bind(node.target, node.iter, aliases)
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS:
            targets = [ast.Subscript(value=node.func.value)] \
                if _reads_entries(node.func.value, aliases) else []
        else:
            continue
        if any(_written(t, aliases) for t in targets):
            lines.append(node.lineno)
    return lines


def matrix_writes(tree) -> list[tuple[str | None, str, int]]:
    """(class, function, line) of each write of a matrix in ``tree``, with
    the innermost class and the outermost function of that class, or of the
    module, that hold it."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend((cls, child.name, line) for line in _function_writes(child))

    visit(tree, None)
    return sorted(set(found), key=lambda f: f[2])


def _allowed(cls, fn) -> bool:
    return (cls, fn) in WRITERS or (cls, None) in WRITERS


def test_only_the_constructors_and_the_elimination_write_a_matrix():
    found = [(path.name, *f) for path in sorted(SRC.glob("*.py"))
             for f in matrix_writes(ast.parse(path.read_text()))]
    assert [f for f in found if not _allowed(f[1], f[2])] == []
    assert {(f[1], f[2]) for f in found} == {
        ("AlgMatrix", "__init__"), ("AlgMatrix", "_trusted"),
        ("_Eliminator", "eliminate"), (None, "_drop"), (None, "_replay")}


def test_the_scan_finds_a_planted_write():
    tree = ast.parse(
        "def cell(m, z):\n"
        "    m.entries[0][0] = z\n"                               # 2
        "def aliased(m, z):\n"
        "    row = m.entries[1]\n"
        "    row[2] = z\n"                                        # 5
        "def dropped(m):\n"
        "    del m.entries[0]\n"                                  # 7
        "    m.rows = ()\n"                                       # 8
        "def looped(m, z):\n"
        "    for i, row in enumerate(m.entries):\n"
        "        row[i] += z\n"                                   # 11
        "    for r in m.entries:\n"
        "        r.append(z)\n"                                   # 13
        "def own(m, z):\n"
        "    out = [[z] * len(m.cols) for _ in m.rows]\n"
        "    for row, o in zip(m.entries, out):\n"
        "        o[0] = row[0]\n"
        "    out[0].append(z)\n"
        "    return out\n"
        "class AlgMatrix:\n"
        "    def place(self, blk):\n"
        "        self.entries[0][:1] = blk.entries[0]\n")         # 22
    assert matrix_writes(tree) == [
        (None, "cell", 2), (None, "aliased", 5), (None, "dropped", 7),
        (None, "dropped", 8), (None, "looped", 11), (None, "looped", 13),
        ("AlgMatrix", "place", 22)]
    assert [f for f in matrix_writes(tree) if not _allowed(f[0], f[1])] == \
        matrix_writes(tree)


# ---------------------------------------------------------------------------
# the operations leave their operands as they were
# ---------------------------------------------------------------------------

summand_tuples = st.lists(st.builds(Summand, st.sampled_from(("1", "2")), st.integers(-2, 0)),
                          max_size=3).map(tuple)


def sandwiched_paths(row: Summand, col: Summand):
    return [p for p in B.basis if B.target(p) == row.vertex and B.source(p) == col.vertex
            and B.path_degree(p) == col.shift - row.shift]


@st.composite
def matrices(draw, rows, cols):
    return AlgMatrix(B, rows, cols, [[AlgebraElement(B, {p: draw(st.integers(-2, 2))
                                                         for p in sandwiched_paths(r, c)})
                                      for c in cols] for r in rows])


@st.composite
def operands(draw):
    rows, mid, cols = draw(summand_tuples), draw(summand_tuples), draw(summand_tuples)
    return draw(matrices(rows, mid)), draw(matrices(rows, mid)), draw(matrices(mid, cols))


def snapshot(m: AlgMatrix):
    """The summands, the entry row objects and their entries."""
    return m.rows, m.cols, [id(row) for row in m.entries], [list(row) for row in m.entries]


@settings(max_examples=100, deadline=None)
@given(operands(), st.integers(-3, 3), st.data())
def test_operations_leave_their_operands_unchanged(ops, r, data):
    x, y, z = ops
    before = [snapshot(m) for m in ops]
    keep_rows = data.draw(st.lists(st.sampled_from(range(len(x.rows))), max_size=3)
                          if x.rows else st.just([]))
    keep_cols = data.draw(st.lists(st.sampled_from(range(len(x.cols))), max_size=3)
                          if x.cols else st.just([]))
    made = [x + y, x - y, -x, x * z, x.scale(2), x.submatrix(keep_rows, keep_cols),
            AlgMatrix.from_sums(B, x.rows, x.cols, x.block(0, 0) + y.block(0, 0))]
    shift = x.shifted(r)
    assert [snapshot(m) for m in ops] == before
    assert shift.entries is x.entries
    assert shift.rows == tuple(s.shifted(r) for s in x.rows) and \
        shift.cols == tuple(s.shifted(r) for s in x.cols)
    assert made[-1] == made[0]
    operand_rows = {id(row) for m in ops for row in m.entries}
    assert not [row for m in made for row in m.entries if id(row) in operand_rows]


# ---------------------------------------------------------------------------
# the elimination writes only its own rows
# ---------------------------------------------------------------------------

def tailed_pool_complexes():
    """The tailed complexes among F(x) and G(F(x)) for the object atoms x and
    functors F, G, evaluated on (0, 12)."""
    out = []
    for atom in OBJECT_ATOMS:
        for f in FUNCTORS:
            for expr in [f"{f}({atom})"] + [f"{g}({f}({atom}))" for g in FUNCTORS]:
                try:
                    value = _eval(SETUP, parse(expr), WINDOW)
                except (WindowTooSmall, RegimeError):
                    continue
                if isinstance(value, ProjComplex) and value.tail is not None:
                    out.append((expr, value))
    return out


def complex_snapshot(c: ProjComplex):
    return dict(c.terms), {i: snapshot(d) for i, d in c.diffs.items()}


def read_witnesses(red):
    """F, G and h, which a reduction builds when they are first read."""
    return red.to_reduced, red.from_reduced, red.homotopy


def test_reductions_leave_shared_rows_unchanged():
    pool = tailed_pool_complexes()
    assert len(pool) == 20 and {c.tail.side for _, c in pool} == {"left", "right"}
    for expr, source in pool:
        lo, hi = source.window()
        p = source.tail.period
        for c in (source.materialize(lo - 2 * p, hi + 2 * p), source.shift(1, 0),
                  source.shift(-2, 1)):
            before = complex_snapshot(c), complex_snapshot(source)
            read_witnesses(gaussian_reduce(c))
            try:
                read_witnesses(reduce_on_window(c, WINDOW))
            except WindowTooSmall:
                pass
            assert (complex_snapshot(c), complex_snapshot(source)) == before, expr

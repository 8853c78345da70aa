"""No function in ``src/jwcat`` assigns a local name that nothing reads, takes
a parameter that nothing reads, and no import, at module level or in a
function, binds a name that nothing reads. No attribute is stored on an
object from outside its class unless some class declares it, and no attribute
a class declares goes unread in ``src``, ``tests``, ``demos`` or
``perfbench``, no function or method goes unreferenced there, and no
defaulted parameter goes unset by every call there. Every name the
package's ``__all__`` exports is bound in its ``__init__`` and, except
``__version__``, read by another of its modules. Every function annotated to
return ``Verdict`` calls ``_window_cut``. No ``assert`` statement states a
claim in the package, since ``python -O`` strips them, and no true division
``/`` appears outside ``linalg._div`` and three path joins. Every
identifier in double backquotes in a docstring of the package, and in
single backquotes in README.md outside its code blocks, is named by the
package's code, so that no document cites a name the code has dropped.

A name counts as read when its scope, or a function or comprehension nested
in it, loads it. Names declared ``global`` or ``nonlocal`` belong to another
scope, and ``_``-prefixed locals are deliberately unused. A module's
``__all__`` names and ``from __future__`` imports are read by their
definition. A parameter may go unread when it is ``self``, ``cls`` or
``_``-prefixed, or when a caller fixes the signature (``FIXED_SIGNATURES``).
"""

import ast
import builtins
import keyword
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "jwcat"
READERS = ("tests", "demos", "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
# (function, parameter) pairs whose signature a caller fixes: every check of
# ``verify._Runner`` is called as ``fn(details)`` by ``_Runner.check``
FIXED_SIGNATURES = {("_ck_after_duality", "details")}
# (class, method) pairs that a framework calls by name: argparse calls
# ``error`` on its parser
FRAMEWORK_OVERRIDES = {("_ArgumentParser", "error")}
# (function, parameter) pairs set from outside the scanned code: the
# ``jwcat`` console script calls ``cli.main()`` and leaves ``argv`` unset
CALLED_FROM_OUTSIDE = {("main", "argv")}
# (file, function) pairs that may hold a true division: the one coefficient
# division, and the three ``pathlib`` joins of ``fixtures``
ALLOWED_DIVISIONS = {("linalg.py", "_div"), ("fixtures.py", "_data_dir"),
                     ("fixtures.py", "load_fixture"),
                     ("fixtures.py", "write_bundled_fixtures")}


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


def unused_parameters(tree, fixed=frozenset()):
    """(function name, line, parameter) for each parameter of a function
    that neither the function nor a scope nested in it loads."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        loaded = loaded_names(fn)
        for arg in params:
            name = arg.arg
            if name in ("self", "cls") or name.startswith("_") \
                    or (fn.name, name) in fixed or name in loaded:
                continue
            found.append((fn.name, arg.lineno, name))
    return found


def loaded_names(scope):
    return {node.id for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def exported_names(tree):
    """The strings of the module's ``__all__``."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id == "__all__"
            for elt in node.value.elts}


def unbound_exports(tree):
    """The ``__all__`` names that nothing at the module's top level binds."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(exported_names(tree) - bound)


def test_the_scan_finds_an_unbound_export():
    tree = ast.parse("from .series import TruncatedSeries as TS\n"
                     "import os.path\n"
                     "def f():\n"
                     "    pass\n"
                     "__version__ = '0'\n"
                     "__all__ = ['TS', 'os', 'f', '__version__', 'Gone']\n")
    assert unbound_exports(tree) == ["Gone"]


def test_every_export_of_the_package_is_bound():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert exported_names(tree) and unbound_exports(tree) == []


def unused_exports(init_tree, module_trees):
    """The ``__all__`` names, ``__version__`` aside, that no module of the
    package other than ``__init__`` loads."""
    loaded = set().union(*(loaded_names(tree) for tree in module_trees))
    return sorted(exported_names(init_tree) - {"__version__"} - loaded)


def test_the_scan_finds_an_unused_export():
    init = ast.parse("from .m import Used, Alias\n"
                     "__version__ = '0'\n"
                     "__all__ = ['Used', 'Alias', '__version__']\n")
    module = ast.parse("class Used:\n"
                       "    pass\n"
                       "Alias = Used\n"
                       "def f():\n"
                       "    return Used()\n")
    assert unused_exports(init, [module]) == ["Alias"]


def test_every_export_of_the_package_is_used_by_it():
    init = ast.parse((SRC / "__init__.py").read_text())
    modules = [ast.parse(f.read_text()) for f in sorted(SRC.glob("*.py"))
               if f.name != "__init__.py"]
    assert unused_exports(init, modules) == []


def unread_imports(tree):
    """(scope name, line, bound name) for each name an import binds in the
    module's own scope or a function's that the scope never loads."""
    scopes = [("<module>", tree, exported_names(tree))]
    scopes += [(fn.name, fn, set()) for fn in ast.walk(tree)
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for name, scope, exported in scopes:
        loaded = loaded_names(scope) | exported
        for node in own_nodes(scope):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in loaded:
                    found.append((name, node.lineno, bound))
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


def test_the_scan_finds_an_unused_parameter():
    tree = ast.parse("class K:\n"
                     "    def m(self, a, _b, *args, c, **kw):\n"
                     "        return a, kw\n"
                     "    @classmethod\n"
                     "    def n(cls, d, fixed):\n"
                     "        return [d for _ in ()]\n"
                     "def f(x, y=1):\n"
                     "    def g(z):\n"
                     "        return x\n"
                     "    return lambda w: g\n")
    assert sorted(unused_parameters(tree, {("n", "fixed")})) == [
        ("f", 7, "y"), ("g", 8, "z"), ("m", 2, "args"), ("m", 2, "c")]


def test_no_unused_parameters_in_the_package():
    found = [(path.name, *hit) for path in sorted(SRC.glob("*.py"))
             for hit in unused_parameters(ast.parse(path.read_text(), str(path)),
                                          FIXED_SIGNATURES)]
    assert found == []


def test_the_scan_finds_an_unread_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "from .complexes import Complex, ProjComplex as PC\n"
                     "from .linalg import Matrix\n"
                     "__all__ = ['Matrix']\n"
                     "def f():\n"
                     "    import json\n"
                     "    from .series import quantum_two\n"
                     "    def g():\n"
                     "        return quantum_two, os\n"
                     "    return g, PC\n")
    assert unread_imports(tree) == [("<module>", 3, "Complex"), ("f", 7, "json")]


def test_no_unread_imports_in_the_package():
    found = [(path.name, *hit) for path in sorted(SRC.glob("*.py"))
             for hit in unread_imports(ast.parse(path.read_text(), str(path)))]
    assert found == []


def declared_attributes(trees):
    """attribute -> the first class that declares it: a name its body
    assigns, or an attribute a method stores on ``self`` or ``cls``."""
    declared = {}
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                for target in targets:
                    if isinstance(target, ast.Name):
                        declared.setdefault(target.id, cls.name)
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ("self", "cls")):
                    declared.setdefault(node.attr, cls.name)
    return declared


def undeclared_attribute_stores(trees):
    """(line, target) for each attribute stored that no class declares: a
    store from outside the object's class, attached as a patch. Attributes
    are matched by name, so a store of an attribute some class declares
    passes whatever the object."""
    declared = declared_attributes(trees)
    return [(node.lineno, ast.unparse(node)) for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and node.attr not in declared]


def unread_attributes(trees, readers):
    """(class, attribute) for each attribute a class of ``trees`` declares
    that no tree of ``trees`` or ``readers`` loads; dunder names are the
    language's."""
    loaded = {node.attr for tree in [*trees, *readers] for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted((cls, attr) for attr, cls in declared_attributes(trees).items()
                  if attr not in loaded and not attr.startswith("__"))


SYNTHETIC_ATTRIBUTES = ("class K:\n"
                        "    __slots__ = ('s',)\n"
                        "    level = 1\n"
                        "    def __init__(self):\n"
                        "        self.a, self.s = 1, 0\n"
                        "    @classmethod\n"
                        "    def make(cls):\n"
                        "        cls.made = True\n"
                        "def f(k, m):\n"
                        "    k.a = 2\n"
                        "    k.level = 3\n"
                        "    m.patch = 4\n"
                        "    return k.a, k.s, m.patch\n")


def test_the_scan_finds_an_undeclared_attribute_store():
    assert undeclared_attribute_stores([ast.parse(SYNTHETIC_ATTRIBUTES)]) == [(12, "m.patch")]


def test_the_scan_finds_an_unread_attribute():
    tree = ast.parse(SYNTHETIC_ATTRIBUTES)
    assert unread_attributes([tree], []) == [("K", "level"), ("K", "made")]
    assert unread_attributes([tree], [ast.parse("print(K.made, K().level)")]) == []


def package_trees():
    return [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]


def test_no_undeclared_attribute_stores_in_the_package():
    assert undeclared_attribute_stores(package_trees()) == []


def reader_trees():
    return [ast.parse(path.read_text(), str(path))
            for folder in READERS for path in sorted((ROOT / folder).glob("*.py"))]


def test_every_declared_attribute_is_read():
    assert unread_attributes(package_trees(), reader_trees()) == []


def unreferenced_functions(trees, readers, exempt=frozenset()):
    """(scope name, function name) for each function or method of ``trees``
    that no name or attribute loaded in ``trees`` or ``readers`` references;
    dunder methods are the language's, and ``exempt`` (scope, function) pairs
    a framework calls."""
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in [*trees, *readers] for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load)}
    found = []
    for tree in trees:
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.Module, ast.ClassDef,
                                      ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = getattr(scope, "name", "<module>")
            for fn in scope.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and fn.name not in loaded
                        and not fn.name.startswith("__") and (name, fn.name) not in exempt):
                    found.append((name, fn.name))
    return sorted(found)


def test_the_scan_finds_an_unreferenced_function():
    tree = ast.parse("def used():\n"
                     "    return 1\n"
                     "def unused():\n"
                     "    return used()\n"
                     "class K:\n"
                     "    def __repr__(self):\n"
                     "        return ''\n"
                     "    def read(self):\n"
                     "        return self\n"
                     "    def hook(self):\n"
                     "        return 0\n"
                     "    def dead(self):\n"
                     "        def inner():\n"
                     "            return 0\n"
                     "        return 0\n")
    readers = [ast.parse("K().read()")]
    assert unreferenced_functions([tree], readers, {("K", "hook")}) == [
        ("<module>", "unused"), ("K", "dead"), ("dead", "inner")]


def test_every_function_is_referenced():
    assert unreferenced_functions(package_trees(), reader_trees(),
                                  FRAMEWORK_OVERRIDES) == []


def call_settings(trees):
    """called name -> (the most positional arguments of any call, the
    keywords any call passes), or None when a call unpacks ``*`` or ``**``
    and so may set any parameter. A call is named by its function: a bare
    name, or the attribute of a method call."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None or (name in found and found[name] is None):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords):
                found[name] = None
                continue
            most, keywords = found.get(name, (0, set()))
            found[name] = (max(most, len(node.args)), keywords | {k.arg for k in node.keywords})
    return found


def unset_defaults(trees, readers, exempt=frozenset()):
    """(function name, parameter) for each defaulted parameter of a function
    of ``trees`` that no call in ``trees`` or ``readers`` sets, by keyword or
    positionally. Calls are matched by name (``call_settings``); a method's
    positions start after ``self`` or ``cls``, and a class's ``__init__`` and
    ``__new__`` are called by the class's name. ``exempt`` (function,
    parameter) pairs are set from outside the scanned code."""
    settings_by_name = call_settings([*trees, *readers])
    found = []
    for tree in trees:
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.Module, ast.ClassDef,
                                      ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_class = isinstance(scope, ast.ClassDef)
            for fn in scope.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                offset = 1 if in_class and not static else 0
                called = scope.name if in_class and fn.name in ("__init__", "__new__") \
                    else fn.name
                setting = settings_by_name.get(called, (0, set()))
                if setting is None:
                    continue
                most, keywords = setting
                positional = fn.args.posonlyargs + fn.args.args
                defaulted = [(arg, pos - offset) for pos, arg in enumerate(positional)
                             ][len(positional) - len(fn.args.defaults):]
                defaulted += [(arg, None) for arg, default
                              in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                              if default is not None]
                for arg, pos in defaulted:
                    if (arg.arg not in keywords and (pos is None or most <= pos)
                            and (fn.name, arg.arg) not in exempt):
                        found.append((fn.name, arg.arg))
    return sorted(found)


def test_the_scan_finds_an_unset_default():
    tree = ast.parse("def f(x, y=1, z=2, *, w=3):\n"
                     "    return x, y, z, w\n"
                     "def g(a=0):\n"
                     "    return a\n"
                     "def h(b=0):\n"
                     "    return b\n"
                     "class K:\n"
                     "    def __init__(self, k=0):\n"
                     "        self.k = k\n"
                     "    def m(self, u, v=0):\n"
                     "        return u, v\n"
                     "    @staticmethod\n"
                     "    def s(p, q=0):\n"
                     "        return p, q\n"
                     "class N:\n"
                     "    def __new__(cls, n, o=0, t=0):\n"
                     "        return object.__new__(cls)\n"
                     "f(1, 2)\n"
                     "h(*[])\n"
                     "K().m(1)\n"
                     "K.s(1, 2)\n"
                     "N(1, 2)\n")
    readers = [ast.parse("from m import K\nK(k=1)\nf(0, w=1)\n")]
    assert unset_defaults([tree], readers) == [
        ("__new__", "t"), ("f", "z"), ("g", "a"), ("m", "v")]
    assert unset_defaults([tree], readers, {("g", "a")}) == [
        ("__new__", "t"), ("f", "z"), ("m", "v")]


def test_every_default_is_set_by_some_call():
    assert unset_defaults(package_trees(), reader_trees(), CALLED_FROM_OUTSIDE) == []


def assert_statements(tree):
    """The line of every ``assert`` statement. ``python -O`` strips them, so a
    claim stated as one would pass under that flag whatever it found."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_the_scan_finds_an_assert_statement():
    tree = ast.parse("def f(x):\n"
                     "    assert x, 'x'\n"
                     "    _require(x, 'assert x')\n"
                     "    if x:\n"
                     "        assert not x\n"
                     "    return AssertionError\n")
    assert assert_statements(tree) == [2, 5]


def test_no_assert_statements_in_the_package():
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in assert_statements(ast.parse(path.read_text(), str(path)))]
    assert found == []


def true_divisions(tree):
    """(enclosing function, line) of every ``/`` and ``/=``; "<module>"
    outside any function. On two int coefficients ``/`` gives a float, so
    every coefficient divides through ``linalg._div``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append((scope, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else scope)

    visit(tree, "<module>")
    return found


def test_the_scan_finds_a_true_division():
    tree = ast.parse("def f(x, y):\n"
                     "    z = x // y\n"
                     "    z /= 2\n"
                     "    g = lambda w: w / y\n"
                     "    return z, g\n"
                     "half = 1 / 2\n")
    assert true_divisions(tree) == [("f", 3), ("f", 4), ("<module>", 6)]


def test_no_true_division_in_the_package_outside_the_one_division():
    found = [(path.name, *hit) for path in sorted(SRC.glob("*.py"))
             for hit in true_divisions(ast.parse(path.read_text(), str(path)))
             if (path.name, hit[0]) not in ALLOWED_DIVISIONS]
    assert found == []


def decisions_without_window_cut(tree):
    """(name, line) of each function annotated to return ``Verdict`` that
    never calls ``_window_cut``: every decision reads the one window rule."""
    return [(fn.name, fn.lineno) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.returns is not None and ast.unparse(fn.returns).strip("'\"") == "Verdict"
            and not any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_window_cut" for node in ast.walk(fn))]


def test_the_scan_finds_a_decision_without_the_window_rule():
    tree = ast.parse("def cut(window) -> Verdict | None:\n"
                     "    return None\n"
                     "def good(x, window) -> Verdict:\n"
                     "    return _window_cut(window, x) or Verdict('true')\n"
                     "def bad(x, window) -> 'Verdict':\n"
                     "    return Verdict('true')\n"
                     "def other(x, window) -> bool:\n"
                     "    return True\n")
    assert decisions_without_window_cut(tree) == [("bad", 5)]


def test_every_decision_reads_the_window_rule():
    trees = package_trees()
    decisions = {fn.name for tree in trees for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.returns is not None
                 and ast.unparse(fn.returns) == "Verdict"}
    assert {"iso_in_homotopy_category", "maps_agree_under_identification",
            "chain_maps_homotopic"} <= decisions
    assert [hit for tree in trees for hit in decisions_without_window_cut(tree)] == []


def code_names(trees):
    """Every identifier the code of ``trees`` names: each name it binds or
    reads, attribute, function, class, parameter, keyword argument and
    import, and each string constant that is an identifier, such as a
    command name; with Python's builtins and keywords."""
    names = set(dir(builtins)) | set(keyword.kwlist)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.update((node.asname or node.name).split("."))
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names.add(node.value)
    return names


def stale_doc_names(trees, readme):
    """(file, name) for each identifier, dotted or not, in double backquotes
    in a docstring of ``trees`` (file name -> tree) or in single backquotes
    in ``readme`` outside its code blocks, with a part that the code of
    ``trees`` does not name and that is neither ``jwcat`` nor one of its
    modules."""
    known = code_names(trees.values()) | {"jwcat"} | {Path(name).stem for name in trees}
    cited = [(name, text) for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
             and (doc := ast.get_docstring(node))
             for text in re.findall(r"``([^`]+)``", doc)]
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    cited += [("README.md", text) for text in re.findall(r"`([^`\n]+)`", prose)]
    return sorted({(name, text) for name, text in cited
                   if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", text)
                   and not set(text.split(".")) <= known})


def test_the_scan_finds_a_stale_doc_name():
    tree = ast.parse('"""Reads ``walk.kept`` and ``f(x)``."""\n'
                     "def walk(kept):\n"
                     '    """``kept`` as cut by ``_gone``, or ``None``."""\n'
                     "    return kept\n")
    readme = ("`jwcat.m.walk` and `m.walk(x)`, not `_old` or `walk._old`\n"
              "```\n`_in_a_code_block`\n```\n")
    assert stale_doc_names({"m.py": tree}, readme) == [
        ("README.md", "_old"), ("README.md", "walk._old"), ("m.py", "_gone")]


def test_every_doc_name_is_named_by_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert stale_doc_names(trees, (ROOT / "README.md").read_text()) == []

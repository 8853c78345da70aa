"""In-memory span tracer that wraps jwcat's public functions from outside.

Nothing inside ``jwcat`` is edited. ``Tracer.install`` replaces each traced
function by a wrapper in every ``jwcat`` module namespace that holds it (a
name imported with ``from .x import f`` is a separate binding in each
importing module, so all of them are rebound) and each traced method on its
class. ``Tracer.uninstall`` puts the originals back.

A span is (name, start, end, parent span, job id). Spans live in flat arrays
until the run ends; self time is a span's duration minus the durations of its
direct children (calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict


def _count_rref(tr, args, kwargs):
    m = args[0]
    tr.counts["linalg.Matrix.rref.cells"] += m.nrows * m.ncols
    tr.counts["linalg.Matrix.rref.nonzeros"] += sum(
        1 for row in m.data for x in row if x)


def _count_apply(tr, args, kwargs):
    m = args[0]
    tr.counts["linalg.Matrix.apply.cells"] += m.nrows * m.ncols


def _unknowns(key):
    def count(tr, args, kwargs):
        nuk = args[1] if len(args) > 1 else kwargs["nuk"]
        tr.counts[key] += nuk
    return count


def _count_reduce_in(tr, args, kwargs):
    c = args[0] if args else kwargs["c"]
    tr.counts["complexes.gaussian_reduce.summands_in"] += c.summand_count()


def _count_reduce_out(tr, result):
    tr.counts["complexes.gaussian_reduce.summands_out"] += \
        result.reduced.summand_count()


def _count_iso_verdict(tr, result):
    if result.value == "inconclusive":
        tr.counts["complexes.iso_in_homotopy_category.inconclusive"] += 1


# (module, attribute path, count before the call, count of the result).
SPANS = (
    ("linalg", "Matrix.rref", _count_rref, None),
    ("linalg", "Matrix.apply", _count_apply, None),
    ("linalg", "kernel_from_columns",
     _unknowns("linalg.kernel_from_columns.unknowns"), None),
    ("linalg", "solve_from_columns",
     _unknowns("linalg.solve_from_columns.unknowns"), None),
    ("modules", "tensor_with_bimodule", None, None),
    ("modules", "hom_space", None, None),
    ("modules", "find_module_iso", None, None),
    ("modules", "apply_pi", None, None),
    ("resolutions", "resolve_complex", None, None),
    ("resolutions", "projective_resolution", None, None),
    ("complexes", "gaussian_reduce", _count_reduce_in, _count_reduce_out),
    ("complexes", "total_complex", None, None),
    ("complexes", "iso_in_homotopy_category", None, _count_iso_verdict),
    ("complexes", "maps_agree_under_identification", None, None),
    ("complexes", "solve_chain_maps", None, None),
    ("complexes", "solve_homotopy", None, None),
    ("functors", "P_on_object", None, None),
    ("functors", "P_on_module_map", None, None),
    ("functors", "lift_through_resolutions", None, None),
    ("functors", "koszul_D_on_object", None, None),
    ("functors", "koszul_D_on_map", None, None),
    ("functors", "CK_on_object", None, None),
    ("functors", "CK_on_map", None, None),
    ("kclass", "euler_class", None, None),
    ("exprs", "evaluate", None, None),
)

# Spans whose ``WindowTooSmall`` exits are counted as ``<span>.inconclusive``.
COUNT_WINDOW_TOO_SMALL = ("functors.CK_on_object",)

# Counted constructor calls, no span.
CONSTRUCTORS = (("quiver", "AlgebraElement", "quiver.AlgebraElement.created"),)

# Counters that exist for every workload, even when they stay at zero.
EXTRA_COUNTS = (
    "linalg.Matrix.rref.cells", "linalg.Matrix.rref.nonzeros",
    "linalg.Matrix.apply.cells", "linalg.kernel_from_columns.unknowns",
    "linalg.solve_from_columns.unknowns", "quiver.AlgebraElement.created",
    "complexes.gaussian_reduce.summands_in",
    "complexes.gaussian_reduce.summands_out",
    "complexes.iso_in_homotopy_category.inconclusive",
    "functors.CK_on_object.inconclusive",
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _pre, _post in SPANS)


def _jwcat_modules():
    for modname, mod in sorted(sys.modules.items()):
        if mod is not None and (modname == "jwcat" or modname.startswith("jwcat.")):
            yield modname, mod


def _jwcat_namespaces():
    """Every module namespace and class namespace defined inside jwcat."""
    for modname, mod in _jwcat_modules():
        yield modname, vars(mod)
        for attr, val in list(vars(mod).items()):
            if isinstance(val, type) and val.__module__ == modname:
                yield f"{modname}.{attr}", val.__dict__


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._undo: list = []
        self._originals: dict[str, object] = {}
        self.rebound: dict[str, list[str]] = {}

    # --- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, pre, post):
        name_id = len(self.span_names)
        self.span_names.append(name)
        stack = self._stack
        clock = time.perf_counter
        window_too_small = (importlib.import_module("jwcat.complexes").WindowTooSmall
                            if name in COUNT_WINDOW_TOO_SMALL else ())
        inconclusive_key = f"{name}.inconclusive"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args, kwargs)
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.job_of.append(self.job)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except window_too_small:
                self.counts[inconclusive_key] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if post is not None:
                post(self, result)
            return result

        return traced

    def _counting_init(self, key: str, init):
        counts = self.counts

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)
        return __init__

    # --- installation -----------------------------------------------------

    def install(self):
        """Rebind every traced name in every jwcat namespace that holds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod, path, pre, post in SPANS:
            name = f"{mod}.{path}"
            owner = importlib.import_module(f"jwcat.{mod}")
            if "." in path:                     # a method, patched on its class
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, pre, post))
                self.rebound[name] = [f"jwcat.{mod}.{cls_name}"]
            else:
                orig = getattr(owner, path)
                wrapper = self._wrap(name, orig, pre, post)
                where = []
                for modname, module in _jwcat_modules():
                    for attr, val in list(vars(module).items()):
                        if val is orig:
                            self._set(module, attr, wrapper)
                            where.append(modname if attr == path
                                         else f"{modname} as {attr}")
                self.rebound[name] = sorted(where)
            self._originals[name] = orig
        for mod, cls_name, key in CONSTRUCTORS:
            cls = getattr(importlib.import_module(f"jwcat.{mod}"), cls_name)
            orig = cls.__dict__["__init__"]
            self._set(cls, "__init__", self._counting_init(key, orig))
            self._originals[key] = orig
        for key in EXTRA_COUNTS:
            self.counts.setdefault(key, 0)

    def _set(self, target, attr, value):
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self):
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def leaks(self) -> list[str]:
        """Namespaces that still hold an unwrapped original while installed.

        Empty means no call can go around a wrapper through a jwcat module or
        class attribute.
        """
        out = []
        originals = {id(v): k for k, v in self._originals.items()}
        for where, ns in _jwcat_namespaces():
            for attr, val in ns.items():
                if id(val) in originals:
                    out.append(f"{where}.{attr} -> {originals[id(val)]}")
        return out

    # --- results ----------------------------------------------------------

    def summary(self) -> dict[str, int | float]:
        """``<span>.calls`` and ``<span>.self_s`` for every traced span, plus
        the extra counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.span_names[self.name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        out: dict[str, int | float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(sorted(self.counts.items()))
        return out

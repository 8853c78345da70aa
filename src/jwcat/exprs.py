"""A small expression language over the functors and standard objects.

    D(P(1))     CK(D(P(2)))     P(P(1))     D(P(c))     P(2)<1>[2]

Object atoms: P(1), P(2), L(1), L(2), I(2). Morphism atoms: c, a, b, e(1),
e(2) (the generator maps between shifted projectives). Functors: P, D, CK.
Shift suffixes <r> (internal) and [s] (homological) apply to object-valued
subexpressions. Parse errors carry the offending position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .complexes import (ProjComplex, ProjChainMap, WindowTooSmall,
                        gaussian_reduce, reduce_on_window)
from .functors import (CK_on_map, CK_on_object, P_on_module_map, P_on_object,
                       Setup, koszul_D_on_map, koszul_D_on_object,
                       projector_depth)
from .kclass import KClass, class_of_module, euler_class
from .modules import (GradedModule, ModuleHom, left_multiplication_hom,
                      projective)
from .series import WindowError


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")


OBJECT_ATOMS = ("P(1)", "P(2)", "L(1)", "L(2)", "I(2)")
MAP_ATOMS = ("e(1)", "e(2)", "c", "a", "b")
FUNCTORS = ("CK", "D", "P")

# the names longest first, so that P(1) is read before the functor P
_TOKEN = re.compile(r"\s*(%s|\(|\)|<-?\d+>|\[-?\d+\])" % "|".join(
    map(re.escape, sorted(OBJECT_ATOMS + MAP_ATOMS + FUNCTORS, key=len, reverse=True))))


@dataclass
class Node:
    kind: str                  # "obj" | "map" | "apply"
    name: str
    child: "Node | None" = None
    shifts: tuple = ()         # sequence of ("<", r) / ("[", s)


def tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, what: str):
        tok, pos = self.next()
        if tok != what:
            raise ParseError(f"expected {what!r}, found {tok!r}", pos)

    def parse(self) -> Node:
        node = self.parse_atom()
        tok, pos = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok!r}", pos)
        return node

    def parse_atom(self) -> Node:
        tok, pos = self.next()
        if tok is None:
            raise ParseError("unexpected end of expression", pos)
        if tok in OBJECT_ATOMS:
            return Node("obj", tok, shifts=self.parse_shifts())
        if tok in MAP_ATOMS:
            return Node("map", tok)
        if tok in FUNCTORS:
            self.expect("(")
            inner = self.parse_atom()
            self.expect(")")
            return Node("apply", tok, inner, shifts=self.parse_shifts())
        raise ParseError(f"unexpected token {tok!r}", pos)

    def parse_shifts(self) -> tuple:
        shifts = []
        while True:
            tok, _pos = self.peek()
            if tok is None or not (tok.startswith("<") or tok.startswith("[")):
                break
            self.next()
            if tok.startswith("<"):
                shifts.append(("<", int(tok[1:-1])))
            else:
                shifts.append(("[", int(tok[1:-1])))
        return tuple(shifts)


def parse(text: str) -> Node:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class ObjectValue:
    complex: ProjComplex
    reduced: ProjComplex
    kclass: KClass | None


@dataclass
class MapValue:
    chain_map: ProjChainMap | ModuleHom


def _object_to_projcomplex(setup: Setup, name: str) -> ProjComplex | GradedModule:
    if name in ("P(1)", "P(2)"):
        return ProjComplex.from_summand(setup.B, name[2], 0, name=name)
    return setup.standard_module(name)


def evaluate(setup: Setup, node: Node, window: tuple[int, int],
             order: int) -> ObjectValue | MapValue:
    val = _eval(setup, node, window)
    if isinstance(val, (ProjChainMap, ModuleHom)):
        return MapValue(val)
    if isinstance(val, GradedModule):
        pc = ProjComplexify(setup, val)
        red = gaussian_reduce(pc).reduced
        decategorify = class_of_module
    else:
        pc = val
        # a bounded complex is kept on its own window, a tail side to ±window[1]
        lo, hi = pc.window()
        if pc.tail is not None:
            lo, hi = (lo, window[1]) if pc.tail.outward > 0 else (-window[1], hi)
            if lo > hi:   # a reduction that keeps nothing reads as zero
                raise WindowTooSmall(f"{pc.name} has no stored degree in "
                                     f"({-window[1]}, {window[1]}); enlarge the window")
        red = reduce_on_window(pc, (lo, hi)).reduced
        decategorify = euler_class
    try:
        kc = decategorify(val, order)
    except WindowError:   # the order leaves the class no validity window
        kc = None
    return ObjectValue(pc, red, kc)


def _eval(setup: Setup, node: Node, window: tuple[int, int]):
    if node.kind == "obj":
        base = _object_to_projcomplex(setup, node.name)
        return _apply_shifts(setup, base, node.shifts)
    if node.kind == "map":
        z, src, tgt = setup.generator_maps()[node.name]
        return left_multiplication_hom(src, tgt, z, node.name)
    if node.kind == "apply":
        inner = _eval(setup, node.child, window)
        if isinstance(inner, (ProjChainMap, ModuleHom)):
            return _apply_functor_to_map(setup, node.name, inner, window, node.shifts)
        return _apply_functor_to_object(setup, node.name, inner, window, node.shifts)
    raise ParseError(f"unknown node kind {node.kind}", 0)


def _apply_shifts(setup: Setup, val, shifts):
    for kind, r in shifts:
        if isinstance(val, GradedModule):
            if kind == "<":
                val = val.shift(r)
            else:
                val = ProjComplexify(setup, val).shift(0, r)
        else:
            val = val.shift(r, 0) if kind == "<" else val.shift(0, r)
    return val


def ProjComplexify(setup: Setup, m: GradedModule) -> ProjComplex:
    """A formal-projective model of a module: the module itself when it is a
    shifted indecomposable projective, else its minimal resolution."""
    lo = min(m.degrees())
    for v in ("1", "2"):
        if m == projective(setup.B, v).shift(lo):
            return ProjComplex.from_summand(setup.B, v, lo, name=m.name)
    from .resolutions import projective_resolution
    return projective_resolution(m, 8)


def _apply_functor_to_object(setup: Setup, fname: str, inner, window, shifts):
    if fname == "P":
        out = P_on_object(setup, inner, depth=projector_depth(window))
    elif fname == "D":
        tailed = isinstance(inner, ProjComplex) and inner.tail is not None
        out = koszul_D_on_object(setup, inner, out_window=window if tailed else None)
    elif fname == "CK":
        pc = inner if isinstance(inner, ProjComplex) else ProjComplexify(setup, inner)
        out = CK_on_object(setup, pc, out_window=window)
    else:
        raise ParseError(f"unknown functor {fname}", 0)
    return _apply_shifts(setup, out, shifts)


def _apply_functor_to_map(setup: Setup, fname: str, f, window, shifts):
    if shifts:
        raise ParseError("shift suffixes apply to objects, not morphisms", 0)
    if fname == "P":
        if not isinstance(f, ModuleHom):
            raise ParseError("the projector acts on module maps", 0)
        return P_on_module_map(setup, f, depth=projector_depth(window))
    if fname == "D":
        return koszul_D_on_map(setup, f, out_window=window)
    if fname == "CK":
        if not isinstance(f, ProjChainMap):
            raise ParseError("the topological projector acts on formal chain maps", 0)
        return CK_on_map(setup, f, out_window=window)
    raise ParseError(f"unknown functor {fname}", 0)


def render_value(val: ObjectValue | MapValue) -> str:
    if isinstance(val, MapValue):
        cm = val.chain_map
        if isinstance(cm, ProjChainMap):
            lines = [f"chain map {cm.name}:",
                     f"  source: {cm.source.pretty()}",
                     f"  target: {cm.target.pretty()}"]
            for i, m in sorted(cm.maps.items()):
                if not m.is_zero():
                    lines.append(f"  component [{i}]: {m!r}")
        else:   # module-level generator map
            lines = [f"module map {cm.name}:",
                     f"  source: {cm.source.name}",
                     f"  target: {cm.target.name}"]
        return "\n".join(lines)
    lines = [f"complex: {val.complex.pretty()}"]
    if isinstance(val.reduced, ProjComplex) and val.reduced.terms != val.complex.terms:
        lines.append(f"reduced: {val.reduced.pretty()}")
    if val.kclass is not None:
        lines.append(f"class:   {val.kclass.render()}")
    return "\n".join(lines)

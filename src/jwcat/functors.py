"""The four functors on complexes: the derived projector (section functor
composed with the derived inclusion), the Koszul-type duality functor, the
translation-bimodule tensor, and the semi-infinite topological projector.

Conventions carried over from the rest of the package:

* right modules, cohomological differentials, internal shift <r> moves
  degrees up by r;
* the duality functor reads a module-level complex and emits a formal
  complex of projectives: the basis vector m of bidegree (r, s) with vertex
  label v contributes a summand P(DUAL_VERTEX[v])<-s> in homological
  degree r+s, and the differential combines the scalar part of d with the
  two staircase arrows, weighted by (-1)^(r+s);
* tensoring with the translation bimodule never needs resolutions (it is
  exact), so the topological projector is a totalization of an explicitly
  built bicomplex;
* a map enters each functor as itself and leaves it as one ``ProjChainMap``,
  whose ``source`` and ``target`` are the object functor's images: the
  projector takes a degree-0 ``ModuleHom``, the duality functor a degree-0
  ``ModuleHom`` or a ``ProjChainMap`` (as it takes a module or a formal
  complex on objects), the topological projector a ``ProjChainMap``. Each
  takes maps of degree 0 and refuses a homotopy. The duality functor reads
  a map off its image of the map's mapping cone, and each map functor
  computes its components through one head or period, copies the rest and
  checks the chain identity where it reads a computed component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import (LEFT_TAIL, RIGHT_TAIL, AlgMatrix, Complex,
                        LadderFamily, LadderSystem, ProjBicomplex,
                        ProjChainMap, ProjComplex, Reduction, RegimeError,
                        Summand, TailSpec, WindowTooSmall, attach_tail,
                        gaussian_reduce, realize, shift_summands,
                        total_complex, total_layout,
                        _alg_matrix_to_hom, _copy_outward, _mat_coords)
from .linalg import Matrix, solve_from_columns
from .modules import (C_TO_B, DUAL_VERTEX, PI_SHIFT, GradedModule, ModuleHom,
                      apply_pi, apply_pi_hom, projective, simple, injective2)
from .quiver import (STRUCTURE_MAPS, AlgebraElement, ConstructionError, Path,
                     PathAlgebra, build_B, build_C, structure_map_on_column)
from .resolutions import resolve_complex


@dataclass
class Setup:
    """The fixed ambient data: the two-vertex algebra, its small quotient
    endomorphism algebra, the formal columns of the projector complex,
    derived once (``_ck_columns``), and the standard modules and generator
    maps, built once. Every value is shared by every caller, which nothing
    may mutate."""
    B: PathAlgebra
    C: PathAlgebra
    ck_parts: dict = field(init=False, repr=False, compare=False)
    ck_degrees: dict = field(init=False, repr=False, compare=False)
    ck_blocks: dict = field(init=False, repr=False, compare=False)
    modules: dict = field(init=False, repr=False, compare=False)
    maps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        B = self.B
        self.ck_parts, self.ck_degrees, self.ck_blocks = _ck_columns(B)
        P1, P2 = projective(B, "1"), projective(B, "2")
        self.modules = {"P(1)": P1, "P(2)": P2, "L(1)": simple(B, "1"),
                        "L(2)": simple(B, "2"), "I(2)": injective2(B)}
        self.maps = {
            "c": (B.path_element(("a", "b")), P2.shift(2), P2),
            "a": (B.arrow_element("a"), P1.shift(1), P2),
            "b": (B.arrow_element("b"), P2.shift(1), P1),
            "e(1)": (B.idempotent("1"), P1, P1),
            "e(2)": (B.idempotent("2"), P2, P2),
        }

    @classmethod
    def create(cls) -> Setup:
        return cls(B=build_B(), C=build_C())

    def standard_modules(self) -> dict[str, GradedModule]:
        """The five standard modules, in the order reports list them."""
        return self.modules

    def standard_module(self, name: str) -> GradedModule:
        return self.modules[name]

    def generator_maps(self) -> dict[str, tuple[AlgebraElement, GradedModule,
                                                GradedModule]]:
        """The five generator maps, left multiplication between shifted
        projectives, as (element, source, target) in the order reports list
        them."""
        return self.maps


# ---------------------------------------------------------------------------
# the projector: section functor, derived inclusion
# ---------------------------------------------------------------------------

def iota_translate(setup: Setup, freeC: ProjComplex) -> ProjComplex:
    """The inclusion functor on free complexes, read off ``modules.C_TO_B``:
    each free summand <r> becomes P(2)<r+1>, the degree-2 generator becomes
    the loop. Each distinct entry and summand is translated once
    (``_Iota``): a degree the tail copied (``AlgMatrix.shifted``) shares its
    entry objects with the degree it copies, so it only relabels its
    summands. Unchecked: across the ring isomorphism e(2)·B·e(2) ≅ C, d∘d
    and the tail seam hold over B exactly when they hold on ``freeC``,
    where ``resolve_complex`` checked them."""
    iota = _Iota(setup.B)
    return ProjComplex(setup.B, {i: iota.summands(t) for i, t in freeC.terms.items()},
                       {i: iota.matrix(d) for i, d in freeC.diffs.items()},
                       freeC.tail, f"ι({freeC.name})", validate=False)


class _Iota:
    """ι's C -> B translation for one call: a summand <r> goes to P(2)<r+1>
    and an entry's scalar part onto e(2), x onto the loop. Each summand and
    each entry object is translated once; the table keeps every entry it
    has read, so no other object takes its id while it lives."""

    def __init__(self, B: PathAlgebra):
        self.B = B
        self._summands: dict[Summand, Summand] = {}
        self._entries: dict[int, tuple[AlgebraElement, AlgebraElement]] = {}

    def summands(self, term: tuple[Summand, ...]) -> tuple[Summand, ...]:
        out = []
        for s in term:
            t = self._summands.get(s)
            if t is None:
                t = self._summands[s] = Summand(C_TO_B[Path((), s.vertex)].vertex,
                                                s.shift + PI_SHIFT)
            out.append(t)
        return tuple(out)

    def entry(self, z: AlgebraElement) -> AlgebraElement:
        hit = self._entries.get(id(z))
        if hit is None:
            hit = self._entries[id(z)] = (z, self.B.element(
                {dst: z.coefficient(src) for src, dst in C_TO_B.items()}))
        return hit[1]

    def matrix(self, m: AlgMatrix) -> AlgMatrix:
        return AlgMatrix._trusted(self.B, self.summands(m.rows), self.summands(m.cols),
                                  [[self.entry(z) for z in row] for row in m.entries])


def _as_module_complex(x) -> Complex:
    if isinstance(x, GradedModule):
        return Complex.from_module(x)
    if isinstance(x, ProjComplex):
        return realize(x)
    if isinstance(x, Complex):
        return x
    raise TypeError(f"cannot interpret {x!r} as a complex")


def projector_depth(window: tuple[int, int]) -> int:
    """How far ``P_on_object`` and ``P_on_module_map`` resolve for a caller
    that reads P on ``window``: hi - lo + 6, the projector depth of
    "Windows and margins" in the ``complexes`` module docstring."""
    lo, hi = window
    return hi - lo + 6


def _section_resolution(setup: Setup, Y: Complex, depth: int
                        ) -> tuple[ProjComplex, dict[int, ModuleHom]] | None:
    """P's section-and-resolve step for objects and maps alike: π termwise,
    then ``resolve_complex`` over C; None when π(Y) is zero."""
    piY = Complex(setup.C,
                  {i: apply_pi(m, setup.C) for i, m in Y.terms.items()},
                  {i: apply_pi_hom(d, setup.C) for i, d in Y.diffs.items()},
                  Y.tail, f"π({Y.name})", validate=True)
    return None if piY.is_zero() else resolve_complex(piY, depth)


def P_on_object(setup: Setup, x, depth: int) -> ProjComplex:
    """The categorified projector on objects.

    Applies the section functor termwise (exact), replaces the result by a
    termwise-surjective free resolution ``depth`` degrees deep, and applies
    the inclusion functor termwise (exact on frees). A caller that reads the
    result on a window passes ``projector_depth(window)``.

    On a complex of P(2)'s, ι∘π is the identity: π sends P(2)<r> to the free
    summand <r-1>, ι sends that back to P(2)<r>, and the entry table
    e(2) ↔ 1, ab ↔ x is a ring isomorphism e(2)·B·e(2) ≅ C. Such a complex
    is termwise free after π and needs no resolution, so P returns its
    terms, entries and tail as they are, validated once (d∘d and the tail
    seam).
    """
    Y = x if isinstance(x, ProjComplex) else _as_module_complex(x)
    if Y.tail is not None and Y.tail.side == RIGHT_TAIL:
        raise RegimeError("projector input must be bounded above")
    if isinstance(Y, ProjComplex):
        if all(s.vertex == "2" for t in Y.terms.values() for s in t):
            return ProjComplex(Y.algebra, Y.terms, Y.diffs, Y.tail, f"ℙ({Y.name})")
        Y = realize(Y)
    resolved = _section_resolution(setup, Y, depth)
    if resolved is None:
        return ProjComplex.zero_complex(setup.B)
    out = iota_translate(setup, resolved[0])
    out.name = f"ℙ({Y.name})"
    return out


def _check_degree_zero(f: ModuleHom | ProjChainMap) -> None:
    """A map functor takes maps of degree 0; a ``ProjChainMap`` of another
    degree is a homotopy, not a chain map."""
    if f.degree == 0:
        return
    if isinstance(f, ModuleHom):
        raise ConstructionError("shift the source so the map has degree 0")
    raise ConstructionError(f"{f.name} has degree {f.degree}; a map functor "
                            f"takes chain maps of degree 0")


def P_on_module_map(setup: Setup, f: ModuleHom, depth: int) -> ProjChainMap:
    """ℙ(f) for a degree-0 module map f: ι of the comparison lift of π(f),
    whose chain identity is checked over B on the degrees that read a solved
    component. A side whose π is zero is ``ProjComplex.zero_complex``, and
    ℙ(f) then has no components."""
    _check_degree_zero(f)
    resM = _section_resolution(setup, Complex.from_module(f.source), depth)
    resN = _section_resolution(setup, Complex.from_module(f.target), depth)
    comps, solved = {}, 0
    if resM is not None and resN is not None:
        lift = lift_through_resolutions(*resM, *resN, apply_pi_hom(f, setup.C))
        iota = _Iota(setup.B)
        comps = {i: iota.matrix(m) for i, m in lift.items()}
        solved = lift.solved
    srcB, tgtB = (ProjComplex.zero_complex(setup.B) if res is None
                  else iota_translate(setup, res[0]) for res in (resM, resN))
    out = ProjChainMap(srcB, tgtB, comps, f"ℙ({f.name})", validate=False)
    # below solved - 1 each identity is the shifted copy of one a period up
    out.check_identity(solved - 1, -1)
    return out


class _Lift(dict):
    """A comparison lift, its components by degree, and ``solved``, the
    lowest degree whose component was solved: the ones below are copies."""
    solved: int


def lift_through_resolutions(resM: ProjComplex, augM: dict[int, ModuleHom],
                             resN: ProjComplex, augN: dict[int, ModuleHom],
                             f0: ModuleHom) -> _Lift:
    """Comparison lift: the chain map between resolutions that covers f0 in
    degree 0, solved from degree 0 down, each solution entering the next;
    below degree 0 on the formal matrices. Realization is faithful and
    respects composition, so each system keeps its solution set, and that
    set alone fixes the reduced echelon form ``solve_from_columns`` reads.

    The lift stops at the higher of the two resolutions' bottoms: below it a
    component maps into or out of zero. With a common tail of period p and
    shift s, it stops once lift[i] = lift[i + p]<s>, where i - 1 <= e, a
    degree from which both resolutions follow the tail: the outer of the
    degrees their certified repeats carry into it
    (``TailSpec.implied_from``). It copies the rest (the lift repeat of
    "Windows and margins" in the ``complexes`` module docstring)."""
    lift = _Lift()
    bottom = max(resM.window()[0], resN.window()[0])
    t = TailSpec.common((resM.tail, resN.tail), 2)
    e = t and t.outer(*(res.tail.implied_from(t) for res in (resM, resN)))
    for i in range(0, bottom - 1, -1):
        ladder = LadderSystem([LadderFamily(resM, resN, 0, (i, i))])
        if i == 0:   # augN∘φ_0 = f0∘augM on the realized degree-0 covers
            cover, want = augM[0].source, f0.compose(augM[0])

            def residual(maps) -> list[Fraction]:
                hom = _alg_matrix_to_hom(maps[0].component(0), cover,
                                         augN[0].source, resM.algebra)
                diff = augN[0].compose(hom) - want
                return [x for d in cover.degrees()
                        for row in diff.mat(d).data for x in row]
        else:        # d_N∘φ_i = φ_(i+1)∘d_M on the formal matrices
            back = lift[i + 1] * resM.diff(i)

            def residual(maps) -> list[Fraction]:
                return _mat_coords(maps[0].sides(i)[0] - back)

        column, rhs = ladder.probe([(((0, i),), residual)])
        sol = solve_from_columns(column, ladder.n, rhs)
        if sol is None:
            raise ConstructionError(f"resolution lift failed at degree {i}")
        lift[i], lift.solved = ladder.build(sol)[0].component(i), i
        if t is not None and i + t.period <= 0 and i - 1 <= e \
                and lift[i] == lift[i + t.period].shifted(t.shift):
            _copy_outward(lift, t, i, bottom, AlgMatrix.shifted)
            break
    return lift


# ---------------------------------------------------------------------------
# the duality functor
# ---------------------------------------------------------------------------

def koszul_D_on_object(setup: Setup, x, out_window: tuple[int, int] | None = None
                       ) -> ProjComplex:
    """Bigraded construction: each basis vector of bidegree (r, s) and label v
    gives a summand P(DUAL_VERTEX[v])<-s> at homological degree r+s, with the
    scalar part of d plus the signed staircase arrows as differential. A
    bounded input gives every degree, on ``out_window`` when one is given. A
    left-tailed input is computed through D's head of "Windows and margins"
    in the ``complexes`` module docstring and extended by the tail derived
    there."""
    out, _, tail = _koszul_D(setup, x, out_window)
    return out if tail is None else attach_tail(out, out_window, RIGHT_TAIL,
                                                _DUAL_UNSTABLE)


def _dual_index(c: Complex, out_window: tuple[int, int]
                ) -> dict[int, dict[tuple[int, int, int], tuple[int, str]]]:
    """The summands of D(c)^p for p in the window: each basis vector (r, s,
    idx) of c with r + s = p, ordered by r descending then idx, mapped to its
    position in D(c)^p and its vertex label."""
    lo, hi = out_window
    vecs: dict[int, list[tuple[int, int, int, str]]] = {}
    for r, M in c.terms.items():
        for s in M.degrees():
            if lo <= r + s <= hi:
                vecs.setdefault(r + s, []).extend(
                    (r, s, idx, M.label(s, idx)) for idx in range(M.dim(s)))
    return {p: {(r, s, idx): (k, lab) for k, (r, s, idx, lab)
                in enumerate(sorted(v, key=lambda t: (-t[0], t[2])))}
            for p, v in vecs.items()}


def _term_degrees(B: PathAlgebra, Y: ProjComplex | Complex, r: int) -> list[int]:
    """The internal degree of each basis vector of Y^r. A formal summand
    P(v)<k> spans k + deg(q) for the paths q of P(v), so a formal term is
    read without realizing it."""
    if isinstance(Y, ProjComplex):
        return [s.shift + B.path_degree(q) for s in Y.term(r)
                for q in B.projective_paths[s.vertex]]
    M = Y.term(r)
    return [s for s in M.degrees() for _ in range(M.dim(s))]


_DUAL_UNSTABLE = "duality output did not stabilize; enlarge the window"


def _koszul_D(setup: Setup, x, out_window: tuple[int, int] | None
              ) -> tuple[ProjComplex, dict, TailSpec | None]:
    """D of ``x`` as computed and validated, with the ``_dual_index`` of the
    input degrees it read and, for a left-tailed input, the tail it derived.

    A bounded input gives every degree of the window. On a left-tailed input
    this is D's head of "Windows and margins" in the ``complexes`` module
    docstring: e is the ``repeat`` that the input's construction certified
    its tail from, and no walk reads a degree for it. D is computed and
    validated through the head, past out_hi where the window is short, and
    its derived tail, certified from q0, is checked there by
    ``TailSpec.certify``, also on a cone's copied components, and carried
    for ``attach_tail`` to extend it."""
    B = setup.B
    Y = x if isinstance(x, ProjComplex) else _as_module_complex(x)
    t = Y.tail
    if t is not None and t.side == RIGHT_TAIL:
        raise RegimeError("duality input must be bounded above")
    tail = None
    if t is None:
        out_window = out_window or (-math.inf, math.inf)
        head = out_window[1]
        mat = _as_module_complex(Y)
    else:
        if t.shift <= t.period:
            # each period outward moves D's degrees by shift - period, so only
            # a climbing tail leaves every output degree finitely many terms
            raise RegimeError("duality input's left tail must shift its terms "
                              "by more than its period")
        if out_window is None:
            raise RegimeError("a left-tailed duality input needs an output window")
        e = t.repeat
        reach = max(r + max(_term_degrees(B, Y, r)) for r in Y.terms if r > e)
        climb = t.shift - t.period
        period = climb if climb % 2 == 0 else 2 * climb   # d carries (-1)^q
        q0 = max(reach + 1, out_window[0]) + period
        tail = TailSpec(RIGHT_TAIL, q0, period, -t.shift * period // climb)
        # past out_hi where the window is short: ``attach_tail`` then checks
        # the pattern it finds at the window's edge on the degrees past it
        head = tail.two_period_end()
        # the read: the first whole input period, walking down from e, whose
        # degrees land above head + 1 is the last one realized
        lows = [j + min(ds) for j in range(e - t.period + 1, e + 1)
                if (ds := _term_degrees(B, Y, j))]
        k = max([0] + [(head + 1 - m) // climb + 1 for m in lows])
        lo, hi = e - t.period + 1 - k * t.period, Y.window()[1]
        mat = _as_module_complex(Y.materialize(lo, hi).clip(lo, hi))

    index = _dual_index(mat, (out_window[0], head))
    terms = {p: tuple(Summand(DUAL_VERTEX[lab], -s) for (_, s, _), (_, lab) in vecs.items())
             for p, vecs in sorted(index.items())}

    diffs: dict[int, AlgMatrix] = {}
    for p in terms:
        if p + 1 not in terms:
            continue
        up = index[p + 1]
        items = []
        sign = -1 if p % 2 else 1   # p = r + s for every summand of D^p
        for (r, s, idx), (col, lab) in index[p].items():
            # scalar part: the complex differential, same s
            items += _dual_items(col, mat.diff(r).mat(s), idx, up, (r + 1, s),
                                 B.idempotent(DUAL_VERTEX[lab]))
            # staircase: an arrow g acts on label g.target and raises s by
            # its degree, with the parity sign
            for g in B.quiver.arrows:
                if g.target == lab:
                    items += _dual_items(col, mat.term(r).act_arrow(g.name, s), idx, up,
                                         (r, s + g.degree), B.arrow_element(g.name), sign)
        diffs[p] = AlgMatrix.from_sums(B, terms[p + 1], terms[p], items)

    out = ProjComplex(B, terms, diffs, None, f"𝔻({Y.name})", validate=True)
    if tail is not None:
        tail.certify(out, _DUAL_UNSTABLE)
    return out, index, tail


def _dual_items(col: int, mat: Matrix, idx: int, index: dict,
                rs: tuple[int, int], z: AlgebraElement, sign: int = 1):
    """The ``AlgMatrix.from_sums`` items of sign·coef·z in column ``col``
    for each nonzero coefficient coef of column ``idx`` of ``mat``, at the
    row of the summand (r, s, row of coef) in ``index`` where there is one."""
    for ridx in range(mat.nrows):
        coef = mat.data[ridx][idx]
        hit = index.get((*rs, ridx))
        if coef != 0 and hit is not None:
            yield hit[0], col, z.scale(sign * coef)


def _cone(f: ModuleHom | ProjChainMap) -> Complex | ProjComplex:
    """The mapping cone of a degree-0 map f: X -> Y, cone(f)^i = X^(i+1) ⊕ Y^i
    with differential [[-d_X, 0], [f, d_Y]]; a module map is read in
    homological degree 0. Each term lays X's summands first.

    A formal cone repeats with the pattern its sides share, of period L
    (``TailSpec.common``; sides that share none are a ``RegimeError``), from
    the outer of the sides' repeats in cone degrees, X's moved by -1: a
    tailed side's repeat taken to period L (``TailSpec.implied_from``), a
    bounded side's edge moved L + 2 degrees out, past which a step of the
    pattern and the d it compares read none of its terms. It is stored on
    the union of the sides' stored windows, each tailed side materialized
    there, widened to that repeat, so the copies past it are the cone's. f
    carries no tail: the cone reads its components as repeating with the
    sides from there (D refuses a right tail before it reads the cone)."""
    if isinstance(f, ModuleHom):
        return Complex(f.source.algebra, {-1: f.source, 0: f.target}, {-1: f},
                       name=f"cone({f.name})")
    # X^i lies in cone degree i - 1
    sides = [(c, o) for c, o in ((f.source, 1), (f.target, 0)) if c.terms]
    lo = min((c.window()[0] - o for c, o in sides), default=0)
    hi = max((c.window()[1] - o for c, o in sides), default=-1)
    tails = [c.tail for c, _ in sides if c.tail is not None]
    tail = None
    if tails:
        t = TailSpec.common(tails, 1)
        if t is None:
            raise RegimeError(f"the tails of the source and target of {f.name} "
                              f"do not agree")
        repeat = t.outer(*((c.tail.implied_from(t) if c.tail is not None
                            else t.edge(c.window()) + t.outward * (t.period + 2)) - up
                           for c, up in sides))
        lo, hi = min(lo, repeat), max(hi, repeat)
        tail = TailSpec(t.side, repeat, t.period, t.shift)
    X, Y = (c if c.tail is None else c.materialize(lo + up, hi + up)
            for c, up in ((f.source, 1), (f.target, 0)))
    terms = {i: X.term(i + 1) + Y.term(i) for i in range(lo, hi + 1)}
    diffs = {}
    for i in range(lo, hi):
        up = len(X.term(i + 2))
        diffs[i] = AlgMatrix.from_sums(X.algebra, terms[i + 1], terms[i],
                                       (-X.diff(i + 1)).block(0, 0)
                                       + f.component(i + 1).block(up, 0)
                                       + Y.diff(i).block(up, len(X.term(i + 1))))
    return ProjComplex(X.algebra, terms, diffs, tail, f"cone({f.name})", validate=False)


def koszul_D_on_map(setup: Setup, f: ModuleHom | ProjChainMap,
                    out_window: tuple[int, int]) -> ProjChainMap:
    """Induced map m⊗g -> f(m)⊗g: entries are the scalar coefficients of f
    placed between matching summands.

    f is a degree-0 module map, read in homological degree 0, or a formal
    chain map. D is termwise, so D of f's mapping cone (``_cone``) is the
    cone of D(f), and both sides and the components are read off its one
    construction ("D's head" in "Windows and margins" of the ``complexes``
    module docstring): in D(cone)^q the vector (r, s, idx) is the vector
    (r + 1, s, idx) of D(X)^(q+1) when idx < dim X^(r+1)_s, else one of
    D(Y)^q, each side in its own order."""
    _check_degree_zero(f)
    B = setup.B
    lo, hi = out_window
    if isinstance(f, ModuleHom):
        X, Y = Complex.from_module(f.source), Complex.from_module(f.target)
    else:
        X, Y = f.source, f.target
    head, index, tail = _koszul_D(setup, _cone(f), (lo - 1, hi))
    if X.tail is not None and index:   # the read may reach below X's stored bottom
        lowest = min(r for vecs in index.values() for r, _, _ in vecs)
        X = X.materialize(lowest + 1, X.window()[1])
    xs: dict[int, list[int]] = {}
    ys: dict[int, list[int]] = {}
    for q in head.terms:
        dims: dict[int, int] = {}
        for (r, s, idx), (k, _) in index[q].items():
            if r not in dims:
                dims[r] = _term_degrees(B, X, r + 1).count(s)
            (xs if idx < dims[r] else ys).setdefault(q, []).append(k)
    sides = []
    for c, part, up in ((X, xs, 1), (Y, ys, 0)):
        terms = {q + up: tuple(head.term(q)[k] for k in ks) for q, ks in part.items()}
        diffs = {q + up: head.diff(q).submatrix(part[q + 1], ks)
                 for q, ks in part.items() if q + 1 in part}
        if up:   # the X block of the cone's d is -d_X
            diffs = {q: -d for q, d in diffs.items()}
        side = ProjComplex(B, terms, diffs,
                           tail and tail.moved(up),
                           f"𝔻({c.name})", validate=False)
        sides.append(side.clip(lo, hi) if c.tail is None else
                     attach_tail(side, out_window, RIGHT_TAIL, _DUAL_UNSTABLE))
    DX, DY = sides
    comps = {q + 1: head.diff(q).submatrix(ys[q + 1], xs[q])
             for q in xs if q + 1 in ys and q + 1 <= hi}
    if head.tail is not None:
        _copy_outward(comps, tail, head.window()[1],
                      min(DX.window()[1], DY.window()[1]), AlgMatrix.shifted)
    return ProjChainMap(DX, DY, comps, f"𝔻({f.name})", validate=False)


# ---------------------------------------------------------------------------
# the topological projector
# ---------------------------------------------------------------------------

def _ck_columns(B: PathAlgebra) -> tuple[dict, dict, dict]:
    """The formal columns of the projector complex, derived from the
    structure-map table ``quiver.STRUCTURE_MAPS``.

    P(v) ⊗ θ is free over θ's left-factor paths that end at v, the paths p
    of e(v)·B·e(2) (the paths into 2 of ``build_theta``): one summand P(2)
    per p, generated by p⊗e(2) and shifted by the degree of p. A structure
    map sends p⊗e(2) = p·(e(2)⊗e(2)) to the sum of c·(p·x)⊗y over the terms
    (c, x, y) of its image of e(2)⊗e(2): the entry c·y at the part of p·x.
    On column 0, P(v) ⊗ B = P(v) is the one part e(v), sent by alpha to its
    image of e(v). Returns, by vertex, the parts and their degrees, and, by
    (vertex, structure map), the entries of the map on P(v), which
    ``_ck_column_map`` places between shifted parts.
    """
    parts = {v: tuple(p for p in B.projective_paths[v] if B.source(p) == "2")
             for v in B.quiver.vertices}
    degrees = {v: tuple(B.path_degree(p) for p in ps) for v, ps in parts.items()}
    blocks = {}
    for name, images in STRUCTURE_MAPS.items():
        for v, rows in parts.items():
            if name == "alpha":
                sources = [(Path((), v), images[Path((), v)])]
            else:
                (terms,) = images.values()
                sources = [(p, terms) for p in rows]
            entries = [[B.zero()] * len(sources) for _ in rows]
            for j, (p, terms) in enumerate(sources):
                for coef, x, y in terms:
                    px = B.mul_paths(p, x)
                    if px is not None:
                        i = rows.index(px)
                        entries[i][j] = entries[i][j] + B.element({y: coef})
            blocks[(v, name)] = entries
    return parts, degrees, blocks


def _theta_parts(setup: Setup, s: Summand, k: int) -> tuple[Summand, ...]:
    """Summands of (one projective) ⊗ theta<1-2k>: one P(2) per part of
    ``_ck_columns``."""
    return tuple(Summand("2", s.shift - 2 * k + d) for d in setup.ck_degrees[s.vertex])


def _theta_items(setup: Setup, z: AlgebraElement, src: Summand, tgt: Summand,
                 ro: int, co: int):
    """The ``AlgMatrix.from_sums`` items of the scalar block of z ⊗ id between
    theta-parts, with its top-left entry at (ro, co): the part p of src goes
    to the part z·p of tgt."""
    B = setup.B
    tgt_basis = setup.ck_parts[tgt.vertex]
    for j, p in enumerate(setup.ck_parts[src.vertex]):
        for q, coef in z.terms.items():
            r = B.mul_paths(q, p)
            if r is not None and r in tgt_basis:
                yield ro + tgt_basis.index(r), co + j, B.idempotent("2").scale(coef)


def _ck_column_map(setup: Setup, s: Summand, k: int) -> AlgMatrix:
    """The structure map of the projector complex on one projective summand,
    from column k to k+1: its ``_ck_columns`` block between the parts of s,
    whose rows it shares."""
    cols = (s,) if k == 0 else _theta_parts(setup, s, k)
    return AlgMatrix._trusted(setup.B, _theta_parts(setup, s, k + 1), cols,
                              setup.ck_blocks[(s.vertex, structure_map_on_column(k))])


def _ck_tensor(setup: Setup, m: AlgMatrix, k: int) -> AlgMatrix:
    """m ⊗ id on projector column k: m itself on the regular bimodule, and
    for k >= 1 the theta-block of each entry between the theta-parts of its
    summands."""
    if k == 0:
        return m
    rows = [_theta_parts(setup, s, k) for s in m.rows]
    cols = [_theta_parts(setup, s, k) for s in m.cols]
    items = []
    ro = 0
    for ti, row_parts in enumerate(rows):
        co = 0
        for tj, col_parts in enumerate(cols):
            z = m.entries[ti][tj]
            if not z.is_zero():
                items += _theta_items(setup, z, m.cols[tj], m.rows[ti], ro, co)
            co += len(col_parts)
        ro += len(row_parts)
    return AlgMatrix.from_sums(setup.B, sum(rows, ()), sum(cols, ()), items)


def _ck_cells(setup: Setup, x: ProjComplex, K: int
              ) -> dict[tuple[int, int], tuple[Summand, ...]]:
    """The cells (k, i) of X ⊗ projector complex with columns k <= K whose
    total degree k + i is complete, k + i <= x_lo + K (complete CK degrees
    in "Windows and margins" of the ``complexes`` module docstring). Cell
    (k, i) is X^i on column 0 and the theta-parts of its summands on column
    k >= 1: column 1's shifted by -2(k - 1) (the CK period there)."""
    top = x.window()[0] + K
    cells = {}
    for i, t in x.terms.items():
        first = sum((_theta_parts(setup, s, 1) for s in t), ())
        for k in range(top - i + 1):
            cells[(k, i)] = t if k == 0 else shift_summands(first, 2 - 2 * k)
    return cells


def ck_bicomplex(setup: Setup, x: ProjComplex, K: int) -> ProjBicomplex:
    """X ⊗ projector complex, horizontal = projector column index, built
    only on the complete total degrees of ``_ck_cells``: nothing totalized
    from it reads a cell beyond them. Columns 0 and 1 are computed and each
    later column is copied by the CK period of "Windows and margins" in the
    ``complexes`` module docstring: d2(k, i) = d2(1, i)<-2(k-1)> and
    d1(k, i) = d1(k-2, i)<-4> for k >= 3. Its identities are checked once,
    when ``total_complex`` validates its totalization: Tot's d∘d has the
    blocks d1∘d1, d2∘d2 and ±(d1∘d2 - d2∘d1) in three distinct cells
    (``ProjBicomplex``). From the top total degree, the cell identities and
    Tot's d∘d alike read only maps into cells that were never built."""
    B = setup.B
    terms = _ck_cells(setup, x, K)
    d1: dict[tuple[int, int], AlgMatrix] = {}
    d2: dict[tuple[int, int], AlgMatrix] = {}
    # the cells come column by column for each i, so each copy's source is built
    for (k, i) in terms:
        if (k + 1, i) in terms:
            if k >= 3:
                d1[(k, i)] = d1[(k - 2, i)].shifted(-4)
            else:
                items = []
                ro = co = 0
                for s in x.terms[i]:
                    blk = _ck_column_map(setup, s, k)
                    items += blk.block(ro, co)
                    ro += len(blk.rows)
                    co += len(blk.cols)
                d1[(k, i)] = AlgMatrix.from_sums(B, terms[(k + 1, i)], terms[(k, i)], items)
        if (k, i + 1) in terms:
            d2[(k, i)] = (d2[(1, i)].shifted(2 - 2 * k) if k >= 2
                          else _ck_tensor(setup, x.diff(i), k))
    return ProjBicomplex(B, terms, d1, d2, name=f"{x.name}⊗CK")


def _ck_total(setup: Setup, x: ProjComplex, out_window: tuple[int, int]) -> ProjComplex:
    """``CK_on_object`` on a given window.

    Past the input's top x_hi each total degree is the one two below,
    shifted by -4: the CK period in "Windows and margins" of the
    ``complexes`` module docstring proves this right tail from x_hi + 3. So
    the bicomplex is built only through the head, the tail's
    ``TailSpec.two_period_end``, on the complete total degrees there,
    K = head - x_lo. Its totalization is validated, the tail certified on it
    as D's is (``TailSpec.certify``), and ``attach_tail`` copies it on to
    out_hi and clips it to the output window. A window that ends before the
    head raises ``WindowTooSmall`` before any cell is built. So does every
    nonzero right-tailed input: it is materialized through out_hi, so its
    x_hi is out_hi."""
    if x.tail is not None and x.tail.side == LEFT_TAIL:
        raise RegimeError("topological projector input must be bounded below")
    out_hi = out_window[1]
    x = x.materialize(x.window()[0], out_hi)
    if x.is_zero():
        return ProjComplex.zero_complex(setup.B)
    x_lo, x_hi = x.window()
    tail = _CK_PERIOD.moved(x_hi + 3)
    head = tail.two_period_end()
    message = f"projector tensor output did not stabilize on window {out_window}"
    if out_hi < head:
        raise WindowTooSmall(message)
    tot = total_complex(ck_bicomplex(setup, x, head - x_lo), name=f"ℂ𝕂({x.name})")
    tail.certify(tot, message)
    return attach_tail(tot, out_window, RIGHT_TAIL, message)


def CK_on_object(setup: Setup, x, out_window: tuple[int, int]) -> ProjComplex:
    """Total complex of the tensor with the semi-infinite projector complex,
    on ``out_window``."""
    if not isinstance(x, ProjComplex):
        raise TypeError("topological projector consumes formal complexes of projectives")
    return _ck_total(setup, x, out_window)


# the CK period of "Windows and margins" in the ``complexes`` module
# docstring: two total degrees up, two columns right, internal shift -4
_CK_PERIOD = TailSpec(RIGHT_TAIL, 0, 2, -4)


def CK_on_map(setup: Setup, f: ProjChainMap, out_window: tuple[int, int]
              ) -> ProjChainMap:
    """Termwise f ⊗ id through the totalization: on each total degree, the
    cell (k, i) of the source goes to the same cell of the target by
    f^i ⊗ id on projector column k.

    Past n0 + 1, n0 = max(top of source, top of target) + 1, each component
    is the one two degrees down shifted by -4 (the CK period in "Windows and
    margins" of the ``complexes`` module docstring), so the components are
    built through n0 + 1, and through out_lo + 1 at least, and copied
    beyond. Each side's cells there are the complete ones of ``_ck_cells``
    through that degree, at the offsets ``total_layout`` gives them in the
    object's total complex. The chain identity is checked on the built
    degrees, the last of which reads one copy: past them each identity is
    the one two degrees down shifted by -4. Both sides are bounded by then:
    ``_ck_total`` raises on a right-tailed one and refuses a left-tailed
    one."""
    _check_degree_zero(f)
    CX, CY = _ck_total(setup, f.source, out_window), _ck_total(setup, f.target, out_window)
    lo, hi = out_window[0], min(CX.window()[1], CY.window()[1])
    n0 = max((c.window()[1] for c in (f.source, f.target) if c.terms), default=lo) + 1
    built = min(hi, max(n0, lo) + 1)
    layout_x, layout_y = (total_layout(_ck_cells(setup, c, built - c.window()[0]))
                          for c in (f.source, f.target))
    comps: dict[int, AlgMatrix] = {}
    for n in range(lo, built + 1):
        cells_y = layout_y.get(n, {})
        comps[n] = AlgMatrix.from_sums(setup.B, CY.term(n), CX.term(n), [
            item for (k, i), co in layout_x.get(n, {}).items() if (k, i) in cells_y
            for item in _ck_tensor(setup, f.component(i), k).block(cells_y[(k, i)], co)])
    _copy_outward(comps, _CK_PERIOD, built, hi, AlgMatrix.shifted)
    out = ProjChainMap(CX, CY, comps, f"ℂ𝕂({f.name})", validate=False)
    out.check_identity(lo, built)
    return out


# ---------------------------------------------------------------------------
# named composite constructions
# ---------------------------------------------------------------------------

def D_of_P1(setup: Setup) -> Reduction:
    """The duality functor on the big projective's partner: computed from the
    bigraded formula, reduced, and checked against the two-term model. The
    reduction's ``original`` is the raw complex."""
    P1 = projective(setup.B, "1")
    raw = koszul_D_on_object(setup, P1)
    red = gaussian_reduce(raw)
    model = two_term_dual_model(setup)
    if not (red.reduced.terms == model.terms and red.reduced.diffs == model.diffs):
        raise ConstructionError("duality image of P(1) does not match the two-term model")
    return red


def two_term_dual_model(setup: Setup) -> ProjComplex:
    """0 -> P(2) -> P(1)<-1> -> 0 with the length-one map, degree one at the
    right."""
    B = setup.B
    t0, t1 = (Summand("2", 0),), (Summand("1", -1),)
    d = AlgMatrix(B, t1, t0, [[B.arrow_element("b")]])
    return ProjComplex(B, {0: t0, 1: t1}, {0: d}, name="dual-P(1)-model")


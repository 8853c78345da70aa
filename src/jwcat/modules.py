"""Finite-dimensional graded right modules over a path algebra.

A basis vector of a right module carries the vertex label v with m·e(v) = m
(the source vertex of the underlying path for cyclic modules). The action of
an arrow g: u -> v is therefore a map from label-v vectors to label-u vectors
raising internal degree by deg g, and relations must act as zero; both are
checked at construction time.

The realized basis of a sum of shifted projectives ⊕ P(v_k)<r_k> is fixed
once, here:

* P(v) = e(v)·A has the paths with target v as basis, ordered by degree and
  then by word (``PathAlgebra.projective_paths``); the path p sits in
  internal degree deg p + r of P(v)<r>;
* in the sum, each degree lists the summands' blocks in summand order.

``sum_layout`` maps each (summand k, path p) to its (degree, index) under
these rules, and everything that crosses between formal sums of summands and
realized modules reads it: ``projective_sum`` realizes the sum as a module,
once per algebra and summand tuple, ``projective`` is its one-summand entry,
and the left multiplication maps, covers and differentials place their
entries by it.
``direct_sum`` lays out any sum of modules by the same block rule: each
degree lists the summands' labels in summand order, and an arrow acts by the
block-diagonal matrix of the summands' arrow matrices (``block_diagonal``).

Every other computation reads what a module stores, its vertex labels and
its arrow matrices, through two rules:

* a module map is a matrix per degree whose nonzero entries join basis
  vectors of the same label and which commutes with every arrow
  (``ModuleHom.commutators``); validation compares the two sides and
  ``hom_space`` solves for their difference being zero;
* a block is the part of a degree that carries one label
  (``GradedModule.positions``, ``ModuleHom.block``); a module map is the
  sum of its blocks, so kernels, homology ranks and π read them one label
  at a time.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, kernel_from_columns, search_invertible, unit_vector
from .quiver import (AlgebraElement, BimodBasisVector, ConstructionError,
                     GradedBimodule, PathAlgebra, Path)


class Summand:
    """The shifted indecomposable projective P(vertex)<shift>.

    Summands are canonical: equal fields give one object, stored once in
    ``_interned``, so terms of complexes hash and compare by identity, in C.
    Each summand keeps the shifts ``shifted`` has made of it."""
    __slots__ = ("vertex", "shift", "_shifts")
    _interned: dict = {}   # (vertex, shift) -> the one Summand

    def __new__(cls, vertex: str, shift: int):
        self = cls._interned.get((vertex, shift))
        if self is None:
            self = object.__new__(cls)
            self.vertex = vertex
            self.shift = shift
            self._shifts = {}   # r -> Summand(vertex, shift + r)
            # setdefault keeps one object per value if two threads race here
            self = cls._interned.setdefault((vertex, shift), self)
        return self

    def __reduce__(self):
        # rebuilt through the table, so a copy or an unpickled summand is the one summand
        return Summand, (self.vertex, self.shift)

    def __repr__(self):
        return f"Summand(vertex={self.vertex!r}, shift={self.shift!r})"

    def shifted(self, r: int) -> Summand:
        s = self._shifts.get(r)
        if s is None:
            s = self._shifts[r] = Summand(self.vertex, self.shift + r)
        return s

    def label(self) -> str:
        if self.shift == 0:
            return f"P({self.vertex})"
        return f"P({self.vertex})<{self.shift}>"


# the vertex swap of the duality functor: a basis vector labelled v goes to a
# summand P(DUAL_VERTEX[v]), and so a class q^r[L(v)] to (-q)^-r[P(DUAL_VERTEX[v])]
DUAL_VERTEX = {"1": "2", "2": "1"}


class GradedModule:
    def __init__(self, algebra: PathAlgebra, basis: dict[int, tuple[str, ...]],
                 action: dict[str, dict[int, Matrix]], name: str = "M",
                 validate: bool = True):
        self.algebra = algebra
        self.basis = {d: tuple(labels) for d, labels in basis.items() if labels}
        self.action = {g: {d: m for d, m in mats.items() if not m.is_zero()}
                       for g, mats in action.items()}
        self.action = {g: mats for g, mats in self.action.items() if mats}
        self.name = name
        self._pi = None   # π of this module, kept by ``apply_pi``
        if validate:
            self._validate()

    # --- shape ---

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def graded_dims_by_vertex(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = {}
        for d, labels in self.basis.items():
            for v in labels:
                out[(d, v)] = out.get((d, v), 0) + 1
        return out

    def label(self, d: int, i: int) -> str:
        return self.basis[d][i]

    def positions(self, d: int, v: str) -> list[int]:
        """The positions of the degree-d basis vectors labelled v."""
        return [i for i, lab in enumerate(self.basis.get(d, ())) if lab == v]

    # --- action ---

    def act_arrow(self, name: str, d: int) -> Matrix:
        deg = self.algebra.quiver.arrow(name).degree
        tgt_dim = self.dim(d + deg)
        mat = self.action.get(name, {}).get(d)
        if mat is None:
            return Matrix(tgt_dim, self.dim(d))
        return mat

    def act_path(self, p: Path, d: int) -> Matrix:
        """Matrix of the right action of a basis path on the degree-d slice."""
        if p.is_trivial():
            m = Matrix(self.dim(d), self.dim(d))
            for i in self.positions(d, p.vertex):
                m.data[i][i] = 1
            return m
        # m·(α1...αl) applies α1 first
        mat = None
        cur = d
        for name in p.arrows:
            step = self.act_arrow(name, cur)
            mat = step if mat is None else step * mat
            cur += self.algebra.quiver.arrow(name).degree
        return mat

    # --- constructors ---

    @staticmethod
    def zero_module(algebra: PathAlgebra) -> GradedModule:
        """The algebra's zero module: the stored sum of no summands
        (``projective_sum``), which nothing may mutate."""
        return projective_sum(algebra, ())

    def _validate(self) -> None:
        q = self.algebra.quiver
        for g, mats in self.action.items():
            arrow = q.arrow(g)
            for d, m in mats.items():
                if m.nrows != self.dim(d + arrow.degree) or m.ncols != self.dim(d):
                    raise ConstructionError(f"action {g} at degree {d} has wrong shape")
                for i in range(m.nrows):
                    for j in range(m.ncols):
                        if m.data[i][j] != 0:
                            if self.label(d, j) != arrow.target or \
                               self.label(d + arrow.degree, i) != arrow.source:
                                raise ConstructionError(
                                    f"action {g} violates vertex labels at degree {d}")
        # generator words of length two realize the relations as zero; the
        # right action applies the leftmost factor first: m·(r1 r2) = (m·r1)·r2
        for (r1, r2) in self.algebra.relations:
            a1 = q.arrow(r1)
            for d in self.degrees():
                m = self.act_arrow(r2, d + a1.degree) * self.act_arrow(r1, d)
                if not m.is_zero():
                    raise ConstructionError(f"relation {r1}{r2} acts nonzero on {self.name}")

    def shift(self, r: int) -> GradedModule:
        """Internal shift: degrees move up by r, actions untouched."""
        if r == 0:
            return self
        return GradedModule(
            self.algebra,
            {d + r: labels for d, labels in self.basis.items()},
            {g: {d + r: m for d, m in mats.items()} for g, mats in self.action.items()},
            name=f"{self.name}<{r}>", validate=False)

    def __eq__(self, other):
        if not isinstance(other, GradedModule):
            return NotImplemented
        if self.algebra is not other.algebra or self.basis != other.basis:
            return False
        gens = {a.name for a in self.algebra.quiver.arrows}
        for g in gens:
            for d in self.degrees():
                if self.act_arrow(g, d) != other.act_arrow(g, d):
                    return False
        return True

    def __repr__(self):
        dims = {d: len(v) for d, v in sorted(self.basis.items())}
        return f"GradedModule({self.name}, dims={dims})"

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "name": self.name,
            "basis": {str(d): list(labels) for d, labels in sorted(self.basis.items())},
            "action": {g: {str(d): [[str(x) for x in row] for row in m.data]
                           for d, m in sorted(mats.items())}
                       for g, mats in sorted(self.action.items())},
        }

    @classmethod
    def from_json(cls, d: dict, algebra: PathAlgebra) -> GradedModule:
        basis = {int(k): tuple(v) for k, v in d["basis"].items()}
        action = {g: {int(k): Matrix.from_rows(m) for k, m in mats.items()}
                  for g, mats in d["action"].items()}
        return cls(algebra, basis, action, name=d.get("name", "M"))


# ---------------------------------------------------------------------------
# standard modules
# ---------------------------------------------------------------------------

def sum_layout(algebra: PathAlgebra, summands) -> list[dict[Path, tuple[int, int]]]:
    """Where the basis paths of each summand P(v)<r> sit in the realized sum:
    entry k maps each path p of summand k to its (degree, index). Walking the
    summands in order, and each P(v) in its canonical path order, every path
    takes the next free index of its degree."""
    filled: dict[int, int] = {}
    layout = []
    for s in summands:
        positions = {}
        for p in algebra.projective_paths[s.vertex]:
            d = algebra.path_degree(p) + s.shift
            positions[p] = (d, filled.get(d, 0))
            filled[d] = positions[p][1] + 1
        layout.append(positions)
    return layout


def projective_sum(algebra: PathAlgebra, summands) -> GradedModule:
    """The sum ⊕ P(v)<r> of a summand tuple as a module, on the basis that
    ``sum_layout`` lays out: basis path p carries the label source(p), and
    an arrow g sends it to p·g.

    Each sum is realized and checked once per algebra and kept in
    ``algebra._sums`` under its summand tuple, which is exact since summands
    are canonical; every call returns the stored module, which nothing may
    mutate. ``projective`` and ``GradedModule.zero_module`` are its entries
    of one summand and of none."""
    key = tuple(summands)
    M = algebra._sums.get(key)
    if M is not None:
        return M
    layout = sum_layout(algebra, key)
    labels: dict[int, list[str]] = {}
    for positions in layout:
        for p, (d, _i) in positions.items():   # indices come in walking order
            labels.setdefault(d, []).append(algebra.source(p))
    action: dict[str, dict[int, Matrix]] = {}
    for arrow in algebra.quiver.arrows:
        g = Path((arrow.name,))
        mats: dict[int, Matrix] = {}
        for positions in layout:
            for p, (d, i) in positions.items():
                hit = positions.get(algebra.mul_paths(p, g))
                if hit is not None:
                    if d not in mats:
                        mats[d] = Matrix(len(labels[hit[0]]), len(labels[d]))
                    mats[d].data[hit[1]][i] = 1
        action[arrow.name] = {d: mats[d] for d in sorted(mats)}
    basis = {d: tuple(labels[d]) for d in sorted(labels)}
    name = " ⊕ ".join(s.label() for s in key) or "0"
    return algebra._sums.setdefault(key, GradedModule(algebra, basis, action, name=name))


def projective(algebra: PathAlgebra, v: str) -> GradedModule:
    """P(v) = e(v)·(algebra): the stored sum of the one summand P(v)<0>."""
    if v not in algebra.quiver.vertices:
        raise ConstructionError(f"unknown vertex {v!r}")
    return projective_sum(algebra, (Summand(v, 0),))


def simple(algebra: PathAlgebra, v: str) -> GradedModule:
    if v not in algebra.quiver.vertices:
        raise ConstructionError(f"unknown vertex {v!r}")
    return GradedModule(algebra, {0: (v,)}, {}, name=f"L({v})")


def injective2(B: PathAlgebra) -> GradedModule:
    """The injective hull of the vertex-2 simple, realized as P(2)<-2>."""
    m = projective(B, "2").shift(-2)
    m.name = "I(2)"
    return m


def block_diagonal(blocks: list[Matrix]) -> Matrix:
    """The matrix with ``blocks`` down its diagonal, in order, and zeros
    elsewhere."""
    out = Matrix(sum(b.nrows for b in blocks), sum(b.ncols for b in blocks))
    rows, col = iter(out.data), 0
    for b in blocks:
        for brow, row in zip(b.data, rows):
            row[col:col + b.ncols] = brow
        col += b.ncols
    return out


def direct_sum(mods: list[GradedModule], algebra: PathAlgebra | None = None) -> GradedModule:
    """⊕ mods: each degree lists the summands' labels in order, and an arrow
    acts by the block-diagonal matrix of the summands' arrow matrices."""
    if not mods:
        if algebra is None:
            raise ConstructionError("empty direct sum needs an algebra")
        return GradedModule.zero_module(algebra)
    alg = mods[0].algebra
    basis = {d: tuple(lab for m in mods for lab in m.basis.get(d, ()))
             for d in sorted({d for m in mods for d in m.degrees()})}
    action = {arrow.name: {d: block_diagonal([m.act_arrow(arrow.name, d) for m in mods])
                           for d in basis if d + arrow.degree in basis}
              for arrow in alg.quiver.arrows}
    return GradedModule(alg, basis, action, name=" ⊕ ".join(m.name for m in mods),
                        validate=False)


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class ModuleHom:
    """Homogeneous degree-j map: sends the degree-d slice to degree d+j."""

    def __init__(self, source: GradedModule, target: GradedModule, degree: int,
                 mats: dict[int, Matrix], name: str = "f", validate: bool = True):
        self.source = source
        self.target = target
        self.degree = degree
        self.mats = {d: m for d, m in mats.items() if not m.is_zero()}
        self.name = name
        if validate:
            self._validate()

    def mat(self, d: int) -> Matrix:
        m = self.mats.get(d)
        if m is None:
            return Matrix(self.target.dim(d + self.degree), self.source.dim(d))
        return m

    def block(self, d: int, v: str) -> Matrix:
        """The part of the degree-d matrix from label-v to label-v vectors."""
        return self.mat(d).submatrix(self.target.positions(d + self.degree, v),
                                     self.source.positions(d, v))

    def commutators(self):
        """(g, d, f∘g, g∘f) for each arrow name g and source degree d: the
        two ways round the square from degree d to d + deg g + deg f."""
        for arrow in self.source.algebra.quiver.arrows:
            g, dg = arrow.name, arrow.degree
            for d in self.source.degrees():
                yield (g, d, self.mat(d + dg) * self.source.act_arrow(g, d),
                       self.target.act_arrow(g, d + self.degree) * self.mat(d))

    def _validate(self) -> None:
        """A module map commutes with the idempotents, so its nonzero
        entries join basis vectors of one label, and with every arrow."""
        for d, m in self.mats.items():
            if m.nrows != self.target.dim(d + self.degree) or m.ncols != self.source.dim(d):
                raise ConstructionError(f"hom matrix shape mismatch at degree {d}")
            for r, row in enumerate(m.data):
                for c, x in enumerate(row):
                    if x and self.target.label(d + self.degree, r) != self.source.label(d, c):
                        raise ConstructionError(
                            f"{self.name} violates vertex labels at degree {d}")
        for g, d, fg, gf in self.commutators():
            if fg != gf:
                raise ConstructionError(f"{self.name} does not commute with {g} at degree {d}")

    def is_zero(self) -> bool:
        return not self.mats

    def compose(self, other: ModuleHom) -> ModuleHom:
        """self after other."""
        mats = {}
        for d in other.source.degrees():
            m = self.mat(d + other.degree) * other.mat(d)
            if not m.is_zero():
                mats[d] = m
        return ModuleHom(other.source, self.target, self.degree + other.degree,
                         mats, f"{self.name}∘{other.name}", validate=False)

    def __add__(self, other: ModuleHom) -> ModuleHom:
        mats = {}
        for d in set(self.mats) | set(other.mats):
            mats[d] = self.mat(d) + other.mat(d)
        return ModuleHom(self.source, self.target, self.degree, mats,
                         self.name, validate=False)

    def scale(self, c) -> ModuleHom:
        return ModuleHom(self.source, self.target, self.degree,
                         {d: m.scale(c) for d, m in self.mats.items()},
                         self.name, validate=False)

    def __neg__(self) -> ModuleHom:
        return self.scale(-1)

    def __sub__(self, other: ModuleHom) -> ModuleHom:
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, ModuleHom):
            return NotImplemented
        if self.degree != other.degree:
            return False
        for d in set(self.mats) | set(other.mats):
            if self.mat(d) != other.mat(d):
                return False
        return True

    def shift(self, r: int) -> ModuleHom:
        return ModuleHom(self.source.shift(r), self.target.shift(r), self.degree,
                         {d + r: m for d, m in self.mats.items()},
                         self.name, validate=False)

    def rank(self) -> int:
        return sum(m.rank() for m in self.mats.values())

    def is_invertible(self) -> bool:
        if self.degree != 0:
            return False
        if self.source.graded_dims_by_vertex() != self.target.graded_dims_by_vertex():
            return False
        return all(self.mat(d).is_invertible() for d in self.source.degrees())

    def __repr__(self):
        return f"ModuleHom({self.name}: {self.source.name} -> {self.target.name}, deg={self.degree})"


def add_left_multiplication(mats: dict[int, Matrix], z: AlgebraElement,
                            src_positions: dict[Path, tuple[int, int]],
                            tgt_positions: dict[Path, tuple[int, int]],
                            source: GradedModule, target: GradedModule) -> None:
    """Add the block p -> z·p into the degree-wise matrices ``mats`` of a
    homogeneous map source -> target: p runs over the paths of one source
    summand and z·p lands in one target summand, both placed by their
    ``sum_layout`` positions; a product outside the target summand is zero."""
    products = source.algebra._products
    for p, (d, col) in src_positions.items():
        for q, c in z.terms.items():
            hit = tgt_positions.get(products[q].get(p))
            if hit is not None:
                if d not in mats:
                    mats[d] = Matrix(target.dim(hit[0]), source.dim(d))
                mats[d].data[hit[1]][col] += c


def left_multiplication_hom(P_source: GradedModule, P_target: GradedModule,
                            elem: AlgebraElement, name: str | None = None) -> ModuleHom:
    """Left multiplication by a homogeneous element between cyclic projectives.

    Sources/targets must be shifts of P(v) on its canonical path basis; the
    map sends each basis path p to elem·p.
    """
    alg = P_source.algebra
    dz = elem.degree()
    if dz is None:
        return ModuleHom(P_source, P_target, 0, {}, name or "0", validate=False)
    src, tgt = _cyclic_summand(P_source), _cyclic_summand(P_target)
    mats: dict[int, Matrix] = {}
    add_left_multiplication(mats, elem, sum_layout(alg, (src,))[0],
                            sum_layout(alg, (tgt,))[0], P_source, P_target)
    return ModuleHom(P_source, P_target, dz + tgt.shift - src.shift, mats,
                     name or f"{elem.word()}·", validate=True)


def _cyclic_summand(P: GradedModule) -> Summand:
    """The summand P(v)<r> that a shifted projective realizes: its generator
    is the unique lowest-degree basis vector, labelled by the vertex v."""
    lo = min(P.degrees())
    if P.dim(lo) != 1:
        raise ConstructionError("not a cyclic projective")
    return Summand(P.label(lo, 0), lo)


def hom_space(M: GradedModule, N: GradedModule, degree: int | None = None
              ) -> list[ModuleHom]:
    """Basis of the space of homogeneous maps (all degrees, or one degree)."""
    if M.algebra is not N.algebra:
        raise ConstructionError("hom_space needs a common base algebra")
    if M.is_zero() or N.is_zero():
        return []
    degs = ([degree] if degree is not None else
            sorted({dn - dm for dm in M.degrees() for dn in N.degrees()}))
    out: list[ModuleHom] = []
    for j in degs:
        out.extend(_hom_space_degree(M, N, j))
    return out


def _hom_space_degree(M: GradedModule, N: GradedModule, j: int) -> list[ModuleHom]:
    """The unknowns are the entries (d, r, c) that join equal labels; the
    commutator difference is linear in them, so its column at an unknown is
    the difference for that unit entry."""
    slots = [(d, r, c) for d in M.degrees() for c, v in enumerate(M.basis[d])
             for r in N.positions(d + j, v)]
    if not slots:
        return []

    def unknown_to_hom(vec) -> dict[int, Matrix]:
        mats: dict[int, Matrix] = {}
        for (d, r, c), x in zip(slots, vec):
            if x == 0:
                continue
            mats.setdefault(d, Matrix(N.dim(d + j), M.dim(d)))
            mats[d].data[r][c] += x
        return mats

    def column(k: int) -> list[Fraction]:
        f = ModuleHom(M, N, j, unknown_to_hom(unit_vector(len(slots), k)), validate=False)
        return [x for _, _, fg, gf in f.commutators() for row in (fg - gf).data for x in row]

    kernel = kernel_from_columns(column, len(slots))
    return [ModuleHom(M, N, j, unknown_to_hom(vec), name=f"h{j}_{i}")
            for i, vec in enumerate(kernel)]


def find_module_iso(M: GradedModule, N: GradedModule) -> ModuleHom | None:
    """An explicit invertible degree-0 hom, or None (None is certified when
    graded dimensions differ or the hom space is trivial)."""
    if M.graded_dims_by_vertex() != N.graded_dims_by_vertex():
        return None
    if M.is_zero():
        return ModuleHom(M, N, 0, {}, "0", validate=False)
    return search_invertible(_hom_space_degree(M, N, 0), ModuleHom.is_invertible)


# ---------------------------------------------------------------------------
# balanced tensor with a bimodule
# ---------------------------------------------------------------------------

def tensor_with_bimodule(M: GradedModule, W: GradedBimodule) -> GradedModule:
    """M ⊗_A W for a right A-module M and (A, B)-bimodule W, as a right
    B-module: the degreewise quotient of M ⊗ W by the balancing relations."""
    A = W.left_algebra
    if M.algebra is not A:
        raise ConstructionError("module algebra must match the bimodule's left algebra")
    right_alg = W.right_algebra
    # the pairs (d, i, k) of the degree-d basis vector i of M and the basis
    # vector k of W, listed by total degree; pos[pair] is its place there
    by_total: dict[int, list[tuple[int, int, int]]] = {}
    for d in M.degrees():
        for i in range(M.dim(d)):
            for k, w in enumerate(W.basis):
                by_total.setdefault(d + w.degree, []).append((d, i, k))
    pos = {pair: p for pairs in by_total.values() for p, pair in enumerate(pairs)}

    # relation rows (m·g)⊗w − m⊗(g·w) for the generators g (idempotents and
    # arrows), each built once in its total degree; a total degree without
    # pairs gets none, since both terms vanish there. The row of a path g1g2
    # is the sum of a g1-row and a g2-row of its total degree, so the
    # generators span every relation. left[(g, k)] is the position of g·w_k,
    # or None when it is zero; acts[(g, d)] is g's matrix on degree d of M.
    gens = [g for g in A.basis if len(g.arrows) <= 1]
    left = {(g, k): W.index.get(W.left(key, g)) for g in gens for key, k in W.index.items()}
    acts = {(g, d): M.act_path(g, d) for g in gens for d in M.degrees()}
    rel_rows: dict[int, list[list[Fraction]]] = {}
    for (d2, i2, k2) in pos:
        for g in gens:
            dg = A.path_degree(g)
            total = d2 + dg + W.basis[k2].degree
            if total not in by_total:
                continue
            row = [0] * len(by_total[total])
            mg = acts[(g, d2)]
            for r in range(mg.nrows):
                if mg.data[r][i2] != 0:
                    row[pos[(d2 + dg, r, k2)]] += mg.data[r][i2]
            j = left[(g, k2)]
            if j is not None:
                row[pos[(d2, i2, j)]] -= 1
            if any(x != 0 for x in row):
                rel_rows.setdefault(total, []).append(row)
    # the quotient of a total degree has as basis the free positions, those
    # that are not pivots of its reduced relations; coords[total][p] is the
    # class of position p there: a unit vector at a free p, and minus the
    # free part of its relation row at a pivot p
    free: dict[int, list[int]] = {}
    coords: dict[int, dict[int, list[Fraction]]] = {}
    basis: dict[int, tuple[str, ...]] = {}
    for total, pairs in sorted(by_total.items()):
        R, piv = Matrix.from_rows(rel_rows.get(total, [])).rref()
        kept = free[total] = [p for p in range(len(pairs)) if p not in piv]
        coords[total] = {p: [int(p == q) for q in kept] for p in kept}
        coords[total].update({pc: [-row[q] for q in kept] for pc, row in zip(piv, R.data)})
        basis[total] = tuple(W.basis[pairs[p][2]].right_vertex for p in kept)

    action: dict[str, dict[int, Matrix]] = {}
    for arrow in right_alg.quiver.arrows:
        g = Path((arrow.name,))
        right = {k: W.index.get(W.right(key, g)) for key, k in W.index.items()}
        mats: dict[int, Matrix] = {}
        for total, kept in free.items():
            tgt = total + arrow.degree
            if not kept or not free.get(tgt):
                continue
            zero = [0] * len(free[tgt])
            cols = [zero if right[k] is None else coords[tgt][pos[(d, i, right[k])]]
                    for d, i, k in (by_total[total][p] for p in kept)]
            mats[total] = Matrix(len(zero), len(kept), [list(r) for r in zip(*cols)])
        action[arrow.name] = mats
    return GradedModule(right_alg, basis, action,
                        name=f"{M.name}⊗{W.name}")


# ---------------------------------------------------------------------------
# the Serre-quotient pair of functors at the module level
# ---------------------------------------------------------------------------

# π and ι cross the ring isomorphism C ≅ e(2)·B·e(2), shifted by one: the C
# path q is the B path C_TO_B[q], and C-degree d is B-degree d + PI_SHIFT.
C_TO_B = {Path((), "*"): Path((), "2"), Path(("x",)): Path(("a", "b"))}
PI_SHIFT = 1
_UNIT, _LOOP = C_TO_B.values()      # e(2), the image of e(*); ab, that of x


def p2_as_left_c_bimodule(B: PathAlgebra, C: PathAlgebra) -> GradedBimodule:
    """P(2) as a bimodule over (endomorphisms, B): a C path q acts on the
    left as multiplication by C_TO_B[q]. The basis is P(2)'s canonical path
    basis."""
    paths = B.projective_paths[_UNIT.vertex]
    labels = [BimodBasisVector(p.word(), B.path_degree(p), "*", B.source(p))
              for p in paths]
    return GradedBimodule(C, B, {p: k for k, p in enumerate(paths)}, labels,
                          lambda p, q: B.mul_paths(C_TO_B[q], p),
                          B.mul_paths, name="P(2)bim")


def apply_pi(M: GradedModule, C: PathAlgebra) -> GradedModule:
    """Hom from the big projective, with its degree-2 endomorphism acting;
    realized as the vertex-2 weight space shifted down by one, with x acting
    as right multiplication by ab. Computed and checked once per module:
    the image is kept on M and every later call over the same C reads it."""
    if M._pi is not None and M._pi.algebra is C:
        return M._pi
    v = _UNIT.vertex
    if v not in M.algebra.quiver.vertices:
        raise ConstructionError("apply_pi needs the two-vertex algebra")
    sel = {d: keep for d in M.degrees() if (keep := M.positions(d, v))}
    basis = {d - PI_SHIFT: ("*",) * len(keep) for d, keep in sel.items()}
    dx = M.algebra.path_degree(_LOOP)
    mats: dict[int, Matrix] = {}
    for d, keep in sel.items():
        if d + dx in sel:
            sub = M.act_path(_LOOP, d).submatrix(sel[d + dx], keep)
            if not sub.is_zero():
                mats[d - PI_SHIFT] = sub
    M._pi = GradedModule(C, basis, {"x": mats} if mats else {}, name=f"π({M.name})")
    return M._pi


def apply_pi_hom(f: ModuleHom, C: PathAlgebra) -> ModuleHom:
    """The weight-space restriction of a module map."""
    mats = {d - PI_SHIFT: f.block(d, _UNIT.vertex) for d in f.source.degrees()}
    return ModuleHom(apply_pi(f.source, C), apply_pi(f.target, C), f.degree, mats,
                     f"π({f.name})", validate=True)


def apply_iota(M: GradedModule, B: PathAlgebra) -> GradedModule:
    """Balanced tensor with the big projective, shifted up by PI_SHIFT."""
    out = tensor_with_bimodule(M, p2_as_left_c_bimodule(B, M.algebra)).shift(PI_SHIFT)
    out.name = f"ι({M.name})"
    return out

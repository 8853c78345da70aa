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
``projective`` stores P(v) once per algebra and vertex, and the left
multiplication maps, covers and differentials place their entries by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import _ONE, Matrix, affine_columns, kernel_from_columns, search_invertible
from .quiver import (AlgebraElement, BimodBasisVector, ConstructionError,
                     GradedBimodule, PathAlgebra, Path)


@dataclass(frozen=True)
class Summand:
    """The shifted indecomposable projective P(vertex)<shift>."""
    vertex: str
    shift: int

    def shifted(self, r: int) -> Summand:
        return Summand(self.vertex, self.shift + r)

    def label(self) -> str:
        if self.shift == 0:
            return f"P({self.vertex})"
        return f"P({self.vertex})<{self.shift}>"


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
            n = self.dim(d)
            m = Matrix(n, n)
            for i, lab in enumerate(self.basis.get(d, ())):
                if lab == p.vertex:
                    m.data[i][i] = Fraction(1)
            return m
        # m·(α1...αl) applies α1 first
        mat = None
        cur = d
        for name in p.arrows:
            step = self.act_arrow(name, cur)
            mat = step if mat is None else step * mat
            cur += self.algebra.quiver.arrow(name).degree
        return mat

    def act_element(self, elem: AlgebraElement, d: int) -> Matrix:
        deg = elem.degree()
        if deg is None:
            # zero element: need target dims; caller supplies homogeneous elems
            raise ConstructionError("cannot act by the zero element without a degree")
        out = Matrix(self.dim(d + deg), self.dim(d))
        for p, c in elem.terms.items():
            out = out + self.act_path(p, d).scale(c)
        return out

    # --- constructors ---

    @classmethod
    def zero_module(cls, algebra: PathAlgebra) -> GradedModule:
        """The algebra's zero module, built and checked once, as ``projective``
        stores P(v); every call returns the stored module, which nothing may
        mutate."""
        if algebra._zero_module is None:
            algebra._zero_module = cls(algebra, {}, {}, name="0")
        return algebra._zero_module

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
        action = {g: {int(k): Matrix.from_rows([[Fraction(x) for x in row] for row in m])
                      for k, m in mats.items()}
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
    an arrow g sends it to p·g."""
    layout = sum_layout(algebra, summands)
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
                    mats[d].data[hit[1]][i] = _ONE
        action[arrow.name] = {d: mats[d] for d in sorted(mats)}
    basis = {d: tuple(labels[d]) for d in sorted(labels)}
    name = " ⊕ ".join(s.label() for s in summands) or "0"
    return GradedModule(algebra, basis, action, name=name, validate=False)


def projective(algebra: PathAlgebra, v: str) -> GradedModule:
    """P(v) = e(v)·(algebra), built and checked once per algebra and vertex;
    every call returns the stored module, which nothing may mutate."""
    P = algebra._projectives.get(v)
    if P is None:
        if v not in algebra.quiver.vertices:
            raise ConstructionError(f"unknown vertex {v!r}")
        P = projective_sum(algebra, (Summand(v, 0),))
        P._validate()
        algebra._projectives[v] = P
    return P


def simple(algebra: PathAlgebra, v: str) -> GradedModule:
    if v not in algebra.quiver.vertices:
        raise ConstructionError(f"unknown vertex {v!r}")
    return GradedModule(algebra, {0: (v,)}, {}, name=f"L({v})")


def injective2(B: PathAlgebra) -> GradedModule:
    """The injective hull of the vertex-2 simple, realized as P(2)<-2>."""
    m = projective(B, "2").shift(-2)
    m.name = "I(2)"
    return m


def direct_sum(mods: list[GradedModule], algebra: PathAlgebra | None = None) -> GradedModule:
    if not mods:
        if algebra is None:
            raise ConstructionError("empty direct sum needs an algebra")
        return GradedModule.zero_module(algebra)
    alg = mods[0].algebra
    degrees = sorted({d for m in mods for d in m.degrees()})
    basis: dict[int, tuple[str, ...]] = {}
    offsets: list[dict[int, int]] = []
    for d in degrees:
        labels: list[str] = []
        for k, m in enumerate(mods):
            if len(offsets) <= k:
                offsets.append({})
            offsets[k][d] = len(labels)
            labels.extend(m.basis.get(d, ()))
        if labels:
            basis[d] = tuple(labels)
    action: dict[str, dict[int, Matrix]] = {}
    for arrow in alg.quiver.arrows:
        mats: dict[int, Matrix] = {}
        for d in degrees:
            tot_src = len(basis.get(d, ()))
            tot_tgt = len(basis.get(d + arrow.degree, ()))
            if tot_src == 0 or tot_tgt == 0:
                continue
            m = Matrix(tot_tgt, tot_src)
            for k, mod in enumerate(mods):
                blk = mod.act_arrow(arrow.name, d)
                ro = offsets[k].get(d + arrow.degree, 0)
                co = offsets[k].get(d, 0)
                for i in range(blk.nrows):
                    for j in range(blk.ncols):
                        m.data[ro + i][co + j] = blk.data[i][j]
            if not m.is_zero():
                mats[d] = m
        if mats:
            action[arrow.name] = mats
    name = " ⊕ ".join(m.name for m in mods) if mods else "0"
    return GradedModule(alg, basis, action, name=name, validate=False)


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

    def _validate(self) -> None:
        for d, m in self.mats.items():
            if m.nrows != self.target.dim(d + self.degree) or m.ncols != self.source.dim(d):
                raise ConstructionError(f"hom matrix shape mismatch at degree {d}")
        for arrow in self.source.algebra.quiver.arrows:
            g, dg = arrow.name, arrow.degree
            for d in self.source.degrees():
                lhs = self.mat(d + dg) * self.source.act_arrow(g, d)
                rhs = self.target.act_arrow(g, d + self.degree) * self.mat(d)
                if lhs != rhs:
                    raise ConstructionError(
                        f"{self.name} does not commute with {g} at degree {d}")

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
    # unknowns: entries (d, r, c) with matching vertex labels
    slots: list[tuple[int, int, int]] = []
    for d in M.degrees():
        for c in range(M.dim(d)):
            for r in range(N.dim(d + j)):
                if N.label(d + j, r) == M.label(d, c):
                    slots.append((d, r, c))
    if not slots:
        return []

    arrows = M.algebra.quiver.arrows

    def unknown_to_hom(vec) -> dict[int, Matrix]:
        mats: dict[int, Matrix] = {}
        for (d, r, c), x in zip(slots, vec):
            if x == 0:
                continue
            mats.setdefault(d, Matrix(N.dim(d + j), M.dim(d)))
            mats[d].data[r][c] += x
        return mats

    def residual(vec) -> list[Fraction]:
        mats = unknown_to_hom(vec)

        def mat(d):
            return mats.get(d, Matrix(N.dim(d + j), M.dim(d)))

        col: list[Fraction] = []
        for arrow in arrows:
            g, dg = arrow.name, arrow.degree
            for d in M.degrees():
                lhs = mat(d + dg) * M.act_arrow(g, d)
                rhs = N.act_arrow(g, d + j) * mat(d)
                diff = lhs - rhs
                col.extend(x for row in diff.data for x in row)
        return col

    column, _ = affine_columns(residual, len(slots))
    kernel = kernel_from_columns(column, len(slots))
    homs = []
    for i, vec in enumerate(kernel):
        homs.append(ModuleHom(M, N, j, unknown_to_hom(vec), name=f"h{j}_{i}"))
    return homs


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

def tensor_with_bimodule(M: GradedModule, W: GradedBimodule,
                         name: str | None = None) -> GradedModule:
    """M ⊗_A W for a right A-module M and (A, B)-bimodule W, as a right
    B-module: the degreewise quotient of M ⊗ W by the balancing relations."""
    A = W.left_algebra
    if M.algebra is not A:
        raise ConstructionError("module algebra must match the bimodule's left algebra")
    right_alg = W.right_algebra
    pairs: list[tuple[int, int, int]] = []   # (module degree, module index, bimodule index)
    pair_pos: dict[tuple[int, int, int], int] = {}
    for d in M.degrees():
        for i in range(M.dim(d)):
            for k in range(W.dim()):
                pair_pos[(d, i, k)] = len(pairs)
                pairs.append((d, i, k))
    by_total: dict[int, list[int]] = {}
    pos: dict[int, int] = {}                 # pair index -> place in its total degree
    for idx, (d, i, k) in enumerate(pairs):
        idxs = by_total.setdefault(d + W.basis[k].degree, [])
        pos[idx] = len(idxs)
        idxs.append(idx)

    # relation rows (m·g)⊗w − m⊗(g·w), each built once in its total degree;
    # a total degree without pairs gets none, since both terms vanish there.
    # left[(g, k)] is the position of g·w_k, or None when it is zero
    left = {(g, k): W.index.get(W.left(key, g)) for g in A.basis for key, k in W.index.items()}
    rel_rows: dict[int, list[list[Fraction]]] = {}
    for (d2, i2, k2) in pairs:
        for g in A.basis:
            dg = A.path_degree(g)
            total = d2 + dg + W.basis[k2].degree
            if total not in by_total:
                continue
            row = [Fraction(0)] * len(by_total[total])
            mg = M.act_path(g, d2)
            for r in range(mg.nrows):
                if mg.data[r][i2] != 0:
                    row[pos[pair_pos[(d2 + dg, r, k2)]]] += mg.data[r][i2]
            j = left[(g, k2)]
            if j is not None:
                row[pos[pair_pos[(d2, i2, j)]]] -= _ONE
            if any(x != 0 for x in row):
                rel_rows.setdefault(total, []).append(row)
    reducers: dict[int, tuple[Matrix, list[int]]] = {}
    quot_free: dict[int, list[int]] = {}   # positions (within by_total) kept
    basis: dict[int, tuple[str, ...]] = {}
    for total, idxs in sorted(by_total.items()):
        reducers[total] = Matrix.from_rows(rel_rows.get(total, [])).rref()
        free = [p for p in range(len(idxs)) if p not in reducers[total][1]]
        quot_free[total] = free
        labels = [W.basis[pairs[idxs[p]][2]].right_vertex for p in free]
        if labels:
            basis[total] = tuple(labels)

    def reduce_vec(total: int, vec: list[Fraction]) -> list[Fraction]:
        R, piv = reducers[total]
        v = list(vec)
        for r, pc in enumerate(piv):
            if v[pc] != 0:
                f = v[pc]
                v = [x - f * y for x, y in zip(v, R.data[r])]
        return [v[p] for p in quot_free[total]]

    action: dict[str, dict[int, Matrix]] = {}
    for arrow in right_alg.quiver.arrows:
        g = Path((arrow.name,))
        right = {k: W.index.get(W.right(key, g)) for key, k in W.index.items()}
        mats: dict[int, Matrix] = {}
        for total, free in quot_free.items():
            tgt_total = total + arrow.degree
            if not free or tgt_total not in quot_free or not quot_free[tgt_total]:
                continue
            idxs = by_total[total]
            cols = []
            for p in free:
                d, i, k = pairs[idxs[p]]
                tvec = [Fraction(0)] * len(by_total[tgt_total])
                if right[k] is not None:
                    tvec[pos[pair_pos[(d, i, right[k])]]] = _ONE
                cols.append(reduce_vec(tgt_total, tvec))
            m = Matrix(len(quot_free[tgt_total]), len(free),
                       [[cols[j][i] for j in range(len(free))]
                        for i in range(len(quot_free[tgt_total]))])
            if not m.is_zero():
                mats[total] = m
        if mats:
            action[arrow.name] = mats
    return GradedModule(right_alg, basis, action,
                        name=name or f"{M.name}⊗{W.name}")


def p2_as_left_c_bimodule(B: PathAlgebra, C: PathAlgebra) -> GradedBimodule:
    """P(2) as a bimodule over (endomorphisms, B): x acts on the left as
    multiplication by ab. The basis is P(2)'s canonical path basis."""
    paths = B.projective_paths["2"]
    labels = [BimodBasisVector(p.word(), B.path_degree(p), "*", B.source(p))
              for p in paths]
    ab = Path(("a", "b"))
    # C's basis paths are e(*), acting as 1, and x, acting as ab
    return GradedBimodule(C, B, {p: k for k, p in enumerate(paths)}, labels,
                          lambda p, q: B.mul_paths(ab, p) if q.arrows else p,
                          B.mul_paths, name="P(2)bim")


# ---------------------------------------------------------------------------
# the Serre-quotient pair of functors at the module level
# ---------------------------------------------------------------------------

def apply_pi(M: GradedModule, C: PathAlgebra) -> GradedModule:
    """Hom from the big projective, with its degree-2 endomorphism acting;
    realized as the vertex-2 weight space shifted down by one, with x acting
    as right multiplication by ab."""
    if "2" not in M.algebra.quiver.vertices:
        raise ConstructionError("apply_pi needs the two-vertex algebra")
    B = M.algebra
    sel: dict[int, list[int]] = {}
    for d in M.degrees():
        keep = [i for i in range(M.dim(d)) if M.label(d, i) == "2"]
        if keep:
            sel[d] = keep
    basis = {d - 1: tuple("*" for _ in keep) for d, keep in sel.items()}
    c_elem = B.path_element(("a", "b"))
    mats: dict[int, Matrix] = {}
    for d, keep in sel.items():
        if (d + 2) not in sel:
            continue
        full = M.act_element(c_elem, d)
        sub = full.submatrix(sel[d + 2], keep)
        if not sub.is_zero():
            mats[d - 1] = sub
    return GradedModule(C, basis, {"x": mats} if mats else {},
                        name=f"π({M.name})")


def apply_pi_hom(f: ModuleHom, C: PathAlgebra) -> ModuleHom:
    """The weight-space restriction of a module map."""
    M, N = f.source, f.target
    piM, piN = apply_pi(M, C), apply_pi(N, C)
    mats: dict[int, Matrix] = {}
    for d in M.degrees():
        rows = [i for i in range(N.dim(d + f.degree)) if N.label(d + f.degree, i) == "2"]
        cols = [i for i in range(M.dim(d)) if M.label(d, i) == "2"]
        if not rows or not cols:
            continue
        sub = f.mat(d).submatrix(rows, cols)
        if not sub.is_zero():
            mats[d - 1] = sub
    return ModuleHom(piM, piN, f.degree, mats, f"π({f.name})", validate=True)


def apply_iota(M: GradedModule, B: PathAlgebra) -> GradedModule:
    """Balanced tensor with the big projective, shifted up by one."""
    C = M.algebra
    W = p2_as_left_c_bimodule(B, C)
    out = tensor_with_bimodule(M, W, name=f"ι({M.name})")
    out = out.shift(1)
    out.name = f"ι({M.name})"
    return out

"""Minimal projective resolutions of modules, and termwise-surjective free
resolutions of bounded-above complexes.

The complex resolver builds, by descending induction, a projective complex P
with a quasi-isomorphism onto the input: at each step the new term is a
minimal cover of the fiber product {(y, p) : p a cycle one degree up,
augmentation(p) = d(y)}, which simultaneously fixes surjectivity of the
augmentation, the cycle-lifting property, and the cohomology comparison.
For a single module this degenerates to the usual minimal resolution by
iterated projective covers. Below a bounded input the descent stops at the
resolution repeat of "Windows and margins" in the ``complexes`` docstring.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import (LEFT_TAIL, AlgMatrix, Complex, ProjComplex, Summand,
                        TailSpec, attach_tail)
from .linalg import Matrix, unit_vector
from .modules import (GradedModule, ModuleHom, direct_sum, projective_sum,
                      sum_layout)
from .quiver import ConstructionError, PathAlgebra, Path


# ---------------------------------------------------------------------------
# submodules
# ---------------------------------------------------------------------------

def submodule_from_vectors(ambient: GradedModule,
                           vectors: dict[int, list[list[Fraction]]],
                           name: str = "K") -> tuple[GradedModule, ModuleHom]:
    """The submodule spanned by label-homogeneous vectors, with inclusion.

    Vectors are given per internal degree in ambient coordinates; each must
    be supported on basis vectors of a single vertex label, and the span must
    be closed under the algebra action (checked exactly).
    """
    alg = ambient.algebra
    bases: dict[int, list[list[Fraction]]] = {}
    labels: dict[int, list[str]] = {}
    for d, vecs in sorted(vectors.items()):
        if not vecs:
            continue
        R, piv = Matrix.from_rows(vecs).rref()
        basis_rows = [R.data[r] for r in range(len(piv))]
        labs = []
        for row in basis_rows:
            support_labels = {ambient.label(d, j) for j, x in enumerate(row) if x != 0}
            if len(support_labels) != 1:
                raise ConstructionError("submodule basis vector is not label-homogeneous")
            labs.append(support_labels.pop())
        bases[d] = basis_rows
        labels[d] = labs
    basis = {d: tuple(labels[d]) for d in bases}
    action: dict[str, dict[int, Matrix]] = {}
    for arrow in alg.quiver.arrows:
        g, dg = arrow.name, arrow.degree
        mats: dict[int, Matrix] = {}
        for d, rows in bases.items():
            td = d + dg
            tgt_rows = bases.get(td, [])
            m = Matrix(len(tgt_rows), len(rows))
            amb = ambient.act_arrow(g, d)
            for j, vec in enumerate(rows):
                img = amb.apply(vec)
                if all(x == 0 for x in img):
                    continue
                if not tgt_rows:
                    raise ConstructionError("submodule is not action-closed")
                T = Matrix(len(img), len(tgt_rows),
                           [[tgt_rows[c][rr] for c in range(len(tgt_rows))]
                            for rr in range(len(img))])
                sol = T.solve(img)
                if sol is None:
                    raise ConstructionError("submodule is not action-closed")
                for r, x in enumerate(sol):
                    m.data[r][j] = x
            if not m.is_zero():
                mats[d] = m
        if mats:
            action[g] = mats
    sub = GradedModule(alg, basis, action, name=name)
    incl_mats = {d: Matrix(len(ambient.basis.get(d, ())), len(rows),
                           [[rows[j][i] for j in range(len(rows))]
                            for i in range(len(ambient.basis.get(d, ())))])
                 for d, rows in bases.items()}
    incl = ModuleHom(sub, ambient, 0, incl_mats, f"incl({name})")
    return sub, incl


def kernel_submodule(f: ModuleHom, name: str = "ker") -> tuple[GradedModule, ModuleHom]:
    """Kernel of a degree-0 module map, per (degree, label) block."""
    M = f.source
    vectors: dict[int, list[list[Fraction]]] = {}
    for d in M.degrees():
        mat = f.mat(d)
        vecs: list[list[Fraction]] = []
        for v in sorted(set(M.basis.get(d, ()))):
            cols = [k for k in range(M.dim(d)) if M.label(d, k) == v]
            tgt = f.target
            rows = [k for k in range(tgt.dim(d + f.degree))
                    if tgt.label(d + f.degree, k) == v]
            blk = mat.submatrix(rows, cols) if rows else Matrix(0, len(cols))
            for kv in blk.nullspace():
                full = [Fraction(0)] * M.dim(d)
                for c, x in zip(cols, kv):
                    full[c] = x
                vecs.append(full)
        if vecs:
            vectors[d] = vecs
    return submodule_from_vectors(M, vectors, name=name)


# ---------------------------------------------------------------------------
# minimal covers
# ---------------------------------------------------------------------------

def minimal_generators(M: GradedModule) -> list[tuple[int, int, list[Fraction]]]:
    """Representatives of a basis of M modulo M·radical: (degree, label-index
    placeholder, coordinate vector). Ties broken by degree then vertex order
    then position, which makes covers canonical."""
    alg = M.algebra
    gens = []
    for d in M.degrees():
        n = M.dim(d)
        rad_rows: list[list[Fraction]] = []
        for arrow in alg.quiver.arrows:
            g, dg = arrow.name, arrow.degree
            src_d = d - dg
            if M.dim(src_d) == 0:
                continue
            mat = M.act_arrow(g, src_d)
            for j in range(mat.ncols):
                rad_rows.append([mat.data[r][j] for r in range(n)])
        if rad_rows:
            R, piv = Matrix.from_rows(rad_rows).rref()
        else:
            R, piv = Matrix(0, n), []
        # complement of the radical part: unit vectors at non-pivot positions,
        # in vertex order then position order
        order = sorted(range(n), key=lambda k: (M.algebra.quiver.vertices.index(M.label(d, k)), k))
        chosen: list[list[Fraction]] = []
        span_rows = [R.data[r][:] for r in range(len(piv))]
        rank = len(piv)
        for k in order:
            if rank + len(chosen) >= n:
                break
            cand = unit_vector(n, k)
            trial = span_rows + [c[:] for c in chosen] + [cand]
            if Matrix.from_rows(trial).rank() == rank + len(chosen) + 1:
                chosen.append(cand)
        for vec in chosen:
            lab_idx = next(j for j, x in enumerate(vec) if x != 0)
            gens.append((d, lab_idx, vec))
    return gens


def projective_cover(M: GradedModule) -> tuple[tuple[Summand, ...], ModuleHom]:
    """Minimal cover ⊕ P(v)<d> ↠ M with the covering map."""
    alg = M.algebra
    gens = minimal_generators(M)
    summands = tuple(Summand(M.label(d, lab_idx), d) for (d, lab_idx, _vec) in gens)
    cover = projective_sum(alg, summands)
    mats = _extend_generators_to_hom(cover, summands, M,
                                     [vec for (_d, _i, vec) in gens])
    eps = ModuleHom(cover, M, 0, mats, "cover")
    return summands, eps


def _extend_generators_to_hom(cover: GradedModule, summands: tuple[Summand, ...],
                              target: GradedModule,
                              gen_images: list[list[Fraction]]) -> dict[int, Matrix]:
    """Module map on a sum of cyclic projectives from its generator images:
    the basis path q in summand s goes to (image of the s-generator)·q."""
    mats: dict[int, Matrix] = {}
    for s, positions, img0 in zip(summands, sum_layout(target.algebra, summands),
                                  gen_images):
        for p, (d, col) in positions.items():
            vec = img0 if p.is_trivial() else target.act_path(p, s.shift).apply(img0)
            m = mats.setdefault(d, Matrix(target.dim(d), cover.dim(d)))
            for r, x in enumerate(vec):
                m.data[r][col] = x
    return {d: m for d, m in mats.items() if not m.is_zero()}


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------

def projective_resolution(M: GradedModule, depth: int) -> ProjComplex:
    """Minimal resolution by iterated covers up to their repeat, stored to
    ``depth`` steps; attaches a left tail when the syzygy pattern becomes
    periodic. This is ``resolve_complex`` on the complex with M in degree 0."""
    return resolve_complex(Complex.from_module(M), depth)[0]


def _hom_to_alg_matrix(f: ModuleHom, src_summands: tuple[Summand, ...],
                       tgt_summands: tuple[Summand, ...],
                       alg: PathAlgebra) -> AlgMatrix:
    """Recover left-multiplication entries of a degree-0 map between sums of
    cyclic projectives from the images of the summand generators: the image
    of summand j's generator e(v) has, at target basis path p of summand b,
    the coefficient of p in entry (b, j)."""
    out = AlgMatrix.zero(alg, tgt_summands, src_summands)
    at = {dr: (b, p) for b, positions in enumerate(sum_layout(alg, tgt_summands))
          for p, dr in positions.items()}
    for j, (s, positions) in enumerate(zip(src_summands, sum_layout(alg, src_summands))):
        d, col = positions[Path((), s.vertex)]
        m = f.mats.get(d)
        if m is None:
            continue
        for r in range(m.nrows):
            if m.data[r][col] != 0:
                b, p = at[(d, r)]
                out.entries[b][j] = out.entries[b][j] + alg.element({p: m.data[r][col]})
    return out


def resolve_complex(Y: Complex, depth: int
                    ) -> tuple[ProjComplex, dict[int, ModuleHom]]:
    """Termwise-surjective quasi-isomorphism from a complex of projectives.

    Returns the resolution (descending to ``window_lo - depth``) and the
    augmentation maps from the computed terms onto the input terms: below a
    bounded input, where it is zero, only down to the resolution repeat.
    The floor cuts the resolution, which must then show a left tail, only
    where it goes on below: for a left-tailed input, at a repeat, or when
    the step past the floor is nonzero ("Resolution repeat" in the
    ``complexes`` module docstring).
    """
    alg = Y.algebra
    if Y.is_zero():
        return ProjComplex.zero_complex(alg), {}
    ylo, yhi = Y.window()
    floor = ylo - depth
    # a left-tailed input is resolved through the floor on its materialized
    # terms, so the resolution's tail is detected there
    Y = Y.materialize(floor, yhi)
    # the steps below this degree read only the differential one degree up;
    # a left-tailed input has terms down to the floor and is resolved in full
    pure_below = Y.window()[0] - 1
    # below a bounded input the step past the floor is taken only to see
    # whether the resolution goes on there
    last = floor if Y.tail is not None else floor - 1
    repeat = None
    past_floor = False
    terms: dict[int, tuple[Summand, ...]] = {}
    diffs: dict[int, AlgMatrix] = {}
    augment: dict[int, ModuleHom] = {}
    realized: dict[int, GradedModule] = {}
    dmats: dict[int, ModuleHom] = {}
    zero_mod = GradedModule.zero_module(alg)

    for i in range(yhi, last - 1, -1):
        Yi = Y.term(i)
        P_next = realized.get(i + 1, zero_mod)
        # cycles one degree up: kernel of the differential out of P^{i+1}
        if P_next.is_zero():
            Z, z_incl = zero_mod, None
        elif dmats.get(i + 1) is None:
            vec_all = {d: [unit_vector(P_next.dim(d), k) for k in range(P_next.dim(d))]
                       for d in P_next.degrees()}
            Z, z_incl = submodule_from_vectors(P_next, vec_all, name="Z")
        else:
            Z, z_incl = kernel_submodule(dmats[i + 1], name="Z")

        # W = {(y, z) : d_Y(y) = eps(z)} inside Y^i ⊕ Z; both constraints and
        # labels are degreewise exact linear algebra
        parts = [m for m in (Yi, Z) if not m.is_zero()]
        if not parts:
            continue
        amb = direct_sum(parts, alg)
        dY = Y.diff(i)
        eps_next = augment.get(i + 1)
        vectors: dict[int, list[list[Fraction]]] = {}
        for d in sorted(set(list(Yi.degrees()) + list(Z.degrees()))):
            ny, nz = Yi.dim(d), Z.dim(d)
            n_t = Y.term(i + 1).dim(d)

            def constraint(vec_y, vec_z):
                a = dY.mat(d).apply(vec_y) if ny else [Fraction(0)] * n_t
                if nz and z_incl is not None:
                    zc = z_incl.mat(d).apply(vec_z)
                    b = eps_next.mat(d).apply(zc)
                else:
                    b = [Fraction(0)] * n_t
                return [x - y for x, y in zip(a, b)]

            # a unit vector of Y^i ⊕ Z splits into its Y part and its Z part
            units = [unit_vector(ny + nz, k) for k in range(ny + nz)]
            cols = [constraint(e[:ny], e[ny:]) for e in units]
            if not cols:
                continue
            if not cols[0]:
                vecs = units
            else:
                A = Matrix(len(cols[0]), len(cols),
                           [[cols[j][r] for j in range(len(cols))]
                            for r in range(len(cols[0]))])
                vecs = A.nullspace()
            split = []
            for v in vecs:
                for lab in sorted({_amb_label(Yi, Z, d, j)
                                   for j, x in enumerate(v) if x != 0}):
                    # label parts of a solution are solutions: the constraint
                    # preserves vertex labels
                    split.append([x if _amb_label(Yi, Z, d, j) == lab else Fraction(0)
                                  for j, x in enumerate(v)])
            if split:
                vectors[d] = split
        if not vectors:
            continue
        W, w_incl = submodule_from_vectors(amb, vectors, name="W")
        if W.is_zero():
            continue
        if i < floor:
            past_floor = True
            break
        summands, epsW = projective_cover(W)
        terms[i] = summands
        realized[i] = epsW.source
        full = w_incl.compose(epsW)
        # split into the Y-component (augmentation) and Z-component (differential)
        y_mats: dict[int, Matrix] = {}
        z_mats: dict[int, Matrix] = {}
        for d in realized[i].degrees():
            m = full.mat(d)
            ny = Yi.dim(d)
            if ny:
                ym = m.submatrix(range(ny), range(m.ncols))
                if not ym.is_zero():
                    y_mats[d] = ym
            if m.nrows - ny > 0:
                zm = m.submatrix(range(ny, m.nrows), range(m.ncols))
                if not zm.is_zero():
                    z_mats[d] = zm
        augment[i] = ModuleHom(realized[i], Yi, 0, y_mats, "eps", validate=False)
        if not Z.is_zero():
            z_hom = ModuleHom(realized[i], Z, 0, z_mats, "toZ", validate=False)
            into_P = z_incl.compose(z_hom)
            dmats[i] = into_P
            diffs[i] = _hom_to_alg_matrix(into_P, summands, terms[i + 1], alg)
            repeat = _resolution_repeat(terms, diffs, i, pure_below)
            if repeat is not None:
                break

    if repeat is not None:
        part = ProjComplex(alg, terms, diffs, repeat, validate=False)
        extended = part.materialize(floor, yhi)
        terms, diffs = extended.terms, extended.diffs
    pc = ProjComplex(alg, terms, diffs, None, f"res({Y.name})")
    if not pc.is_zero() and (Y.tail is not None or repeat is not None or past_floor):
        pc = attach_tail(pc, pc.window(), LEFT_TAIL,
                         f"resolution of {Y.name} neither terminates nor "
                         f"stabilizes at depth {depth}")
    return pc, augment


def _resolution_repeat(terms: dict[int, tuple[Summand, ...]],
                       diffs: dict[int, AlgMatrix], i: int,
                       pure_below: int) -> TailSpec | None:
    """The left tail from degree i on when d(i) = d(i + p)<s> for some
    p <= 4 with i + p <= ``pure_below``: the resolution repeat."""
    for p in range(1, min(4, pure_below - i) + 1):
        s = terms[i][0].shift - terms[i + p][0].shift
        if diffs[i] == diffs[i + p].shifted(s):
            return TailSpec(LEFT_TAIL, i, p, s)
    return None


def _amb_label(Yi: GradedModule, Z: GradedModule, d: int, j: int) -> str:
    ny = Yi.dim(d)
    if j < ny:
        return Yi.label(d, j)
    return Z.label(d, j - ny)

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

Every span, kernel and complement comes from one reduced echelon form: the
cycles and the fiber product are kernels of module maps, taken per (degree,
vertex label) block; a submodule's basis is the reduced form of its span and
its action is read at that basis's pivots; a cover's generators are the
positions that are not pivots of the radical reduced once.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import (LEFT_TAIL, AlgMatrix, Complex, ProjComplex, Summand,
                        TailSpec, WindowTooSmall, attach_tail)
from .linalg import Matrix, unit_vector, zero_matrix
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

    Vectors are given per internal degree in ambient coordinates. The basis
    of each degree is the reduced echelon form of their span, so it depends
    on the span alone, and each basis vector must be supported on basis
    vectors of a single vertex label. An arrow's image of the basis has its
    coordinates at the pivots of the target degree's basis, and the span
    must be closed under the algebra action: the image must equal the
    recombination of those coordinates (checked exactly). These are the
    inclusion's label and commutator checks, so it is not validated again.
    """
    span: dict[int, Matrix] = {}      # columns: the reduced basis of a degree
    pivots: dict[int, list[int]] = {}
    labels: dict[int, tuple[str, ...]] = {}
    for d, vecs in sorted(vectors.items()):
        R, piv = Matrix.from_rows(vecs).rref()
        if not piv:
            continue
        rows = R.data[:len(piv)]
        labs = []
        for row in rows:
            support_labels = {ambient.label(d, j) for j, x in enumerate(row) if x != 0}
            if len(support_labels) != 1:
                raise ConstructionError("submodule basis vector is not label-homogeneous")
            labs.append(support_labels.pop())
        span[d] = Matrix(ambient.dim(d), len(rows), list(zip(*rows)))
        pivots[d] = piv
        labels[d] = tuple(labs)
    action: dict[str, dict[int, Matrix]] = {}
    for arrow in ambient.algebra.quiver.arrows:
        mats: dict[int, Matrix] = {}
        for d, S in span.items():
            act = ambient.action.get(arrow.name, {}).get(d)
            if act is None:     # the arrow is zero on this degree
                continue
            td = d + arrow.degree
            img = act * S
            m = img.submatrix(pivots.get(td, []), range(S.ncols))
            into = span[td] if td in span else zero_matrix(ambient.dim(td), 0)
            if into * m != img:
                raise ConstructionError("submodule is not action-closed")
            if not m.is_zero():
                mats[d] = m
        if mats:
            action[arrow.name] = mats
    sub = GradedModule(ambient.algebra, labels, action, name=name)
    return sub, ModuleHom(sub, ambient, 0, span, f"incl({name})", validate=False)


def kernel_submodule(f: ModuleHom, name: str = "ker") -> tuple[GradedModule, ModuleHom]:
    """Kernel of a degree-0 module map, per (degree, label) block."""
    M = f.source
    vectors: dict[int, list[list[Fraction]]] = {}
    for d in M.degrees():
        vectors[d] = []
        for v in sorted(set(M.basis[d])):
            cols = M.positions(d, v)
            for kv in f.block(d, v).nullspace():
                full = [0] * M.dim(d)
                for c, x in zip(cols, kv):
                    full[c] = x
                vectors[d].append(full)
    return submodule_from_vectors(M, vectors, name=name)


# ---------------------------------------------------------------------------
# minimal covers
# ---------------------------------------------------------------------------

def minimal_generators(M: GradedModule) -> list[tuple[int, int, list[Fraction]]]:
    """Representatives of a basis of M modulo M·radical: (degree, position,
    unit vector). Ties are broken by degree, then vertex order, then
    position, which makes covers canonical.

    Taking a unit vector whenever it is independent of the radical and of
    the ones taken before, in that order, takes the earliest complement of
    the radical. A position is left out exactly when some radical vector is
    zero at every later position and nonzero at it, that is when it is a
    pivot of the radical's rows reduced with the positions in reversed
    order; so one reduction per degree gives the generators."""
    vertices = M.algebra.quiver.vertices
    gens = []
    for d in M.degrees():
        order = sorted(range(M.dim(d)), key=lambda k: (vertices.index(M.label(d, k)), k))
        rev = order[::-1]
        rad_rows = []
        for arrow in M.algebra.quiver.arrows:
            if M.dim(d - arrow.degree):
                mat = M.act_arrow(arrow.name, d - arrow.degree)
                rad_rows += [[mat.data[k][j] for k in rev] for j in range(mat.ncols)]
        spanned = {rev[c] for c in Matrix.from_rows(rad_rows).rref()[1]}
        gens += [(d, k, unit_vector(M.dim(d), k)) for k in order if k not in spanned]
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
    at = {dr: (b, p) for b, positions in enumerate(sum_layout(alg, tgt_summands))
          for p, dr in positions.items()}
    items = []
    for j, (s, positions) in enumerate(zip(src_summands, sum_layout(alg, src_summands))):
        d, col = positions[Path((), s.vertex)]
        m = f.mats.get(d)
        if m is None:
            continue
        for r in range(m.nrows):
            if m.data[r][col] != 0:
                b, p = at[(d, r)]
                items.append((b, j, alg.element({p: m.data[r][col]})))
    return AlgMatrix.from_sums(alg, tgt_summands, src_summands, items)


def resolve_complex(Y: Complex, depth: int
                    ) -> tuple[ProjComplex, dict[int, ModuleHom]]:
    """Termwise-surjective quasi-isomorphism from a complex of projectives.

    Returns the resolution (descending to ``window_lo - depth``) and the
    augmentation maps from the computed terms onto the input terms: below a
    bounded input, where it is zero, only down to the resolution repeat.
    The floor cuts the resolution, which must then show a left tail, only
    where it goes on below: for a left-tailed input, at a repeat, which
    ``attach_tail`` copies on to the floor, or when the step past the floor
    is nonzero ("Resolution repeat" in the ``complexes`` module docstring).
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
        Yi, P_next = Y.term(i), realized.get(i + 1, zero_mod)
        if Yi.is_zero() and P_next.is_zero():    # then W ⊂ Y^i ⊕ Z is zero
            continue
        Y_next = Y.term(i + 1)
        # cycles one degree up: the kernel of the differential out of P^{i+1}
        d_out = dmats.get(i + 1) or ModuleHom(P_next, zero_mod, 0, {}, validate=False)
        Z, z_incl = kernel_submodule(d_out, name="Z")
        # W = {(y, z) : d_Y(y) = eps(z)}: the kernel of (d_Y, -eps∘incl_Z)
        # from Y^i ⊕ Z to Y^{i+1}. Where Y^i and Y^{i+1} are zero the map
        # lands in zero, so W is Z, on its own basis ("Resolution repeat")
        if Yi.is_zero() and Y_next.is_zero():
            W, w_incl = Z, None
        else:
            eps = augment.get(i + 1) or ModuleHom(P_next, Y_next, 0, {}, validate=False)
            eps_z = eps.compose(z_incl)
            amb, dY = direct_sum([Yi, Z]), Y.diff(i)
            to_next = ModuleHom(amb, Y_next, 0, {d: dY.mat(d).hstack(-eps_z.mat(d))
                                                 for d in amb.degrees()}, validate=False)
            W, w_incl = kernel_submodule(to_next, name="W")
        if W.is_zero():
            continue
        if i < floor:
            past_floor = True
            break
        summands, epsW = projective_cover(W)
        terms[i] = summands
        realized[i] = epsW.source
        # the cover's map into Y^i ⊕ Z: in each degree d its first dim Y^i_d
        # rows are the augmentation onto Y^i, the rest the map into Z
        full = (epsW if w_incl is None else w_incl.compose(epsW)).mats
        augment[i] = ModuleHom(realized[i], Yi, 0, {
            d: m.submatrix(range(Yi.dim(d)), range(m.ncols)) for d, m in full.items()},
            "eps", validate=False)
        if not Z.is_zero():
            z_hom = ModuleHom(realized[i], Z, 0, {
                d: m.submatrix(range(Yi.dim(d), m.nrows), range(m.ncols))
                for d, m in full.items()}, "toZ", validate=False)
            into_P = z_incl.compose(z_hom)
            dmats[i] = into_P
            diffs[i] = _hom_to_alg_matrix(into_P, summands, terms[i + 1], alg)
            repeat = _resolution_repeat(terms, diffs, i, pure_below)
            if repeat is not None:
                break

    pc = ProjComplex(alg, terms, diffs, None, f"res({Y.name})")
    if not pc.is_zero() and (Y.tail is not None or repeat is not None or past_floor):
        # the resolution goes on below the floor, so it is never bounded there
        message = f"resolution of {Y.name} neither terminates nor stabilizes at depth {depth}"
        pc = attach_tail(ProjComplex(alg, terms, diffs, repeat, pc.name, validate=False),
                         (floor, yhi), LEFT_TAIL, message)
        if pc.tail is None:
            raise WindowTooSmall(message)
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


"""Below a bounded input ``resolve_complex`` stops at its own repeat and
extends the rest by the tail rule. The full-depth descent it replaced is kept
here as the reference: both give the same resolution, tail and augmentation
on every degree the new code computes, or raise the same error, and the
number of covers computed no longer grows with the depth."""

from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from jwcat import resolutions
from jwcat.complexes import (LEFT_TAIL, AlgMatrix, Complex, ProjComplex,
                             Summand, attach_tail, realize)
from jwcat.functors import P_on_object, Setup
from jwcat.linalg import Matrix, unit_vector
from jwcat.modules import (GradedModule, ModuleHom, apply_pi, apply_pi_hom,
                           direct_sum, simple)
from jwcat.resolutions import (_hom_to_alg_matrix, kernel_submodule,
                               projective_cover, resolve_complex,
                               submodule_from_vectors)
from test_tails import outcome

SETUP = Setup.create()
B, C = SETUP.B, SETUP.C


# ---------------------------------------------------------------------------
# the full-depth descent, as reference
# ---------------------------------------------------------------------------

def _amb_label(Yi, Z, d, j):
    """The vertex label of coordinate j of (Y^i ⊕ Z) in internal degree d."""
    ny = Yi.dim(d)
    return Yi.label(d, j) if j < ny else Z.label(d, j - ny)


def ref_resolve_complex(Y, depth):
    """Every degree from the input's top down to the floor is computed as a
    minimal cover of the fiber product, whether or not it repeats."""
    alg = Y.algebra
    if Y.is_zero():
        return ProjComplex.zero_complex(alg), {}
    ylo, yhi = Y.window()
    floor = ylo - depth
    Y = Y.materialize(floor, yhi)
    terms, diffs, augment, realized, dmats = {}, {}, {}, {}, {}
    zero_mod = GradedModule.zero_module(alg)

    for i in range(yhi, floor - 1, -1):
        Yi = Y.term(i)
        P_next = realized.get(i + 1, zero_mod)
        if P_next.is_zero():
            Z, z_incl = zero_mod, None
        elif dmats.get(i + 1) is None:
            vec_all = {d: [unit_vector(P_next.dim(d), k) for k in range(P_next.dim(d))]
                       for d in P_next.degrees()}
            Z, z_incl = submodule_from_vectors(P_next, vec_all, name="Z")
        else:
            Z, z_incl = kernel_submodule(dmats[i + 1], name="Z")

        parts = [m for m in (Yi, Z) if not m.is_zero()]
        if not parts:
            continue
        amb = direct_sum(parts, alg)
        dY = Y.diff(i)
        eps_next = augment.get(i + 1)
        vectors = {}
        for d in sorted(set(list(Yi.degrees()) + list(Z.degrees()))):
            ny, nz = Yi.dim(d), Z.dim(d)
            n_t = Y.term(i + 1).dim(d)

            def constraint(vec_y, vec_z):
                a = dY.mat(d).apply(vec_y) if ny else [Fraction(0)] * n_t
                if nz and z_incl is not None:
                    b = eps_next.mat(d).apply(z_incl.mat(d).apply(vec_z))
                else:
                    b = [Fraction(0)] * n_t
                return [x - y for x, y in zip(a, b)]

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
                    split.append([x if _amb_label(Yi, Z, d, j) == lab else Fraction(0)
                                  for j, x in enumerate(v)])
            if split:
                vectors[d] = split
        if not vectors:
            continue
        W, w_incl = submodule_from_vectors(amb, vectors, name="W")
        if W.is_zero():
            continue
        summands, epsW = projective_cover(W)
        terms[i] = summands
        realized[i] = epsW.source
        full = w_incl.compose(epsW)
        y_mats, z_mats = {}, {}
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

    pc = ProjComplex(alg, terms, diffs, None, f"res({Y.name})")
    if not pc.is_zero() and min(terms) <= floor + 1:
        pc = attach_tail(pc, pc.window(), LEFT_TAIL,
                         f"resolution of {Y.name} neither terminates nor "
                         f"stabilizes at depth {depth}")
    return pc, augment


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def augment_data(aug):
    return {i: {d: m.data for d, m in f.mats.items()} for i, f in aug.items()}


def same_resolution(Y, depth):
    """Resolve ``Y`` both ways and assert the outcomes agree: the complex
    with its tail, and the augmentation on every degree computed, or the
    type and text of the error.

    The one allowed difference is "ended": the reference calls a resolution
    that ends at the floor or one degree above it cut there, and raises.
    The new code computes the step past the floor, sees it is zero, and
    returns the resolution untailed, as the reference gives it 4 degrees
    deeper."""
    got, want = outcome(resolve_complex, Y, depth), outcome(ref_resolve_complex, Y, depth)
    if got[0] == "value" and want[0] == "WindowTooSmall" \
            and "neither terminates nor stabilizes" in want[1]:
        assert got[1][0].tail is None, (Y.name, depth)
        assert_same_value(got[1], ref_resolve_complex(Y, depth + 4), (Y.name, depth))
        return "ended"
    assert got[0] == want[0], (Y.name, depth, got, want)
    if got[0] != "value":
        assert got == want
        return got[0]
    assert_same_value(got[1], want[1], (Y.name, depth))
    return got[0]


def assert_same_value(got, want, label):
    (pc, aug), (ref_pc, ref_aug) = got, want
    assert pc.to_json() == ref_pc.to_json(), label
    assert pc.tail == ref_pc.tail
    assert set(aug) <= set(ref_aug)
    ref_data = augment_data(ref_aug)
    assert augment_data(aug) == {i: ref_data[i] for i in aug}
    # only the degrees below the input are left to the repeat, where the
    # augmentation is zero
    assert all(not ref_aug[i].mats for i in set(ref_aug) - set(aug))


def module_cases():
    mods = dict(SETUP.standard_modules())
    mods.update({f"π({name})": apply_pi(m, C) for name, m in list(mods.items())})
    mods["C/x"] = simple(C, "*")
    return {name: m for name, m in mods.items() if not m.is_zero()}


# the generator maps as two-term complexes, source in degree -1
GENERATOR_SUMMANDS = {
    "c": (Summand("2", 2), Summand("2", 0)), "a": (Summand("1", 1), Summand("2", 0)),
    "b": (Summand("2", 1), Summand("1", 0)), "e(1)": (Summand("1", 0), Summand("1", 0)),
    "e(2)": (Summand("2", 0), Summand("2", 0)),
}


def two_term_image(name, r):
    """The section functor's image of generator map ``name`` shifted by
    ``r``, the kind of input the projector resolves."""
    src, tgt = GENERATOR_SUMMANDS[name]
    z = SETUP.generator_maps()[name][0]
    Y = realize(ProjComplex(B, {-1: (src,), 0: (tgt,)},
                            {-1: AlgMatrix(B, (tgt,), (src,), [[z]])}).shift(r))
    return Complex(C, {i: apply_pi(m, C) for i, m in Y.terms.items()},
                   {i: apply_pi_hom(d, C) for i, d in Y.diffs.items()},
                   name=f"π({name}<{r}>)")


class TestStopsAtTheRepeat:
    def test_module_sweep(self):
        """Every standard module, its image under the section functor and
        the simple C-module, at shifts -3, 0, 2 and depths 0..13, including
        depths too small to show a tail."""
        seen = Counter()
        for M in module_cases().values():
            for r in (-3, 0, 2):
                Y = Complex.from_module(M.shift(r))
                for depth in range(14):
                    seen[same_resolution(Y, depth)] += 1
        assert set(seen) == {"value", "WindowTooSmall", "ended"}
        assert seen["ended"] == 42

    @pytest.mark.parametrize("name", sorted(GENERATOR_SUMMANDS))
    def test_two_term_complexes(self, name):
        for r in (-3, 0, 2):
            Y = two_term_image(name, r)
            for depth in range(10):
                same_resolution(Y, depth)

    def test_a_free_module_is_resolved_at_every_depth(self):
        """π(P(2)) is free: its resolution is one term at every depth, and P
        of P(2) on the general path is the same complex at depths 0, 1, 2."""
        Y = Complex.from_module(apply_pi(SETUP.standard_module("P(2)"), C))
        want = P_on_object(SETUP, SETUP.standard_module("P(2)"), depth=2)
        for depth in (0, 1, 2):
            res, _aug = resolve_complex(Y, depth)
            assert res.terms == {0: (Summand("*", -1),)} and res.tail is None
            got = P_on_object(SETUP, SETUP.standard_module("P(2)"), depth=depth)
            assert (got.to_json(), got.name) == (want.to_json(), want.name)

    def test_left_tailed_input_descends_fully(self):
        Y = realize(resolutions.projective_resolution(simple(C, "*"), 4))
        assert Y.tail is not None and Y.tail.side == LEFT_TAIL
        covers = []
        for depth in (6, 10):
            same_resolution(Y, depth)
            with mock.patch.object(resolutions, "projective_cover",
                                   wraps=projective_cover) as spy:
                resolve_complex(Y, depth)
            covers.append(spy.call_count)
        assert covers[1] - covers[0] == 4

    def test_covers_do_not_grow_with_depth(self):
        Y = Complex.from_module(apply_pi(SETUP.standard_module("P(1)"), C))
        counts = []
        for depth in (30, 300):
            with mock.patch.object(resolutions, "projective_cover",
                                   wraps=projective_cover) as spy:
                res, _aug = resolve_complex(Y, depth)
            counts.append(spy.call_count)
            assert res.window() == (-depth, 0) and res.tail.side == LEFT_TAIL
        assert counts[0] == counts[1] < 6

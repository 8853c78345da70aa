"""P on maps shares P's one section-and-resolve step, solves the comparison
lift below degree 0 on formal matrices, and checks each identity once: the
resolution over C in ``resolve_complex``, the lift as a chain map over B.
The module-level lift it replaced is kept here as the reference."""

import re
from unittest import mock

import pytest

from jwcat import functors, resolutions
from jwcat.complexes import (Complex, LadderFamily, LadderSystem, ProjComplex,
                             WindowTooSmall, _alg_matrix_to_hom, realize)
from jwcat.exprs import evaluate, parse
from jwcat.functors import (P_on_module_map, P_on_object, Setup,
                            _section_resolution, iota_translate)
from jwcat.linalg import solve_from_columns
from jwcat.modules import apply_pi_hom, hom_space, left_multiplication_hom, projective
from jwcat.quiver import ConstructionError
from test_window_work import APPLIES_P, eval_reference

SETUP = Setup.create()
B, C = SETUP.B, SETUP.C


def ref_lift_through_resolutions(alg, resM, augM, resN, augN, f0):
    """Every degree's equation is solved on the module-level realizations of
    both resolutions: augN∘φ_0 = f0∘augM, then d_N∘φ_i = φ_(i+1)∘d_M."""
    lift = {}
    srcR = realize(resM)
    tgtR = realize(resN)
    for i in range(0, resM.window()[0] - 1, -1):
        ladder = LadderSystem([LadderFamily(resM, resN, 0, (i, i))])
        if i == 0:
            after, want = augN[0], f0.compose(augM[0])
        else:
            after = _alg_matrix_to_hom(resN.diff(i), tgtR.term(i), tgtR.term(i + 1), alg)
            dM = _alg_matrix_to_hom(resM.diff(i), srcR.term(i), srcR.term(i + 1), alg)
            prev = _alg_matrix_to_hom(lift[i + 1], srcR.term(i + 1),
                                      tgtR.term(i + 1), alg)
            want = prev.compose(dM)
        degrees = sorted(set(srcR.term(i).degrees()))

        def residual(maps):
            hom = _alg_matrix_to_hom(maps[0].component(i), srcR.term(i),
                                     tgtR.term(i), alg)
            diff = after.compose(hom) - want
            return [x for d in degrees for row in diff.mat(d).data for x in row]

        column, rhs = ladder.probe([(((0, i),), residual)])
        sol = solve_from_columns(column, ladder.n, rhs)
        if sol is None:
            raise ConstructionError(f"resolution lift failed at degree {i}")
        lift[i] = ladder.build(sol)[0].component(i)
    return lift


def kept(lift):
    """The components a ``ProjChainMap`` keeps: rows and columns nonempty.
    The formal lift stops at the higher of the two resolutions' bottoms,
    where the reference solves on for components into zero."""
    return {i: m for i, m in lift.items() if m.rows and m.cols}


def both_lifts(f, depth):
    """The lift of π(f), formal and module-level, between the resolutions
    that P resolves, as kept; the formal one checked to realize only
    degree 0."""
    resM, augM = _section_resolution(SETUP, Complex.from_module(f.source), depth)
    resN, augN = _section_resolution(SETUP, Complex.from_module(f.target), depth)
    pif = apply_pi_hom(f, C)
    sources = []

    def spy(m, src, tgt, alg):
        sources.append(src)
        return _alg_matrix_to_hom(m, src, tgt, alg)

    with mock.patch.object(functors, "_alg_matrix_to_hom", spy), \
            mock.patch.object(functors, "realize", side_effect=AssertionError):
        got = functors.lift_through_resolutions(resM, augM, resN, augN, pif)
    assert sources and all(s is augM[0].source for s in sources)
    return kept(got), kept(ref_lift_through_resolutions(C, resM, augM, resN, augN, pif))


def degree_zero_maps():
    """The degree-0 basis maps of ``hom_space`` between shifted standard
    modules whose π is nonzero."""
    mods = {n: M for n, M in SETUP.standard_modules().items() if n != "L(1)"}
    return [(f"{a}<{r}> -> {b}", f) for a, M in mods.items() for b, N in mods.items()
            for r in range(-3, 4) for f in hom_space(M.shift(r), N, 0)]


class TestFormalLift:
    @pytest.mark.parametrize("name", list(SETUP.generator_maps()))
    def test_generator_maps_equal_the_module_level_lift(self, name):
        z, src, tgt = SETUP.generator_maps()[name]
        for r in range(-2, 3):
            f = left_multiplication_hom(src.shift(r), tgt.shift(r), z, name)
            for depth in range(13):
                try:
                    got, want = both_lifts(f, depth)
                except WindowTooSmall:   # the resolutions need depth 3
                    assert depth < 3
                    continue
                assert got.keys() == want.keys(), (r, depth)
                for i in want:
                    assert got[i] == want[i], (r, depth, i)

    def test_hom_space_maps_equal_the_module_level_lift(self):
        cases = degree_zero_maps()
        assert len(cases) == 18
        for label, f in cases:
            got, want = both_lifts(f, 8)
            assert got.keys() == want.keys(), label
            assert all(got[i] == want[i] for i in want), label


class TestEachIdentityCheckedOnce:
    def test_iota_does_not_validate(self):
        res, _ = _section_resolution(SETUP, Complex.from_module(projective(B, "1")), 8)
        with mock.patch.object(ProjComplex, "_validate",
                               side_effect=AssertionError("validated")):
            out = iota_translate(SETUP, res)
        assert out.tail is not None and len(out.diffs) == len(res.diffs)

    def test_every_iota_output_of_the_eval_pool_holds_over_B(self):
        """The B-side identities that ``iota_translate`` no longer checks
        hold on every output of the general-path P calls of the eval pool
        at N = 12, objects and maps alike."""
        outputs = []

        def record(setup, freeC):
            out = iota_translate(setup, freeC)
            outputs.append(out)
            return out

        ref = eval_reference()
        exprs = sorted(e for e in ref["expressions"] if APPLIES_P.search(e))
        with mock.patch.object(functors, "iota_translate", record):
            for expr in exprs:
                try:
                    evaluate(SETUP, parse(expr), (0, 12), 25)
                except WindowTooSmall:
                    pass
        assert len(exprs) == 291 and len(outputs) == 196
        assert any(out.tail is not None for out in outputs)
        for out in outputs:
            out._validate()

    @pytest.mark.parametrize("apply", [
        lambda: P_on_object(SETUP, projective(B, "1"), depth=8),
        lambda: P_on_module_map(SETUP, left_multiplication_hom(
            projective(B, "1"), projective(B, "1"), B.idempotent("1"), "e(1)"), depth=8)],
        ids=["object", "map"])
    def test_a_broken_resolution_differential_raises_in_P(self, apply):
        """A unit entry in place of x at degree -1, a non-minimal step,
        breaks d∘d on the C side, and P raises there."""
        hom_to_alg_matrix = resolutions._hom_to_alg_matrix
        steps = []

        def corrupt(f, src, tgt, alg):
            m = hom_to_alg_matrix(f, src, tgt, alg)
            steps.append(m)
            if len(steps) == 1:
                m.entries[0][0] = alg.idempotent("*")
            return m

        with mock.patch.object(resolutions, "_hom_to_alg_matrix", corrupt):
            with pytest.raises(ConstructionError,
                               match=re.escape("d∘d != 0 at degree -2 of res(π(P(1)))")):
                apply()

    def test_a_corrupted_lift_component_raises_in_P_on_maps(self):
        z, src, tgt = SETUP.generator_maps()["e(1)"]
        f = left_multiplication_hom(src, tgt, z, "e(1)")
        lift = functors.lift_through_resolutions

        def corrupt(*args):
            out = lift(*args)
            out[-1] = out[-1].scale(2)
            return out

        with mock.patch.object(functors, "lift_through_resolutions", corrupt):
            with pytest.raises(ConstructionError,
                               match=re.escape("ℙ(e(1)) does not commute with "
                                               "differentials at -2")):
                P_on_module_map(SETUP, f, depth=8)


class TestZeroPiSide:
    def test_a_map_with_a_zero_pi_side_has_no_components(self):
        """π(L(1)) is zero, so ℙ of a map from or to L(1) is the zero chain
        map: that side is the zero complex, the other side is P's image. The
        five generator maps keep their renders, which ``TestProjectorDepth``
        pins with every other P expression of the eval pool."""
        L1, P1 = SETUP.standard_module("L(1)"), SETUP.standard_module("P(1)")
        zero = ProjComplex.zero_complex(B)
        (identity,) = hom_space(L1, L1, 0)
        (onto,) = hom_space(P1, L1, 0)
        for f, source in ((identity, zero), (onto, P_on_object(SETUP, P1, depth=8))):
            Pf = P_on_module_map(SETUP, f, depth=8)
            assert Pf.maps == {} and Pf.name == f"ℙ({f.name})"
            for side, want in ((Pf.source, source), (Pf.target, zero)):
                assert (side.terms, side.diffs, side.tail) == \
                    (want.terms, want.diffs, want.tail)

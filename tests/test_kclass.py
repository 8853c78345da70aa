from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwcat.complexes import (LEFT_TAIL, RIGHT_TAIL, ProjComplex, Summand,
                             TailSpec, gaussian_reduce)
from jwcat.functors import (CK_on_object, P_on_object, Setup,
                            koszul_D_on_object, projector_depth)
from jwcat.kclass import (REVERSED, STANDARD, KClass, apply_jw_reference,
                          class_of_module, class_of_summand, duality_on_class,
                          euler_class, jones_wenzl_reference, jw_matrix_square,
                          projective_class, simple_to_projective_basis)
from jwcat.modules import injective2, projective, simple
from jwcat.resolutions import projective_resolution
from jwcat.series import TruncatedSeries
from jwcat.verify import VerificationConfig, run_suite


@pytest.fixture(scope="module")
def setup():
    return Setup.create()


ORDER = 25


class TestClassOfModule:
    def test_big_projective(self, setup):
        k = class_of_module(projective(setup.B, "2"), ORDER)
        assert k.series["1"] == TruncatedSeries({1: 1}, 1, ORDER)
        assert k.series["2"] == TruncatedSeries({0: 1, 2: 1}, 0, ORDER)

    def test_simple(self, setup):
        k = class_of_module(simple(setup.B, "1"), ORDER)
        assert k.series["1"] == TruncatedSeries({0: 1}, 0, ORDER)
        assert k.series["2"].is_zero()

    def test_shift_multiplies_by_power(self, setup):
        M = projective(setup.B, "1")
        for r in (-2, 3):
            shifted = class_of_module(M.shift(r), ORDER)
            base = class_of_module(M, ORDER)
            q_r = TruncatedSeries({r: 1}, min(r, 0), ORDER)
            assert shifted == base.scale_series(q_r)

    def test_the_projective_exponent_table_matches_the_algebra(self, setup):
        """``PROJECTIVE_EXPONENTS``, read by ``class_of_summand`` and by every
        Euler class, is the class of the realized P(v)<r>."""
        for v in ("1", "2"):
            for r in range(-3, 4):
                for order in (2, ORDER):
                    got = class_of_summand(Summand(v, r), order)
                    want = class_of_module(projective(setup.B, v).shift(r), order)
                    assert {w: (s.window(), s.coeffs) for w, s in got.series.items()} == \
                        {w: (s.window(), s.coeffs) for w, s in want.series.items()}, (v, r)


class TestEulerClass:
    def test_projector_image_is_geometric_series(self, setup):
        p = P_on_object(setup, projective(setup.B, "1"), depth=ORDER)
        e = euler_class(p, ORDER)
        # oracle: brute-force alternating partial sums of the model terms
        want = KClass.zero(ORDER)
        k = 0
        while 2 * k + 1 <= ORDER + 3:
            term = class_of_module(projective(setup.B, "2").shift(2 * k + 1), ORDER)
            want = want + (term if k % 2 == 0 else -term)
            k += 1
        assert e == want
        # and in closed form: the inverted quantum integer times the class
        two = TruncatedSeries({1: 1, -1: 1}, -1, ORDER)
        closed = projective_class("2", ORDER).scale_series(two.invert().truncate(ORDER))
        assert e == closed

    def test_zero_complex(self, setup):
        assert euler_class(ProjComplex.zero_complex(setup.B), ORDER).is_zero()

    def test_resolution_has_class_of_module(self, setup):
        res = projective_resolution(simple(setup.B, "1"), 6)
        e = euler_class(res, ORDER)
        assert e == class_of_module(simple(setup.B, "1"), ORDER)

    def test_invariant_under_reduction(self, setup):
        raw = koszul_D_on_object(setup, injective2(setup.B))
        red = gaussian_reduce(raw)
        assert euler_class(raw, ORDER) == euler_class(red.reduced, ORDER)


# ---------------------------------------------------------------------------
# the summand-by-summand sum that counting replaced, as reference
# ---------------------------------------------------------------------------

def ref_class_of_summand(s, order, reversed_q):
    if s.vertex == "1":
        poly = {"1": {0: 1}, "2": {1: 1}}
    else:
        poly = {"1": {1: 1}, "2": {0: 1, 2: 1}}
    sgn = -1 if reversed_q else 1
    out = {}
    for v in ("1", "2"):
        coeffs = {sgn * (e + s.shift): Fraction(c) for e, c in poly[v].items()}
        out[v] = TruncatedSeries(coeffs, min(0, *coeffs), order)
    return KClass(out, REVERSED if reversed_q else STANDARD)


def ref_term_class(term, order, reversed_q):
    out = KClass.zero(order, REVERSED if reversed_q else STANDARD)
    for s in term:
        out = out + ref_class_of_summand(s, order, reversed_q)
    return out


def ref_euler_class(x, order):
    if x.is_zero():
        return KClass.zero(order)
    reversed_q = x.tail is not None and x.tail.side == RIGHT_TAIL
    regime = REVERSED if reversed_q else STANDARD
    out = KClass.zero(order, regime)
    lo, hi = x.window()
    for i in range(lo, hi + 1):
        c = ref_term_class(x.term(i), order, reversed_q)
        out = out + (c if i % 2 == 0 else -c)
    t = x.tail
    if t is None:
        return out
    if t.side == LEFT_TAIL:
        block_range = range(lo, lo + t.period)
        step_exp = t.shift
    else:
        block_range = range(hi - t.period + 1, hi + 1)
        step_exp = -t.shift
    block = KClass.zero(order, regime)
    for i in block_range:
        c = ref_term_class(x.term(i), order, reversed_q)
        block = block + (c if i % 2 == 0 else -c)
    sgn = -1 if t.period % 2 == 1 else 1
    ratio = TruncatedSeries({step_exp: sgn}, min(step_exp, 0), order)
    one = TruncatedSeries.one(order)
    geom = ratio * (one - ratio).invert()
    return out + block.scale_series(geom)


def outcome(fn, x, order):
    """Regime and, per vertex, window and typed coefficients; or the error."""
    try:
        k = fn(x, order)
    except ValueError as exc:   # WindowError, NoInverseError: compared
        return ("raises", type(exc), str(exc))
    return (k.regime, {v: (s.min_exp, s.order,
                           sorted((e, type(c), c) for e, c in s.coeffs.items()))
                       for v, s in k.series.items()})


summands = st.lists(st.builds(Summand, st.sampled_from(("1", "2")), st.integers(-6, 6)),
                    max_size=3)
tails = st.one_of(st.none(), st.builds(
    TailSpec, st.sampled_from((LEFT_TAIL, RIGHT_TAIL)), st.just(0),
    st.integers(1, 2), st.sampled_from((-4, -2, 2, 4))))


class TestCounting:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-4, 4), st.lists(summands, min_size=1, max_size=6), tails,
           st.integers(-1, 12))
    def test_counting_equals_the_summing_reference(self, setup, lo, degrees, tail,
                                                   order):
        # euler_class reads only terms, window and tail: no differentials
        terms = {lo + k: tuple(t) for k, t in enumerate(degrees)}
        x = ProjComplex(setup.B, terms, {}, tail, validate=False)
        assert outcome(euler_class, x, order) == outcome(ref_euler_class, x, order)

    def test_construction_count_does_not_grow_with_the_window(self, setup):
        """After a warm-up call, a class costs as many series on N = 48 as
        on N = 16: one per vertex for the window, the block, the scaled
        block and the sum."""
        built = []
        init = TruncatedSeries.__init__

        def counting(self, *args):
            built.append(1)
            init(self, *args)

        costs = {}
        for N in (16, 48):
            inputs = {
                "P(P(1))": P_on_object(setup, projective(setup.B, "1"),
                                       depth=projector_depth((-N, 0))),
                "CK(P(1))": CK_on_object(setup, ProjComplex.from_summand(setup.B, "1"),
                                         out_window=(0, N)),
            }
            for name, x in inputs.items():
                euler_class(x, 2 * N + 1)
                built.clear()
                with mock.patch.object(TruncatedSeries, "__init__", counting):
                    euler_class(x, 2 * N + 1)
                costs[name, N] = len(built)
        for name in ("P(P(1))", "CK(P(1))"):
            assert costs[name, 16] == costs[name, 48], costs


class TestBasisConversion:
    def test_projective_coordinates_of_projectives(self, setup):
        for v in ("1", "2"):
            k = projective_class(v, ORDER)
            p1, p2 = simple_to_projective_basis(k)
            want1 = TruncatedSeries({0: 1} if v == "1" else {}, 0, ORDER - 2)
            want2 = TruncatedSeries({0: 1} if v == "2" else {}, 0, ORDER - 2)
            assert p1.truncate(ORDER - 2) == want1
            assert p2.truncate(ORDER - 2) == want2


class TestJonesWenzlReference:
    def test_column_values(self):
        jw = jones_wenzl_reference(15)
        assert jw["P(2)"]["P(1)"].is_zero()
        assert jw["P(2)"]["P(2)"] == TruncatedSeries.one(15)
        col = jw["P(1)"]["P(2)"]
        want = TruncatedSeries({2 * k + 1: (-1) ** k for k in range(9)}, 1, 15)
        assert col.truncate(15) == want

    def test_idempotent(self):
        jw = jones_wenzl_reference(21)
        sq = jw_matrix_square(jw)
        for colk in ("P(1)", "P(2)"):
            for rowk in ("P(1)", "P(2)"):
                assert sq[colk][rowk] == jw[colk][rowk]

    def test_action_matches_projector(self, setup):
        jw = jones_wenzl_reference(ORDER)
        for name in ("P(1)", "P(2)", "L(1)", "L(2)"):
            M = setup.standard_module(name)
            got = euler_class(P_on_object(setup, M, depth=ORDER + 2), ORDER)
            want = apply_jw_reference(jw, class_of_module(M, ORDER))
            for v in ("1", "2"):
                assert got.series[v].truncate(ORDER - 6) == \
                    want.series[v].truncate(ORDER - 6), (name, v)


class TestDualityLaw:
    def test_on_bounded_corpus(self, setup):
        for name in ("L(1)", "L(2)", "I(2)", "P(1)", "P(2)"):
            M = setup.standard_module(name)
            got = euler_class(koszul_D_on_object(setup, M), ORDER)
            want = duality_on_class(class_of_module(M, ORDER))
            assert got == want, name

    def test_the_twist_stays_exact_at_negative_exponents(self):
        # q^-1/3 [L(1)] -> -q/3 [P(2)] and q^-2 2/7 [L(2)] -> q^2 2/7 [P(1)],
        # with [P(2)] = q[L(1)] + (1 + q^2)[L(2)] and [P(1)] = [L(1)] + q[L(2)]
        k = KClass({"1": TruncatedSeries({-1: Fraction(1, 3)}, -1, 6),
                    "2": TruncatedSeries({-2: Fraction(2, 7)}, -2, 6)})
        got = duality_on_class(k)
        assert got.series["1"].coeffs == {2: Fraction(-1, 21)}
        assert got.series["2"].coeffs == {1: Fraction(-1, 3), 3: Fraction(-1, 21)}
        assert all(type(c) is Fraction for s in got.series.values()
                   for c in s.coeffs.values())

    def test_the_suite_passes_at_order_one(self):
        """The law twists the exact class of each module: q ↦ -q⁻¹ sends the
        q²[L(2)] term of P(2), lost at order 1, to q⁻², inside the window."""
        report = run_suite(VerificationConfig(window=16, order=1))
        assert report.verdict_counts() == {"pass": 13, "fail": 0, "inconclusive": 0}


    def test_the_law_keeps_the_order_of_the_suite(self):
        """The twist is counted as summands, not multiplied as series, so at
        the default N = 16 every class the suite's duality law twists comes
        out at order 33. A product of series lowered it by the twisted
        factor's depth below q⁰: to 32 for P(1) and 31 for P(2)."""
        twisted = []

        def recording(k):
            twisted.append(duality_on_class(k))
            return twisted[-1]

        with mock.patch("jwcat.verify.duality_on_class", recording):
            report = run_suite(VerificationConfig(only=("decategorification",)))
        assert report.verdict_counts()["pass"] == 1
        assert len(twisted) == 5
        assert {s.order for k in twisted for s in k.series.values()} == {33}


class TestTheCheckComparesThroughTheOrdersHeld:
    @pytest.mark.parametrize("N", [8, 12, 16, 24])
    def test_decategorification_passes_at_every_order(self, N):
        """``_classes_agree`` compares each pair of classes through the
        orders the two hold, with no order of the check's own, so the check
        passes at orders below, at and far above the default 2N + 1."""
        for order in sorted({1, 2, 5, 10, N, 2 * N + 1, 3 * N, 100}):
            report = run_suite(VerificationConfig(window=N, order=order,
                                                  only=("decategorification",)))
            assert report.verdict_counts()["pass"] == 1, (N, order)


class TestReversedRegime:
    def test_ck_class_lives_in_inverted_completion(self, setup):
        from jwcat.functors import CK_on_object
        ck = CK_on_object(setup, ProjComplex.from_summand(setup.B, "1"),
                          out_window=(0, 12))
        e = euler_class(ck, ORDER)
        assert e.regime == REVERSED
        # hand value: u^2 - u^4 + ... on the vertex-1 simple, zero on the other
        want = TruncatedSeries({2 * k: (-1) ** (k + 1) for k in range(1, 10)}, 2, 18)
        assert e.series["1"].truncate(16) == want.truncate(16)
        assert e.series["2"].truncate(16).is_zero()

    def test_regime_mixing_refused(self, setup):
        from jwcat.complexes import RegimeError
        a = KClass.zero(10, STANDARD)
        b = KClass({v: TruncatedSeries({1: 1}, 1, 10) for v in ("1", "2")}, REVERSED)
        with pytest.raises(RegimeError):
            a + b

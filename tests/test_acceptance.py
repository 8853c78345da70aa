"""Acceptance criteria, one test per criterion, run at the stated window
N = 16 with exact arithmetic and zero tolerance throughout. Each test prints
one pass/fail line (visible with pytest -s or on failure)."""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jwcat import verify
from jwcat.complexes import (Complex, ProjChainMap, ProjComplex, Summand,
                             Verdict, gaussian_reduce, homology,
                             iso_in_homotopy_category,
                             maps_agree_under_identification,
                             match_up_to_diagonal_signs, realize,
                             reduce_on_window)
from jwcat.functors import (CK_on_map, CK_on_object, P_on_module_map,
                            P_on_object, Setup, koszul_D_on_map,
                            koszul_D_on_object, two_term_dual_model)
from jwcat.kclass import (euler_class, jones_wenzl_reference,
                          jw_matrix_square, projective_class)
from jwcat.modules import (find_module_iso, injective2,
                           left_multiplication_hom, projective, simple)
from jwcat.quiver import koszul_dual
from jwcat.resolutions import projective_resolution
from jwcat.series import TruncatedSeries
from jwcat.verify import VerificationConfig, run_suite, _Runner

N = 16
ORDER = 2 * N + 1
# the benchmark's reference report at N = 16, read here and never written
REFERENCE_N16 = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify-N16.json"


@pytest.fixture(scope="module")
def setup():
    return Setup.create()


@pytest.fixture(scope="module")
def runner():
    return _Runner(VerificationConfig(window=N))


def _report(criterion: str, ok: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_theorem_reproduction(runner):
    """Both composite functors agree on both projectives and on the five
    generator maps, each check within the stated runtime budget."""
    t0 = time.time()
    ok = True
    for vertex in ("1", "2"):
        t = time.time()
        dp = runner.dp_side(vertex)
        ckd = runner.ckd_side(vertex)
        v = iso_in_homotopy_category(dp, ckd, window=(0, N))
        ok &= v.value == "true"
        assert time.time() - t < 5.0, f"object check for P({vertex}) too slow"
    setup = runner.setup
    w, cmp_w = (0, N), (0, N - 2)
    for zname, (z, src, tgt) in setup.generator_maps().items():
        t = time.time()
        f0 = left_multiplication_hom(src, tgt, z, zname)
        DPz = koszul_D_on_map(setup, P_on_module_map(setup, f0, depth=N + 6),
                              out_window=w)
        CKDz = CK_on_map(setup, koszul_D_on_map(setup, f0, out_window=w),
                         out_window=w)
        red = [reduce_on_window(c, cmp_w) for c in
               (DPz.source, DPz.target, CKDz.source, CKDz.target)]
        lhs = red[1].to_reduced.compose(DPz).compose(red[0].from_reduced)
        rhs = red[3].to_reduced.compose(CKDz).compose(red[2].from_reduced)
        v = maps_agree_under_identification(lhs, rhs, cmp_w)
        ok &= v.value == "true"
        assert time.time() - t < 5.0, f"map check for {zname} too slow"
    _report("1 (theorem on objects and maps, N=16, exact)", ok)


def test_criterion_2_explicit_complex_fixtures(runner):
    """The projector value matches the 2-periodic model termwise; the
    composite matches the explicit middle-column matrices up to a recorded
    diagonal sign change; the split maps verify the decomposition."""
    setup = runner.setup
    B = setup.B
    ok = True
    pP1 = P_on_object(setup, projective(B, "1"), depth=N + 4)
    c_el = B.path_element(("a", "b"))
    for i in range(-N, 1):
        ok &= pP1.term(i) == (Summand("2", -2 * i + 1),)
        if i < 0:
            ok &= pP1.diff(i).entries[0][0] == c_el
    mid, left, right, J, Km, L, M = runner._split_fixtures(N)
    dp1 = runner.dp_side("1")
    shifted_mid = mid.shift(-3, -3)
    cmp_w = (1, N)
    ok2, signs = match_up_to_diagonal_signs(dp1.clip(*cmp_w),
                                            shifted_mid.clip(*cmp_w), cmp_w)
    ok &= ok2
    win = (-2, N - 1)
    idL = ProjChainMap.identity(left)
    idR = ProjChainMap.identity(right)
    idM = ProjChainMap.identity(mid)
    for i in range(win[0], win[1] + 1):
        ok &= (L.compose(J)).component(i) == idL.component(i)
        ok &= (Km.compose(M)).component(i) == idR.component(i)
        ok &= (Km.compose(J)).component(i).is_zero()
        ok &= (L.compose(M)).component(i).is_zero()
        ok &= (J.compose(L) + M.compose(Km)).component(i) == idM.component(i)
    _report("2 (explicit matrices and splitting, exact equality)", ok)


def test_criterion_3_ck_fixtures(runner):
    """The topological projector kills the big projective, matches the
    displayed complex on the other, and its consecutive compositions vanish."""
    setup = runner.setup
    B = setup.B
    ok = True
    ck2 = CK_on_object(setup, ProjComplex.from_summand(B, "2"), out_window=(0, N))
    ok &= reduce_on_window(ck2, (0, N - 4)).reduced.is_zero()
    ck1 = CK_on_object(setup, ProjComplex.from_summand(B, "1"), out_window=(0, N))
    c_el, a_el = B.path_element(("a", "b")), B.arrow_element("a")
    ok &= ck1.term(0) == (Summand("1", 0),)
    ok &= ck1.diff(0).entries == [[a_el]]
    for i in range(1, N - 1):
        ok &= ck1.term(i) == (Summand("2", -2 * i + 1),)
        sign = -1 if i % 2 == 1 else 1
        ok &= ck1.diff(i).entries == [[c_el.scale(sign)]]
    from jwcat.quiver import bimodule_maps_alpha_beta_gamma, build_theta
    theta = build_theta(B)
    alpha, beta, gamma = bimodule_maps_alpha_beta_gamma(B, theta)
    ok &= beta.compose(alpha).is_zero()
    ok &= gamma.compose(beta).is_zero()
    ok &= beta.compose(gamma).is_zero()
    _report("3 (topological projector fixtures, exact)", ok)


def test_criterion_4_duality_fixtures(runner):
    """The four module-level duality images, the two-term model by reduction
    of the raw output, and both shift laws for all standard modules and
    shifts up to three."""
    setup = runner.setup
    B = setup.B
    ok = True
    DL1 = koszul_D_on_object(setup, simple(B, "1"))
    ok &= dict(DL1.terms) == {0: (Summand("2", 0),)} and not DL1.diffs
    DL2 = koszul_D_on_object(setup, simple(B, "2"))
    ok &= dict(DL2.terms) == {0: (Summand("1", 0),)} and not DL2.diffs
    DI2 = koszul_D_on_object(setup, injective2(B))
    redI2 = gaussian_reduce(DI2).reduced
    ok &= iso_in_homotopy_category(
        redI2, projective_resolution(simple(B, "1"), 6), window=(-3, 1)).value == "true"
    ok &= find_module_iso(projective(B, "2"), injective2(B).shift(2)) is not None
    raw = koszul_D_on_object(setup, projective(B, "1"))
    red = gaussian_reduce(raw).reduced
    model = two_term_dual_model(setup)
    ok &= red.terms == model.terms and red.diffs == model.diffs
    for name in ("P(1)", "P(2)", "L(1)", "L(2)", "I(2)"):
        Mod = setup.standard_module(name)
        DM = koszul_D_on_object(setup, Mod)
        for r in range(-3, 4):
            lhs = koszul_D_on_object(setup, Mod.shift(r))
            rhs = DM.shift(-r, -r)
            lo = min(lhs.window()[0], rhs.window()[0]) - 1
            hi = max(lhs.window()[1], rhs.window()[1]) + 1
            ok &= iso_in_homotopy_category(lhs, rhs, window=(lo, hi)).value == "true"
            lhs2 = koszul_D_on_object(setup, Complex.from_module(Mod, degree=-r))
            rhs2 = DM.shift(0, r)
            lo = min(lhs2.window()[0], rhs2.window()[0]) - 1
            hi = max(lhs2.window()[1], rhs2.window()[1]) + 1
            ok &= iso_in_homotopy_category(lhs2, rhs2, window=(lo, hi)).value == "true"
    _report("4 (duality fixtures and shift laws, exact)", ok)


def test_criterion_5_decategorification(runner):
    """Series identities through order 2N+1 = 33: the projector class is the
    expansion of the inverted quantum integer, the reference matrix is
    idempotent, classes are invariant under reduction over the corpus."""
    setup = runner.setup
    B = setup.B
    ok = True
    pP1 = P_on_object(setup, projective(B, "1"), depth=ORDER + 2)
    e = euler_class(pP1, ORDER)
    two = TruncatedSeries({1: 1, -1: 1}, -1, ORDER)
    ref = projective_class("2", ORDER).scale_series(two.invert().truncate(ORDER))
    ok &= e == ref
    jw = jones_wenzl_reference(ORDER)
    sq = jw_matrix_square(jw)
    for colk in ("P(1)", "P(2)"):
        for rowk in ("P(1)", "P(2)"):
            ok &= sq[colk][rowk] == jw[colk][rowk]
    corpus = [pP1, runner.dp_side("1"), runner.dp_side("2"),
              runner.ckd_side("1"), runner.ckd_side("2"),
              koszul_D_on_object(setup, injective2(B))]
    from jwcat.verify import _classes_agree
    for c in corpus:
        red = reduce_on_window(c, (min(0, c.window()[0]), N))
        ok &= _classes_agree(euler_class(red.original, ORDER),
                             euler_class(red.reduced, ORDER))
    _report("5 (decategorification through order 33, exact coefficients)", ok)


def test_criterion_6_property_suites(runner):
    """d∘d = 0 on every constructed complex; reduction preserves homology on
    window degrees; post-reduction minimality; exhaustive associativity on
    both algebras; the structure map is an algebra isomorphism."""
    setup = runner.setup
    B = setup.B
    ok = True
    # d∘d = 0 is asserted at construction; re-validate explicitly on corpus
    corpus = [runner.dp_side("1"), runner.ckd_side("1"),
              P_on_object(setup, projective(B, "1"), depth=10),
              koszul_D_on_object(setup, injective2(B))]
    for c in corpus:
        lo, hi = c.window()
        for i in range(lo, hi):
            ok &= (c.diff(i + 1) * c.diff(i)).is_zero()
    # reduction preserves homology
    for Mname in ("I(2)", "P(2)"):
        raw = koszul_D_on_object(setup, setup.standard_module(Mname))
        red = gaussian_reduce(raw)
        R1, R2 = realize(raw), realize(red.reduced)
        lo, hi = raw.window()
        for i in range(lo - 1, hi + 2):
            ok &= homology(R1, i) == homology(R2, i)
    # minimality after reduction
    for c in corpus:
        red = reduce_on_window(c, (min(0, c.window()[0]), N - 4))
        for d in red.reduced.diffs.values():
            ok &= d.all_entries_in_radical()
    # associativity, exhaustively, on both algebras
    from fractions import Fraction
    for alg in (B, koszul_dual(B)[0]):
        elems = [alg.element({p: Fraction(1)}) for p in alg.basis]
        for x in elems:
            for y in elems:
                for z in elems:
                    ok &= (x * y) * z == x * (y * z)
    # the structure map is an algebra isomorphism
    dual, corr = koszul_dual(B)
    phi = corr["phi"]
    elems = [B.element({p: Fraction(1)}) for p in B.basis]
    images = set()
    for x in elems:
        fx = phi(x)
        ok &= not fx.is_zero()
        images.add(next(iter(fx.terms)))
        for y in elems:
            ok &= phi(x * y) == phi(x) * phi(y)
    ok &= len(images) == len(dual.basis)
    _report("6 (property suites, 100% required)", ok)


def test_full_suite_passes_at_window_16():
    """The packaged verification suite itself: all checks pass at N = 16,
    and the report is byte-identical to the committed reference."""
    report = run_suite(VerificationConfig(window=N))
    counts = report.verdict_counts()
    print(f"ACCEPTANCE suite: {counts}")
    assert counts["fail"] == 0 and counts["inconclusive"] == 0
    assert report.to_json(with_timings=False) == REFERENCE_N16.read_text()


def test_small_window_degrades_to_inconclusive():
    """A smaller window may lose certainty but never gains contradictions."""
    report = run_suite(VerificationConfig(window=4))
    counts = report.verdict_counts()
    print(f"ACCEPTANCE degradation: {counts}")
    assert counts["fail"] == 0


# sha256 of run_suite(VerificationConfig(window=N)).to_json(with_timings=False)
# for N = 4..14, pinned so that a window or margin change that moves any
# verdict or detail at a small window fails here
SWEEP_DIGESTS = {
    4: "67bdabec37a333921c389b9b54fc45ed2241f84897c82cda33529f9c4030e8c7",
    5: "eeb2a83fe635de0af075d7e88b0b7decd1cda933857bae2d72f961a6c380e81e",
    6: "a3e4c13c749e673963a1e3b5871bbe1f87c9a7bb8607f03f7c3f9ce9d70cc00a",
    7: "6ba0f9f22c3a6e92681b46816413711a1f85bbee36e78af3770cd1778ad29561",
    8: "dfa61b5ee27c6aeb984c2f1618c16c0252a49ef2f293c89a05dafc9645a59833",
    9: "e16d3d75056451445f91ff5478698d5c2d693731154acff00c3cc20fec876546",
    10: "d2e351ce25ebb26eb5d2a649a47f560cb9ebe12cf0f2402c0b9b5da5854c6b5b",
    11: "e7c93f592cb2928a0e9f99ad70a7ad87daa51a9e15f68dbf640d8666eae0f9b4",
    12: "4ac714e11635e67203b563d59736f9fdce83f4613d7b73ae73a4f83b72c4b091",
    13: "5403f78d1453d0a169381be2f8294d1b09a053f119c5aa4f3ffe2bb6d7686829",
    14: "b35ff6732e5577105e619b56a14fed68d786ca481c53adedcd6d808a5d4845d6",
}


# the same digests at the larger windows a performance change must keep
# byte-identical, next to N = 16 (REFERENCE_N16) and 48 (perfbench/reference)
WIDE_DIGESTS = {
    20: "952ef6caae62cbd0fafdc1860632be146a1a0e6cec54ee4e4739d5ad2cf75d33",
    24: "81a84b4575aadd4ce80c7700ffddd99fc62eea0db5fa37a358b4ed65d72518e6",
    32: "c5ee5735720e098e36982fbba740a8f5acfc210e006ec82a566f9e09793246e8",
}


@pytest.mark.parametrize("n", sorted(WIDE_DIGESTS))
def test_wide_window_reports_are_pinned(n):
    report = run_suite(VerificationConfig(window=n))
    digest = hashlib.sha256(report.to_json(with_timings=False).encode()).hexdigest()
    assert digest == WIDE_DIGESTS[n], n


def test_verdicts_are_monotone_in_the_window():
    """Over N = 4..14 no check fails, a check that passes keeps passing at
    every larger window, all checks pass from N = 10, and each report is
    byte for byte the pinned one."""
    passed_before: set[str] = set()
    for n in range(4, 15):
        report = run_suite(VerificationConfig(window=n))
        verdicts = {c.name: c.verdict for c in report.checks}
        passed = {name for name, v in verdicts.items() if v == "pass"}
        print(f"ACCEPTANCE sweep N={n}: {len(passed)}/{len(verdicts)} pass")
        assert "fail" not in verdicts.values(), n
        assert passed_before <= passed, n
        if n >= 10:
            assert passed == set(verdicts), n
        digest = hashlib.sha256(report.to_json(with_timings=False).encode()).hexdigest()
        assert digest == SWEEP_DIGESTS[n], n
        passed_before = passed


FORCED_FALSE = """
from jwcat import verify
from jwcat.complexes import Verdict


def false(*args, **kwargs):
    return Verdict("false", reason="forced")


verify.iso_in_homotopy_category = verify.maps_agree_under_identification = false
print(verify.run_suite(verify.VerificationConfig(window=8)).verdict_counts()["fail"])
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_claim_that_fails_fails_under_every_interpreter_flag(flags):
    """With both homotopy-category decisions forced to "false", six checks
    of the suite at N = 8 fail, also under ``python -O``, which strips
    ``assert`` statements."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, *flags, "-B", "-c", FORCED_FALSE],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["6"]


def test_an_inconclusive_decision_leaves_its_check_inconclusive(monkeypatch):
    """With both homotopy-category decisions forced to "inconclusive", the
    seven checks of the suite at N = 16 that read one are inconclusive with
    the decision's reason, and none fails."""
    def inconclusive(*args, **kwargs):
        return Verdict("inconclusive", reason="forced")

    for name in ("iso_in_homotopy_category", "maps_agree_under_identification"):
        monkeypatch.setattr(verify, name, inconclusive)
    report = run_suite(VerificationConfig(window=N))
    assert report.verdict_counts() == {"pass": 6, "fail": 0, "inconclusive": 7}
    for check in report.checks:
        if check.verdict == "inconclusive":
            assert "window too small to certify: forced" in check.details, check.name

"""The verification suite: every statement the engine reproduces, run as an
ordered list of named checks with pass/fail/inconclusive verdicts.

Each check carries a human-readable statement of the mathematical claim it
certifies. Inconclusive (a window too small to certify a tail) is a distinct
verdict and never coerces to pass or fail.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .complexes import (LEFT_TAIL, RIGHT_TAIL, AlgMatrix, Complex,
                        ProjBicomplex, ProjChainMap, ProjComplex, Summand,
                        TailSpec, Verdict, WindowTooSmall,
                        gaussian_reduce, homology,
                        iso_in_homotopy_category, maps_agree_under_identification,
                        match_up_to_diagonal_signs, realize, reduce_on_window,
                        total_complex)
from .functors import (CK_on_map, CK_on_object, D_of_P1, P_on_module_map,
                       P_on_object, Setup, koszul_D_on_map, koszul_D_on_object,
                       projector_depth, two_term_dual_model)
from .kclass import (REVERSED, STANDARD, VERTICES, KClass,
                     apply_jw_reference, class_of_module, duality_on_class,
                     euler_class, jones_wenzl_reference, jw_matrix_square,
                     projective_class)
from .modules import (GradedModule, ModuleHom, apply_iota, apply_pi,
                      apply_pi_hom, direct_sum, find_module_iso, hom_space,
                      left_multiplication_hom, projective, simple,
                      tensor_with_bimodule)
from .quiver import (bimodule_maps_alpha_beta_gamma, build_theta, koszul_dual)
from .resolutions import projective_resolution
from .series import TruncatedSeries, quantum_two


@dataclass
class VerificationConfig:
    window: int = 16
    order: int | None = None       # defaults to 2*window + 1
    only: tuple[str, ...] = ()

    def __post_init__(self):
        if self.window < 4:
            raise ValueError("window must be at least 4 "
                             "(one full tail period plus its seam)")
        if self.order is None:
            self.order = 2 * self.window + 1
        if self.order < 1:
            raise ValueError("order must be at least 1 (the reference class "
                             "[2]^-1 = q - q^3 + ... starts at q^1)")
        names = [name for name, _, _ in CHECKS]
        unknown = [x for x in self.only if x not in names]
        if unknown:
            raise ValueError(f"unknown check {', '.join(unknown)}; "
                             f"the checks are {', '.join(names)}")


@dataclass
class CheckResult:
    name: str
    statement: str
    verdict: str                  # pass | fail | inconclusive
    details: list[str] = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class Report:
    config: VerificationConfig
    checks: list[CheckResult] = field(default_factory=list)

    def verdict_counts(self):
        out = {"pass": 0, "fail": 0, "inconclusive": 0}
        for c in self.checks:
            out[c.verdict] += 1
        return out

    def exit_code(self) -> int:
        counts = self.verdict_counts()
        if counts["fail"]:
            return 1
        if counts["inconclusive"]:
            return 2
        return 0

    def to_text(self) -> str:
        lines = []
        width = max(len(c.name) for c in self.checks) if self.checks else 10
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "inconclusive": "INCONCLUSIVE"}[c.verdict]
            lines.append(f"[{mark:^12}] {c.name:<{width}}  {c.statement}")
            for d in c.details:
                lines.append(f"{'':16}- {d}")
        counts = self.verdict_counts()
        lines.append("")
        lines.append(f"{counts['pass']} passed, {counts['fail']} failed, "
                     f"{counts['inconclusive']} inconclusive "
                     f"(window N={self.config.window}, series order {self.config.order})")
        return "\n".join(lines)

    def to_json(self, with_timings: bool = True) -> str:
        payload = {
            "schema": "jwcat-report-v1",
            "config": {"window": self.config.window, "order": self.config.order},
            "checks": [
                {
                    "name": c.name,
                    "statement": c.statement,
                    "verdict": c.verdict,
                    "details": c.details,
                    **({"seconds": round(c.seconds, 6)} if with_timings else {}),
                }
                for c in self.checks
            ],
            "summary": self.verdict_counts(),
        }
        return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)


class _Runner:
    def __init__(self, cfg: VerificationConfig):
        self.cfg = cfg
        self.setup = Setup.create()
        self.report = Report(cfg)
        self._cache: dict = {}

    # --- tiny assertion helpers -------------------------------------------

    def check(self, name: str, statement: str, fn):
        if self.cfg.only and name not in self.cfg.only:
            return
        t0 = time.time()
        details: list[str] = []
        try:
            verdict = fn(self, details)
            if verdict is None:
                verdict = "pass"
        except WindowTooSmall as exc:
            verdict = "inconclusive"
            details.append(f"window too small to certify: {exc}")
        except AssertionError as exc:
            verdict = "fail"
            details.append(f"assertion failed: {exc}")
        except Exception as exc:   # noqa: BLE001 - verdicts must not crash the suite
            verdict = "fail"
            details.append(f"{type(exc).__name__}: {exc}")
        self.report.checks.append(CheckResult(name, statement, verdict, details,
                                              time.time() - t0))

    # --- shared fixtures ---------------------------------------------------

    def cached(self, key, producer):
        if key not in self._cache:
            self._cache[key] = producer()
        return self._cache[key]

    def B(self):
        return self.setup.B

    def dp_side(self, vertex: str):
        key = ("dp", vertex)

        def make():
            B = self.B()
            w = (0, self.cfg.window)
            pp = P_on_object(self.setup, projective(B, vertex),
                             depth=projector_depth(w))
            return koszul_D_on_object(self.setup, pp, out_window=w)
        return self.cached(key, make)

    def ckd_side(self, vertex: str):
        key = ("ckd", vertex)

        def make():
            B = self.B()
            N = self.cfg.window
            d = koszul_D_on_object(self.setup, projective(B, vertex))
            return CK_on_object(self.setup, d, out_window=(0, N))
        return self.cached(key, make)

    # --- the suite ----------------------------------------------------------

    def run(self) -> Report:
        for name, statement, fn in CHECKS:
            self.check(name, statement, fn)
        return self.report

    # --- individual checks ---------------------------------------------------

    def _algebra_sanity(self, details):
        B = self.B()
        _require(B.graded_dimensions(3) == [2, 2, 1, 0], "graded dimensions of B")
        a, b = B.arrow_element("a"), B.arrow_element("b")
        _require((a * b).word() == "ab" and (b * a).is_zero(), "multiplication table")
        elems = [B.element({p: 1}) for p in B.basis]
        for x in elems:
            for y in elems:
                for z in elems:
                    _require((x * y) * z == x * (y * z), "associativity")
        rad = [B.element({p: 1}) for p in B.radical_basis()]
        for x in rad:
            for y in rad:
                for z in rad:
                    _require((x * y * z).is_zero(), "radical cubed")
        dual, corr = koszul_dual(B)
        _require(dual.graded_dimensions(3) == [2, 2, 1, 0], "dual dimensions")
        phi = corr["phi"]
        for x in elems:
            for y in elems:
                _require(phi(x * y) == phi(x) * phi(y), "structure map multiplicative")
        _require(phi(a * b) == dual.arrow_element("a*") * dual.arrow_element("b*"))
        delems = [dual.element({p: 1}) for p in dual.basis]
        for x in delems:
            for y in delems:
                for z in delems:
                    _require((x * y) * z == x * (y * z), "dual associativity")
        details.append("structure map sends the dead loop to the dead loop; "
                       "the surviving dual loop is the image of ab")

    def _translation_bimodule(self, details):
        B = self.B()
        theta = build_theta(B)
        _require(theta.dim() == 9, "total dimension")
        _require(theta.lowest_degree() == -1, "lowest degree")
        alpha, beta, gamma = bimodule_maps_alpha_beta_gamma(B, theta)
        _require(beta.compose(alpha).is_zero(), "second∘first")
        _require(gamma.compose(beta).is_zero(), "third∘second")
        _require(beta.compose(gamma).is_zero(), "second∘third")
        gens = [x.name for x in B.quiver.arrows] + ["e(1)", "e(2)"]
        for g in gens:
            for h in gens:
                _require(theta.left_action[g] * theta.right_action[h]
                         == theta.right_action[h] * theta.left_action[g],
                         "outer actions commute")
        details.append("image of e(1) is the unique degree-matching tensor "
                       "with vertex-1 sandwiches (factor order fixed by "
                       "bimodule equivariance)")

    def _module_fixtures(self, details):
        B, C = self.B(), self.setup.C
        mods = self.setup.standard_modules()
        P1, P2, L1, L2 = mods["P(1)"], mods["P(2)"], mods["L(1)"], mods["L(2)"]
        _require(P1.graded_dims_by_vertex() == {(0, "1"): 1, (1, "2"): 1})
        _require(P2.graded_dims_by_vertex() == {(0, "2"): 1, (1, "1"): 1, (2, "2"): 1})
        _require(sorted(h.degree for h in hom_space(P2, P2)) == [0, 2])
        _require(sorted(h.degree for h in hom_space(P1, P2)) == [1])
        _require(hom_space(L1, L2) == [])
        # weight-space dimension of hom spaces matches the vertex dimension
        for name, M in mods.items():
            for v in ("1", "2"):
                P = mods[f"P({v})"]
                homs = hom_space(P, M)
                got = {}
                for h in homs:
                    got[h.degree] = got.get(h.degree, 0) + 1
                want = {d: n for d in M.degrees() if (n := len(M.positions(d, v)))}
                _require(got == want, f"weight-space count for Hom(P({v}), {name})")
        theta = build_theta(B)
        tP1 = tensor_with_bimodule(P1, theta)
        _require(find_module_iso(tP1, P2) is not None, "translation of P(1)")
        tP2 = tensor_with_bimodule(P2, theta)
        want = direct_sum([P2.shift(-1), P2.shift(1)])
        _require(find_module_iso(tP2, want) is not None, "translation of P(2)")
        for name in ("P(1)", "P(2)", "L(1)", "L(2)"):
            for r in (-2, 1):
                lhs = tensor_with_bimodule(mods[name].shift(r), theta)
                rhs = tensor_with_bimodule(mods[name], theta).shift(r)
                if lhs.is_zero() and rhs.is_zero():
                    continue
                _require(find_module_iso(lhs, rhs) is not None,
                         f"translation commutes with shift on {name}")
        piP2 = apply_pi(P2, C)
        _require(piP2.graded_dims_by_vertex() == {(-1, "*"): 1, (1, "*"): 1})
        _require(piP2.act_arrow("x", -1).rank() == 1, "generator acts on the section image")
        piP1 = apply_pi(P1, C)
        _require(piP1.graded_dims_by_vertex() == {(0, "*"): 1})
        _require(apply_pi(L1, C).is_zero())
        details.append("the section of P(1) is generated by the image of the "
                       "length-one path into vertex 1, computed, not assumed")
        # exactness of the section functor on the standard extension
        incl = _find_hom(L2.shift(1), P1)
        proj = _find_hom(P1, L1)
        _require(incl is not None and proj is not None)
        pi_incl = apply_pi_hom(incl, C)
        pi_proj = apply_pi_hom(proj, C)
        _require(pi_incl.rank() == apply_pi(L2.shift(1), C).total_dim())
        ker_dim = apply_pi(P1, C).total_dim() - pi_proj.rank()
        _require(ker_dim == pi_incl.rank(), "section functor is exact on the extension")
        Cfree = projective(C, "*")
        _require(find_module_iso(apply_iota(Cfree, B), P2.shift(1)) is not None)
        iCbar = apply_iota(simple(C, "*"), B)
        _require(iCbar.graded_dims_by_vertex() == {(1, "2"): 1, (2, "1"): 1})
        resB = projective_resolution(L1, 6)
        _require([resB.term(i) for i in (-2, -1, 0)] ==
                 [(Summand("1", 2),), (Summand("2", 1),), (Summand("1", 0),)])
        _require(homology(realize(resB), 0) == L1.graded_dims_by_vertex(),
                 "resolution resolves the simple")
        for i in (-2, -1):
            _require(not homology(realize(resB), i))
        resL2 = projective_resolution(simple(B, "2"), 6)
        _require([resL2.term(i) for i in (-1, 0)] ==
                 [(Summand("1", 1),), (Summand("2", 0),)])
        details.append("resolution of the vertex-2 simple has length one "
                       "(the algebra has global dimension two)")

    def _module_duals(self, details):
        setup = self.setup
        mods = self.setup.standard_modules()
        DL1 = koszul_D_on_object(setup, mods["L(1)"])
        _require(DL1.terms == {0: (Summand("2", 0),)} and not DL1.diffs,
                 "dual of the vertex-1 simple")
        DL2 = koszul_D_on_object(setup, mods["L(2)"])
        _require(DL2.terms == {0: (Summand("1", 0),)} and not DL2.diffs,
                 "dual of the vertex-2 simple")
        DI2 = koszul_D_on_object(setup, mods["I(2)"])
        redI2 = gaussian_reduce(DI2).reduced
        resL1 = projective_resolution(mods["L(1)"], 6)
        v = iso_in_homotopy_category(redI2, resL1, window=(-3, 1))
        _certify(v, "dual of the injective is the simple's model")
        _require(homology(realize(DI2), 0) == mods["L(1)"].graded_dims_by_vertex())
        _require(find_module_iso(mods["P(2)"], mods["I(2)"].shift(2)) is not None,
                 "projective-injective shift relation")
        details.append("dual of the injective computed from the raw bigraded "
                       "construction and reduced; homology certifies the simple")

    def _projector_fixtures(self, details):
        setup = self.setup
        B = self.B()
        N = self.cfg.window
        depth = projector_depth((-N, 0))
        pP2 = P_on_object(setup, projective(B, "2"), depth=depth)
        _require(pP2.terms == {0: (Summand("2", 0),)} and not pP2.diffs,
                 "projector fixes the big projective")
        pP1 = P_on_object(setup, projective(B, "1"), depth=depth)
        c_el = B.path_element(("a", "b"))
        for i in range(-N, 1):
            _require(pP1.term(i) == (Summand("2", -2 * i + 1),), f"term at {i}")
            if i < 0:
                d = pP1.diff(i)
                _require(d.entries[0][0] == c_el, f"differential at {i} is the loop")
        _require(pP1.tail is not None and pP1.tail.side == LEFT_TAIL
                 and pP1.tail.period * 2 == abs(pP1.tail.shift) * 1, "2-periodicity")
        _require(P_on_object(setup, ProjComplex.zero_complex(B), depth=depth).is_zero())
        # idempotency within the window
        ppP1 = P_on_object(setup, pP1, depth=depth)
        v = iso_in_homotopy_category(ppP1, pP1, window=(-N + 2, 0))
        _certify(v, "projector is idempotent on the window")
        details.append("projector of the projector equals the projector "
                       "termwise (free section image, no resolution needed)")

    def _dual_of_p1(self, details):
        # D_of_P1 reduces D(P(1)) and checks it against the two-term model
        raw = D_of_P1(self.setup).original
        model = two_term_dual_model(self.setup)
        h1 = homology(realize(raw), 1)
        B = self.B()
        b_hom = left_multiplication_hom(projective(B, "2"), projective(B, "1").shift(-1),
                                        B.arrow_element("b"))
        coker_dims = homology(Complex(B, {0: b_hom.source, 1: b_hom.target}, {0: b_hom}), 1)
        _require(h1 == coker_dims,
                 "degree-one homology is the cokernel of the length-one map")
        e_raw = euler_class(raw, self.cfg.order)
        e_model = euler_class(model, self.cfg.order)
        _require(e_raw == e_model, "Euler characteristic agrees with the model")
        details.append("the raw bigraded output already equals the model; "
                       "reduction is the identity")

    # -- fixtures for the explicit total-complex model ------------------------

    def _middle_fixture(self, K: int) -> ProjComplex:
        B = self.B()
        a, b = B.arrow_element("a"), B.arrow_element("b")
        e1 = B.idempotent("1")
        z = B.zero()
        terms: dict[int, tuple[Summand, ...]] = {-2: (Summand("1", 2),),
                                                 -1: (Summand("2", 1), Summand("1", 0))}
        for h in range(0, K + 1):
            terms[h] = (Summand("1", -2 * h), Summand("2", -2 * h - 1),
                        Summand("1", -2 * h - 2))
        diffs: dict[int, AlgMatrix] = {}
        diffs[-2] = AlgMatrix(B, terms[-1], terms[-2], [[a], [z]])
        diffs[-1] = AlgMatrix(B, terms[0], terms[-1],
                              [[b, e1], [z, -a], [z, z]])
        for h in range(0, K):
            diffs[h] = AlgMatrix(B, terms[h + 1], terms[h],
                                 [[z, b, e1], [z, z, -a], [z, z, z]])
        return ProjComplex(B, terms, diffs,
                           TailSpec(RIGHT_TAIL, K - 2, 1, -2, repeat=1),
                           "middle-column")

    def _left_fixture(self, K: int) -> ProjComplex:
        B = self.B()
        e1, z = B.idempotent("1"), B.zero()
        terms: dict[int, tuple[Summand, ...]] = {-1: (Summand("1", 0),)}
        for h in range(0, K + 1):
            terms[h] = (Summand("1", -2 * h), Summand("1", -2 * h - 2))
        diffs = {-1: AlgMatrix(B, terms[0], terms[-1], [[e1], [z]])}
        for h in range(0, K):
            diffs[h] = AlgMatrix(B, terms[h + 1], terms[h], [[z, e1], [z, z]])
        return ProjComplex(B, terms, diffs,
                           TailSpec(RIGHT_TAIL, K - 2, 1, -2, repeat=1),
                           "left-column")

    def _right_fixture(self, K: int) -> ProjComplex:
        B = self.B()
        a, c = B.arrow_element("a"), B.path_element(("a", "b"))
        terms: dict[int, tuple[Summand, ...]] = {-2: (Summand("1", 2),),
                                                 -1: (Summand("2", 1),)}
        for h in range(0, K + 1):
            terms[h] = (Summand("2", -2 * h - 1),)
        diffs = {-2: AlgMatrix(B, terms[-1], terms[-2], [[a]])}
        diffs[-1] = AlgMatrix(B, terms[0], terms[-1], [[c]])
        for h in range(0, K):
            diffs[h] = AlgMatrix(B, terms[h + 1], terms[h], [[c]])
        return ProjComplex(B, terms, diffs,
                           TailSpec(RIGHT_TAIL, K - 2, 1, -2, repeat=0),
                           "right-column")

    def _split_fixtures(self, K: int):
        B = self.B()
        a, b = B.arrow_element("a"), B.arrow_element("b")
        e1, e2 = B.idempotent("1"), B.idempotent("2")
        z = B.zero()
        mid, left, right = (self._middle_fixture(K), self._left_fixture(K),
                            self._right_fixture(K))
        J = {-1: AlgMatrix(B, mid.term(-1), left.term(-1), [[z], [e1]])}
        Km = {-2: AlgMatrix(B, right.term(-2), mid.term(-2), [[e1]]),
              -1: AlgMatrix(B, right.term(-1), mid.term(-1), [[e2, z]])}
        L = {-1: AlgMatrix(B, left.term(-1), mid.term(-1), [[b, e1]])}
        M = {-2: AlgMatrix(B, mid.term(-2), right.term(-2), [[e1]]),
             -1: AlgMatrix(B, mid.term(-1), right.term(-1), [[e2], [-b]])}
        for h in range(0, K + 1):
            J[h] = AlgMatrix(B, mid.term(h), left.term(h),
                             [[e1, z], [-a, z], [z, e1]])
            Km[h] = AlgMatrix(B, right.term(h), mid.term(h), [[a, e2, z]])
            L[h] = AlgMatrix(B, left.term(h), mid.term(h),
                             [[e1, z, z], [z, b, e1]])
            M[h] = AlgMatrix(B, mid.term(h), right.term(h), [[z], [e2], [-b]])
        Jm = ProjChainMap(left, mid, J, "J", validate=True)
        Km_ = ProjChainMap(mid, right, Km, "K", validate=True)
        Lm = ProjChainMap(mid, left, L, "L", validate=True)
        Mm = ProjChainMap(right, mid, M, "M", validate=True)
        return mid, left, right, Jm, Km_, Lm, Mm

    def _staircase_bicomplex(self, K: int) -> ProjBicomplex:
        """Columns are shifted copies of the simple's resolution, connected by
        single identity components; totalizes to the middle column."""
        B = self.B()
        a, b = B.arrow_element("a"), B.arrow_element("b")
        e1 = B.idempotent("1")
        terms = {}
        d1 = {}
        d2 = {}
        for k in range(K + 1):
            p = -k
            res_terms = [Summand("1", 2 - 2 * k), Summand("2", 1 - 2 * k),
                         Summand("1", -2 * k)]
            # inner resolution degrees -2..0 are placed at q = inner + 2k
            for inner_idx, s in enumerate(res_terms):
                terms[(p, inner_idx + 2 * k - 2)] = (s,)
            d2[(p, 2 * k - 2)] = AlgMatrix(B, (res_terms[1],), (res_terms[0],), [[a]])
            d2[(p, 2 * k - 1)] = AlgMatrix(B, (res_terms[2],), (res_terms[1],), [[b]])
        for k in range(1, K + 1):
            p = -k
            # connector at shared q = 2(k-1): lowest slot of column k to the
            # top slot of column k-1, both the same shifted projective
            q = 2 * k - 2
            d1[(p, q)] = AlgMatrix(B, terms[(p + 1, q)], terms[(p, q)], [[e1]])
        return ProjBicomplex(B, terms, d1, d2, name="staircase")

    def _total_model(self, details):
        N = self.cfg.window
        K = N
        mid, left, right, J, Km, L, M = self._split_fixtures(K)
        # split identities over the window
        win = (-2, K - 1)
        idL = ProjChainMap.identity(left)
        idR = ProjChainMap.identity(right)
        idM = ProjChainMap.identity(mid)
        LJ, KM, KJ, LM = L.compose(J), Km.compose(M), Km.compose(J), L.compose(M)
        split = J.compose(L) + M.compose(Km)
        for i in range(win[0], win[1] + 1):
            _require(LJ.component(i) == idL.component(i), "L∘J = id")
            _require(KM.component(i) == idR.component(i), "K∘M = id")
            _require(KJ.component(i).is_zero(), "K∘J = 0")
            _require(LM.component(i).is_zero(), "L∘M = 0")
            _require(split.component(i) == idM.component(i), "J∘L + M∘K = id")
        red_left = reduce_on_window(left, (-2, K - 3))
        _require(red_left.reduced.is_zero(), "left column is contractible")
        # the staircase bicomplex totalizes to the middle column
        bc = self._staircase_bicomplex(K)
        tot = total_complex(bc)
        tot_w = (-2, K - 3)
        perm = _sort_by_shift_desc(tot)
        ok, signs = match_up_to_diagonal_signs(perm, mid, tot_w)
        _require(ok, "totalization matches the middle column (up to diagonal signs)")
        if signs and any(s == -1 for row in signs.values() for s in row):
            details.append("totalization sign normalization: " + _sign_summary(signs))
        # the duality image of the projector value matches the shifted middle column
        dp1 = self.dp_side("1")
        shifted_mid = mid.shift(-3, -3)
        cmp_w = (1, min(N, K - 3 + 3))
        ok2, signs2 = match_up_to_diagonal_signs(dp1.clip(*cmp_w), shifted_mid.clip(*cmp_w),
                                                 cmp_w)
        _require(ok2, "computed composite matches the explicit matrices "
                      "(up to diagonal signs)")
        if signs2 and any(s == -1 for row in signs2.values() for s in row):
            details.append("composite sign normalization: " + _sign_summary(signs2))
        red_mid = reduce_on_window(mid, (-2, K - 3))
        v = iso_in_homotopy_category(red_mid.reduced, right, window=(-2, K - 3))
        _certify(v, "middle column reduces to the right column")

    def _ck_on_projectives(self, details):
        setup = self.setup
        B = self.B()
        N = self.cfg.window
        ckP2 = CK_on_object(setup, ProjComplex.from_summand(B, "2"),
                            out_window=(0, N))
        red = reduce_on_window(ckP2, (0, N - 4))
        _require(red.reduced.is_zero(), "contractible on the big projective")
        # the internal matrices are the displayed ones
        d0 = ckP2.diff(0)
        c_el = B.path_element(("a", "b"))
        e2 = B.idempotent("2")
        _require(d0.entries[0][0] == c_el and d0.entries[1][0] == e2,
                 "first structure map")
        d1 = ckP2.diff(1)
        _require(d1.entries == [[-c_el, B.zero()], [e2, -c_el]], "second structure map")
        d2 = ckP2.diff(2)
        _require(d2.entries == [[c_el, B.zero()], [e2, c_el]], "third structure map")
        ckP1 = CK_on_object(setup, ProjComplex.from_summand(B, "1"),
                            out_window=(0, N))
        _require(ckP1.term(0) == (Summand("1", 0),))
        a_el = B.arrow_element("a")
        _require(ckP1.diff(0).entries == [[a_el]],
                 "first differential is the length-one map into the big projective")
        for i in range(1, N - 1):
            _require(ckP1.term(i) == (Summand("2", -2 * i + 1),))
            sign = -1 if i % 2 == 1 else 1
            _require(ckP1.diff(i).entries == [[c_el.scale(sign)]], f"sign at {i}")
        details.append("the stated first differential label in the source "
                       "belongs to the wrong hom space; the computed map is "
                       "the unique one (length-one path), recorded as erratum")

    def _ck_after_duality(self, details):
        setup = self.setup
        B = self.B()
        N = self.cfg.window
        ckd2 = self.ckd_side("2")
        red2 = reduce_on_window(ckd2, (0, N - 4))
        resL1 = projective_resolution(simple(B, "1"), 6)
        model = resL1.shift(-2, -2)
        v = iso_in_homotopy_category(red2.reduced, model, window=(0, N - 4))
        _certify(v, "reduces to the shifted simple model")
        ckd1 = self.ckd_side("1")
        red1 = reduce_on_window(ckd1, (0, N))
        if N < 8:
            raise WindowTooSmall("the semi-infinite reference model needs N >= 8")
        # Lemma model: P(1)<-1> at degree 1, then alternating signed loops
        a_el, c_el = B.arrow_element("a"), B.path_element(("a", "b"))
        terms = {1: (Summand("1", -1),)}
        diffs = {}
        for i in range(2, N + 1):
            terms[i] = (Summand("2", -2 * (i - 1)),)
        diffs[1] = AlgMatrix(B, terms[2], terms[1], [[a_el]])
        for i in range(2, N):
            sign = -1 if i % 2 == 0 else 1
            diffs[i] = AlgMatrix(B, terms[i + 1], terms[i], [[c_el.scale(sign)]])
        model1 = ProjComplex(B, terms, diffs,
                             TailSpec(RIGHT_TAIL, N - 4, 2, -4, repeat=4),
                             "reference-model")
        v1 = iso_in_homotopy_category(red1.reduced, model1, window=(0, N - 2))
        _certify(v1, "matches the displayed semi-infinite model")
        # tensoring the projector complex with the simple's resolution models
        # the shifted simple again
        res = projective_resolution(simple(B, "1"), 6).shift(0, -2)  # degrees 0..2
        ck_res = CK_on_object(setup, res, out_window=(0, N))
        red_res = reduce_on_window(ck_res, (0, N - 4))
        v2 = iso_in_homotopy_category(red_res.reduced, res, window=(0, N - 4))
        _certify(v2, "projector complex fixes the simple's model")

    def _duality_objects(self, details):
        N = self.cfg.window
        for vertex in ("2", "1"):
            dp = self.dp_side(vertex)
            ckd = self.ckd_side(vertex)
            v = iso_in_homotopy_category(dp, ckd, window=(0, N))
            _certify(v, f"composites disagree on P({vertex}): {v.reason}")
            details.append(f"P({vertex}): isomorphism witnessed on window (0, {N})")

    def _duality_maps(self, details):
        setup = self.setup
        N = self.cfg.window
        w = (0, N)
        cmp_w = (0, N - 2)
        for zname, (z, src, tgt) in self.setup.generator_maps().items():
            f0 = left_multiplication_hom(src, tgt, z, zname)
            Pz = P_on_module_map(setup, f0, depth=projector_depth(w))
            DPz = koszul_D_on_map(setup, Pz, out_window=w)
            Dz = koszul_D_on_map(setup, f0, out_window=w)
            CKDz = CK_on_map(setup, Dz, out_window=w)
            red = [reduce_on_window(c, cmp_w) for c in
                   (DPz.source, DPz.target, CKDz.source, CKDz.target)]
            lhs = red[1].to_reduced.compose(DPz).compose(red[0].from_reduced)
            rhs = red[3].to_reduced.compose(CKDz).compose(red[2].from_reduced)
            v = maps_agree_under_identification(lhs, rhs, cmp_w)
            _certify(v, f"maps disagree on {zname}: {v.reason}")
            details.append(f"{zname}: {v.reason}")

    def _shift_laws(self, details):
        setup = self.setup
        mods = self.setup.standard_modules()
        for name in ("P(1)", "P(2)", "L(1)", "L(2)", "I(2)"):
            M = mods[name]
            DM = koszul_D_on_object(setup, M)
            cases = [("internal", r, M.shift(r), DM.shift(-r, -r)) for r in range(-3, 4)]
            cases += [("homological", r, Complex.from_module(M, degree=-r), DM.shift(0, r))
                      for r in range(-3, 4)]
            for law, r, x, rhs in cases:
                lhs = koszul_D_on_object(setup, x)
                lo = min(lhs.window()[0], rhs.window()[0]) - 1
                hi = max(lhs.window()[1], rhs.window()[1]) + 1
                v = iso_in_homotopy_category(lhs, rhs, window=(lo, hi))
                _certify(v, f"{law} shift law fails: {name}, r={r}")
        details.append("both laws checked exactly for all five standard "
                       "modules and shifts up to three in both directions")

    def _decategorification(self, details):
        setup = self.setup
        B = self.B()
        N, order = self.cfg.window, self.cfg.order
        # P is read on -N..0 as in projector-fixtures; euler_class sums its
        # tail exactly, so the depth does not depend on the order
        depth = projector_depth((-N, 0))
        pP1 = P_on_object(setup, projective(B, "1"), depth=depth)
        e = euler_class(pP1, order)
        ref = projective_class("2", order).scale_series(
            quantum_two(order).invert().truncate(order))
        _require(e == ref, "projector class equals the inverted quantum integer "
                           "times the big projective class")
        details.append(f"observed series: {e.series['1'].render()} on the "
                       f"vertex-1 simple")
        details.append(f"reference series: {ref.series['1'].render()}")
        details.append(f"agreement order: {min(e.series['1'].order, ref.series['1'].order)}")
        jw = jones_wenzl_reference(order)
        sq = jw_matrix_square(jw)
        for colk in ("P(1)", "P(2)"):
            for rowk in ("P(1)", "P(2)"):
                _require(sq[colk][rowk] == jw[colk][rowk], "reference idempotent squares")
        # the projector decategorifies to the reference on the module corpus
        for name in ("P(1)", "P(2)", "L(1)", "L(2)"):
            M = self.setup.standard_modules()[name]
            img = P_on_object(setup, M, depth=depth)
            got = euler_class(img, order)
            want = apply_jw_reference(jw, class_of_module(M, order))
            _require(_classes_agree(got, want), f"projector class of {name}")
        # reduction invariance over the corpus
        corpus = [pP1, self.dp_side("1"), self.dp_side("2"),
                  self.ckd_side("1"), self.ckd_side("2"),
                  koszul_D_on_object(setup, self.setup.standard_modules()["I(2)"]),
                  koszul_D_on_object(setup, self.setup.standard_modules()["P(2)"])]
        for c in corpus:
            red = reduce_on_window(c, (min(0, c.window()[0]), N))
            e1 = euler_class(red.original, order)
            e2 = euler_class(red.reduced, order)
            _require(_classes_agree(e1, e2), f"reduction invariance for {c.name}")
        # duality law on the bounded corpus: the twist reads the exact class,
        # so the module's class is taken through its top degree
        for name in ("L(1)", "L(2)", "I(2)", "P(1)", "P(2)"):
            M = self.setup.standard_modules()[name]
            DM = koszul_D_on_object(setup, M)
            got = euler_class(DM, order)
            want = duality_on_class(class_of_module(M, max(order, M.degrees()[-1])))
            _require(got == want, f"duality class law for {name}")
        # topological side
        ck2 = CK_on_object(setup, ProjComplex.from_summand(B, "2"), out_window=(0, N))
        _require(euler_class(ck2, order).is_zero() or
                 _classes_agree(euler_class(ck2, order), KClass.zero(order, REVERSED)),
                 "topological projector kills the big projective in the completion")
        ck1 = CK_on_object(setup, ProjComplex.from_summand(B, "1"), out_window=(0, N))
        got = euler_class(ck1, order)
        # alternating tail sum of the displayed complex, in the inverted variable
        ref1 = _ck_p1_reference_class(order)
        _require(_classes_agree(got, ref1), "topological projector class")
        details.append(f"series compared through order {order} "
                       f"(tails summed exactly as geometric series)")


# The suite in run order: each check's name, the claim it certifies and the
# method of ``_Runner`` that certifies it. ``--only`` names checks from here.
CHECKS = (
    ("algebra-sanity",
     "path algebra on two vertices with one dead loop: graded "
     "dimensions, associativity, radical nilpotence, quadratic "
     "dual and its structure isomorphism", _Runner._algebra_sanity),
    ("translation-bimodule",
     "the translation bimodule and its three structure maps: "
     "dimensions, commuting actions, vanishing consecutive "
     "compositions", _Runner._translation_bimodule),
    ("module-fixtures",
     "standard modules, hom spaces, section/inclusion functor "
     "values, translation on projectives", _Runner._module_fixtures),
    ("module-duals",
     "duality functor images of the four standard modules and "
     "the injective-projective shift relation", _Runner._module_duals),
    ("projector-fixtures",
     "projector on the two projectives: identity on one, the "
     "2-periodic free-resolution model on the other",
     _Runner._projector_fixtures),
    ("dual-of-p1",
     "duality image of the first projective reduces to the "
     "two-term model with the length-one differential",
     _Runner._dual_of_p1),
    ("total-model",
     "the staircase bicomplex totalizes to the displayed middle "
     "column; explicit matrices match up to a diagonal sign "
     "change; split maps exhibit the direct-sum decomposition",
     _Runner._total_model),
    ("ck-on-projectives",
     "topological projector on projectives: contractible on the "
     "big one, the signed 2-periodic complex on the other",
     _Runner._ck_on_projectives),
    ("ck-after-duality",
     "topological projector after duality on both projectives "
     "reduces to the stated shifted simple models",
     _Runner._ck_after_duality),
    ("duality-objects",
     "the two projector constructions agree through duality on "
     "both projectives (isomorphism in the homotopy category)",
     _Runner._duality_objects),
    ("duality-maps",
     "the two projector constructions agree through duality on "
     "the five generator maps", _Runner._duality_maps),
    ("shift-laws",
     "duality intertwines internal shifts diagonally and "
     "commutes with homological shifts", _Runner._shift_laws),
    ("decategorification",
     "graded Euler characteristics: the projector decategorifies "
     "to the degree-two idempotent, classes are reduction- and "
     "quasi-isomorphism-invariant", _Runner._decategorification),
)


def _require(condition, message: str = "") -> None:
    """A check's claim. It raises ``AssertionError(message)``, which the
    runner reports as a failure, under every interpreter flag: an ``assert``
    statement would vanish under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def _certify(v: Verdict, message: str) -> None:
    """A decision's claim: "true" passes, "false" fails with ``message``,
    and "inconclusive" leaves the check inconclusive with the decision's
    reason."""
    if v.value == "inconclusive":
        raise WindowTooSmall(v.reason)
    _require(v.value == "true", message)


def _classes_agree(x: KClass, y: KClass) -> bool:
    """Whether x and y agree at every exponent both classes hold, through
    the lower of their orders (``TruncatedSeries.__eq__``). A bounded
    complex has an exact Laurent class, which is mirrored into the other
    completion before comparing."""
    if x.regime != y.regime:
        if x.regime == STANDARD:
            x = _mirror_exact(x)
        else:
            y = _mirror_exact(y)
    return all(x.series[v] == y.series[v] for v in VERTICES)


def _mirror_exact(k: KClass) -> KClass:
    out = {}
    for v, s in k.series.items():
        out[v] = TruncatedSeries({-e: c for e, c in s.coeffs.items()}, -s.order, s.order)
    return KClass(out, REVERSED if k.regime == STANDARD else STANDARD)


def _ck_p1_reference_class(order: int) -> KClass:
    """Brute-force alternating partial sums of the displayed semi-infinite
    complex for the topological projector on P(1), in the inverted variable."""
    from .kclass import class_of_summand
    acc = class_of_summand(Summand("1", 0), order, reversed_q=True)
    k = 0
    while 2 * k + 1 <= order + 4:
        term = class_of_summand(Summand("2", -1 - 2 * k), order, reversed_q=True)
        acc = acc + (term if (k + 1) % 2 == 0 else -term)
        k += 1
    return acc


def _sort_by_shift_desc(c: ProjComplex) -> ProjComplex:
    """Reorder summands per degree by descending internal shift (then vertex),
    conjugating the differentials accordingly."""
    perms = {i: sorted(range(len(t)), key=lambda k: (-t[k].shift, t[k].vertex))
             for i, t in c.terms.items()}
    terms = {i: tuple(c.terms[i][k] for k in perm) for i, perm in perms.items()}
    # a stored differential joins two stored terms
    diffs = {i: d.submatrix(perms[i + 1], perms[i]) for i, d in c.diffs.items()}
    return ProjComplex(c.algebra, terms, diffs, c.tail, c.name, validate=False)


def _sign_summary(signs: dict[int, list[int]]) -> str:
    flips = []
    for i in sorted(signs):
        for k, s in enumerate(signs[i]):
            if s == -1:
                flips.append(f"({i},{k})")
    if not flips:
        return "none"
    if len(flips) > 12:
        return f"{len(flips)} summands flipped"
    return "flip " + " ".join(flips)


def _find_hom(M: GradedModule, N: GradedModule) -> ModuleHom | None:
    homs = hom_space(M, N, degree=0)
    return homs[0] if homs else None


def run_suite(cfg: VerificationConfig | None = None) -> Report:
    cfg = cfg or VerificationConfig()
    return _Runner(cfg).run()

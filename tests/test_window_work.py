"""The topological projector, the duality functor and Gaussian reduction do
only the work their outputs read: CK builds only the cells of complete total
degrees, only through its head, six degrees past the input's top, copying
the rest by the column period, on objects and on maps, and rejects a head
whose terms alone show no tail before building any matrix, D computes a
left-tailed input's image through its head and copies the rest, the
reduction witnesses are built only when read, by replaying each logged
cancellation as row and column operations, with h summed from the replay's
rank-one factors only when it is read, and the pivot scan resumes at the
last cancellation. The full-work code they replaced is kept here as the
reference, and so are the hand-coded projector columns that the
structure-map table replaced. The eval pool's CK and P expressions are
pinned against the benchmark's reference outputs. CK, D and the resolutions
check d∘d only on the degrees they compute, a count pinned flat in the
window, and every complex of the pool and of the suite's CK, D and P outputs
passes a full re-validation here, copies included. D reads a map off its
image of the map's mapping cone, pinned against the every-degree placement
it replaced, and the map functors' lift systems and chain-identity reads
are pinned flat too, with every map they build re-validated in full. A
resolution step whose input terms are both zero takes one kernel, a count
pinned on a simple module and on the eval pool. A right-tailed reduction
stops one period after its first repeat, so the suite's cancellations are
pinned flat in the window, with no tail test added to find the repeat, and
D never keeps a tail that the window's edge shows but its image past the
window breaks."""

import json
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwcat import complexes, exprs, functors, resolutions, verify
from jwcat.complexes import (LEFT_TAIL, RIGHT_TAIL, AlgMatrix, ProjBicomplex,
                             ProjChainMap, ProjComplex, RegimeError,
                             Summand, TailSpec, WindowTooSmall,
                             _alg_matrix_to_hom, _allowed_paths, attach_tail,
                             gaussian_reduce, realize, shift_summands,
                             total_complex, total_layout)
from jwcat.exprs import ObjectValue, _eval, evaluate, parse, render_value
from jwcat.functors import (CK_on_map, CK_on_object, P_on_module_map,
                            P_on_object, Setup, _ck_column_map, _ck_tensor,
                            _theta_parts, koszul_D_on_map, koszul_D_on_object,
                            projector_depth)
from jwcat.modules import (DUAL_VERTEX, ModuleHom, left_multiplication_hom,
                           projective, simple)
from jwcat.quiver import build_theta
from jwcat.resolutions import projective_resolution
from jwcat.verify import VerificationConfig, run_suite
from test_complexes import ck_p2_complex
from test_reduction_pin import run_pool
from test_tails import outcome

SETUP = Setup.create()
B = SETUP.B
EVAL_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" \
    / "eval-N24.json"


# ---------------------------------------------------------------------------
# the witnesses of a cancellation: composed step matrices, as reference
# ---------------------------------------------------------------------------

class RefEliminator(complexes._Eliminator):
    """Every cancellation builds its step maps f, g, h on the current complex
    and composes them with witnesses of its own, which start as identities
    and zero: F = f∘F, G = G∘g, H += G∘h∘F. The complex itself changes as in
    the production code. ``made`` lists the instances, so that a test can
    read their witnesses."""

    made: list = []

    def __init__(self, c):
        super().__init__(c)
        self.orig = c
        self.F = {i: AlgMatrix.identity(B, t) for i, t in c.terms.items()}
        self.G = {i: AlgMatrix.identity(B, t) for i, t in c.terms.items()}
        self.H = {}
        self.made.append(self)

    def eliminate(self, i, r, col):
        alg = B
        d = self.diffs[i]
        src, tgt = d.cols, d.rows
        lam_inv = Fraction(1) / d.entries[r][col].scalar_part()
        keep_src = [j for j in range(len(src)) if j != col]
        keep_tgt = [k for k in range(len(tgt)) if k != r]
        new_src = tuple(src[j] for j in keep_src)
        new_tgt = tuple(tgt[k] for k in keep_tgt)

        f_i = AlgMatrix.zero(alg, new_src, src)
        for a, j in enumerate(keep_src):
            f_i.entries[a][j] = alg.idempotent(src[j].vertex)
        f_i1 = AlgMatrix.zero(alg, new_tgt, tgt)
        for a, k in enumerate(keep_tgt):
            f_i1.entries[a][k] = alg.idempotent(tgt[k].vertex)
            f_i1.entries[a][r] = -(d.entries[k][col]).scale(lam_inv)
        g_i = AlgMatrix.zero(alg, src, new_src)
        for a, j in enumerate(keep_src):
            g_i.entries[j][a] = alg.idempotent(src[j].vertex)
            g_i.entries[col][a] = -(d.entries[r][j]).scale(lam_inv)
        g_i1 = AlgMatrix.zero(alg, tgt, new_tgt)
        for a, k in enumerate(keep_tgt):
            g_i1.entries[k][a] = alg.idempotent(tgt[k].vertex)
        h_i1 = AlgMatrix.zero(alg, src, tgt)
        h_i1.entries[col][r] = alg.idempotent(src[col].vertex).scale(lam_inv)

        zero_h = AlgMatrix.zero(alg, self.orig.term(i), self.orig.term(i + 1))
        self.H[i + 1] = self.H.get(i + 1, zero_h) + self.G[i] * h_i1 * self.F[i + 1]
        self.F[i], self.F[i + 1] = f_i * self.F[i], f_i1 * self.F[i + 1]
        self.G[i], self.G[i + 1] = self.G[i] * g_i, self.G[i + 1] * g_i1
        super().eliminate(i, r, col)


def ref_reduction(c):
    """``gaussian_reduce(c)`` with ``RefEliminator``, its witnesses read from
    the eliminator's own composed F, G and H."""
    with mock.patch.object(complexes, "_Eliminator", RefEliminator):
        red = gaussian_reduce(c)
    st = RefEliminator.made.pop()
    return SimpleNamespace(reduced=red.reduced,
                           to_reduced=ProjChainMap(c, red.reduced, st.F, validate=False),
                           from_reduced=ProjChainMap(red.reduced, c, st.G, validate=False),
                           homotopy=ProjChainMap(c, c, st.H, validate=False, degree=-1))


class RescanEliminator(complexes._Eliminator):
    """``find_pivot`` as a full rescan: every differential from the lowest
    degree up, wrapped as a matrix and searched row by row."""

    def find_pivot(self, start):
        for i in sorted(self.diffs):
            d = self.diffs[i]
            for r, srow in enumerate(d.rows):
                for col, scol in enumerate(d.cols):
                    if srow == scol and d.entries[r][col].scalar_part() != 0:
                        return i, (r, col)
        return None


def pivots(c, eliminator):
    """The cancellations (i, row, col) of ``gaussian_reduce(c)`` in order,
    with ``eliminator`` in place of ``_Eliminator``, and its witnesses."""
    seen = []

    class Recording(eliminator):
        def eliminate(self, i, r, col):
            seen.append((i, r, col))
            super().eliminate(i, r, col)

    with mock.patch.object(complexes, "_Eliminator", Recording):
        red = gaussian_reduce(c)
    return seen, witness_data(red)


def bases():
    return [projective_resolution(simple(B, "1"), 4),
            projective_resolution(simple(B, "2"), 3),
            ck_p2_complex(B, 8).clip(0, 5),
            koszul_D_on_object(SETUP, projective(B, "1")),
            ProjComplex.from_summand(B, "1"),
            ProjComplex.zero_complex(B)]


BASES = bases()


def elementary(term, a, b, z):
    """I + z·e_ab on ``term`` and its inverse I - z·e_ab (a != b)."""
    e, e_inv = AlgMatrix.identity(B, term), AlgMatrix.identity(B, term)
    e.entries[a][b], e_inv.entries[a][b] = z, -z
    return e, e_inv


def small_complexes():
    """One of ``BASES``, shifted."""
    return st.builds(lambda base, r, h: base.shift(r, h), st.sampled_from(BASES),
                     st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def cluttered(draw, base):
    """``base`` plus contractible cones P(v)<r> --λ·e(v)--> P(v)<r> with λ
    in {1, -1, 2, -3}, then hidden by elementary changes of basis
    X^i -> X^i, so that cancellations meet nonzero κ and β."""
    terms = {i: list(t) for i, t in base.terms.items()}
    cones = []
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(-3, 3))
        s = Summand(draw(st.sampled_from("12")), draw(st.integers(-3, 3)))
        if terms.get(i) and draw(st.booleans()):
            # next to a summand already there, so that maps join them
            s = draw(st.sampled_from(terms[i])).shifted(draw(st.integers(-2, 2)))
        lam = draw(st.sampled_from([1, -1, 2, -3]))
        terms.setdefault(i, []).append(s)
        terms.setdefault(i + 1, []).append(s)
        cones.append((i, len(terms[i]) - 1, len(terms[i + 1]) - 1, s, lam))
    terms = {i: tuple(t) for i, t in terms.items()}
    diffs = {}
    for i in terms:
        if i + 1 not in terms:
            continue
        diffs[i] = AlgMatrix.from_sums(B, terms[i + 1], terms[i],
                                       base.diffs[i].block(0, 0) if i in base.diffs else ())
    for i, col, row, s, lam in cones:
        diffs[i].entries[row][col] = B.idempotent(s.vertex).scale(lam)
    # changes of basis I + z·e_ab on X^i; those that mix a cone's source
    # into another summand give its pivot row other entries (β), those that
    # mix another summand into a cone's target give its pivot column more (κ)
    moves = [(i, a, b) for i, t in terms.items() for a in range(len(t))
             for b in range(len(t)) if a != b and _allowed_paths(B, t[a], t[b])]
    at_cones = [(i, a, b) for i, a, b in moves
                if any((i, a) == (c[0], c[1]) or (i, b) == (c[0] + 1, c[2]) for c in cones)]
    chosen = draw(st.lists(st.sampled_from(at_cones), max_size=4)) if at_cones else []
    chosen += draw(st.lists(st.sampled_from(moves), max_size=4)) if moves else []
    for i, a, b in chosen:
        t = terms[i]
        path = draw(st.sampled_from(_allowed_paths(B, t[a], t[b])))
        z = B.element({path: draw(st.sampled_from([1, -1, 2]))})
        e, e_inv = elementary(t, a, b, z)
        if i - 1 in diffs:
            diffs[i - 1] = e * diffs[i - 1]
        if i in diffs:
            diffs[i] = diffs[i] * e_inv
    return ProjComplex(B, terms, diffs, name="cluttered")


def cluttered_complexes():
    return small_complexes().flatmap(cluttered)


def witness_data(red):
    return (red.reduced.terms, red.reduced.diffs, red.to_reduced.maps,
            red.from_reduced.maps, red.homotopy.maps)


class TestWitnessUpdates:
    @settings(max_examples=120, deadline=None)
    @given(c=cluttered_complexes())
    def test_row_operations_equal_composed_step_matrices(self, c):
        red = gaussian_reduce(c)
        ref = ref_reduction(c)
        assert witness_data(red) == witness_data(ref)

    @settings(max_examples=120, deadline=None)
    @given(c=cluttered_complexes())
    def test_witnesses_form_a_homotopy_equivalence(self, c):
        red = gaussian_reduce(c)
        F, G, h = red.to_reduced, red.from_reduced, red.homotopy
        ProjChainMap(F.source, F.target, F.maps, validate=True)
        ProjChainMap(G.source, G.target, G.maps, validate=True)
        for i, t in red.reduced.terms.items():
            assert F.component(i) * G.component(i) == AlgMatrix.identity(B, t)
        lo, hi = c.window()
        assert h.witnesses(ProjChainMap.identity(c), G.compose(F), (lo - 1, hi + 1))

    @settings(max_examples=120, deadline=None)
    @given(c=cluttered_complexes())
    def test_resumed_scan_finds_the_pivots_of_a_full_rescan(self, c):
        assert pivots(c, complexes._Eliminator) == pivots(c, RescanEliminator)

    def test_a_non_unit_pivot_gives_fraction_witnesses(self):
        t = (Summand("2", 0),)
        c = ProjComplex(B, {0: t, 1: t}, {0: AlgMatrix(B, t, t, [[B.idempotent("2").scale(-3)]])})
        red = gaussian_reduce(c)
        assert red.reduced.is_zero()
        assert red.homotopy.component(1).entries[0][0] == \
            B.idempotent("2").scale(Fraction(-1, 3))


def replays(run):
    """How many cancellation logs ``run()`` replays into witnesses."""
    count = [0]
    replay = complexes._replay

    def counting(c, log):
        count[0] += 1
        return replay(c, log)

    with mock.patch.object(complexes, "_replay", counting):
        run()
    return count[0]


class TestWitnessesOnFirstRead:
    """A reduction builds its witnesses once, on first read, and a caller
    that reads only the reduced complex makes it build none."""

    def test_evaluating_the_eval_pool_replays_no_log(self):
        assert replays(run_pool) == 0

    def test_reading_the_witnesses_twice_replays_once(self):
        red = gaussian_reduce(ck_p2_complex(B, 8).clip(0, 5))
        assert len(red.log) == 5

        def read_twice():
            for _ in range(2):
                red.to_reduced, red.from_reduced, red.homotopy

        assert replays(read_twice) == 1
        assert red.to_reduced is red.to_reduced

    def test_the_suite_replays_only_what_duality_maps_reads(self):
        """Four reductions for each of the five generator maps."""
        suite = replays(lambda: run_suite(VerificationConfig(window=16)))
        alone = replays(lambda: run_suite(VerificationConfig(window=16,
                                                             only=("duality-maps",))))
        assert suite == alone == 20

    def test_the_homotopy_is_summed_only_when_read(self):
        """The suite reads F and G only, so it sums no h; a reduction sums
        its h once, from the factors of its one replay."""
        summed = [0]
        homotopy = complexes._homotopy

        def counting(c, factors):
            summed[0] += 1
            return homotopy(c, factors)

        with mock.patch.object(complexes, "_homotopy", counting):
            run_suite(VerificationConfig(window=16))
            assert summed[0] == 0
            red = gaussian_reduce(ck_p2_complex(B, 8).clip(0, 5))
            assert replays(lambda: (red.homotopy, red.to_reduced, red.homotopy)) == 1
        assert summed[0] == 1


# ---------------------------------------------------------------------------
# the topological projector: hand-coded columns and the full rectangle of
# cells, as reference
# ---------------------------------------------------------------------------

def ref_theta_parts(s, k):
    """Summands of (one projective) ⊗ theta<-(2k-1)>: at vertex 2 the low and
    high copies, at vertex 1 a single copy."""
    if s.vertex == "2":
        return (Summand("2", s.shift - 2 * k), Summand("2", s.shift - 2 * k + 2))
    return (Summand("2", s.shift - 2 * k + 1),)


def ref_ck_column_map(s, k):
    """The structure map of the projector complex on one projective summand,
    from column k to k+1, entry by entry."""
    c = B.path_element(("a", "b"))
    e2 = B.idempotent("2")
    a = B.arrow_element("a")
    if k == 0:
        m = AlgMatrix.zero(B, ref_theta_parts(s, 1), (s,))
        if s.vertex == "2":
            m.entries[0][0] = c
            m.entries[1][0] = e2
        else:
            m.entries[0][0] = a
        return m
    m = AlgMatrix.zero(B, ref_theta_parts(s, k + 1), ref_theta_parts(s, k))
    sign = -1 if k % 2 == 1 else 1   # beta on odd columns, gamma on even
    if s.vertex == "2":
        m.entries[0][0] = c.scale(sign)
        m.entries[1][0] = e2
        m.entries[1][1] = c.scale(sign)
    else:
        m.entries[0][0] = c.scale(sign)
    return m


class TestColumnsDeriveFromTheStructureMapTable:
    def test_parts_and_column_maps_equal_the_hand_coded_ones(self):
        for v in ("1", "2"):
            for shift in range(-6, 7):
                s = Summand(v, shift)
                for k in range(9):
                    assert _theta_parts(SETUP, s, k + 1) == ref_theta_parts(s, k + 1)
                    got, want = _ck_column_map(SETUP, s, k), ref_ck_column_map(s, k)
                    assert got == want, (v, shift, k)
                    got._validate()

    def test_columns_repeat_with_period_two_from_column_one(self):
        """The CK period of "Windows and margins": column k + 1's parts are
        column k's shifted by -2, and the structure map two columns on is
        the same one shifted by -4."""
        for v in ("1", "2"):
            for shift in range(-6, 7):
                s = Summand(v, shift)
                for k in range(1, 9):
                    assert _theta_parts(SETUP, s, k + 1) == \
                        shift_summands(_theta_parts(SETUP, s, k), -2)
                    assert _ck_column_map(SETUP, s, k + 2) == \
                        _ck_column_map(SETUP, s, k).shifted(-4), (v, shift, k)

    def test_the_tensor_on_column_k_is_column_one_shifted(self):
        """m ⊗ id on column k >= 1 is m ⊗ id on column 1 shifted by
        -2(k - 1), on every differential and map component that the suite
        hands the topological projector."""
        maps = suite_ck_maps(16)
        inputs = suite_ck_inputs() + [c for f in maps for c in (f.source, f.target)]
        mats = [m for c in inputs for m in c.diffs.values()]
        mats += [m for f in maps for m in f.maps.values()]
        assert len(mats) == 30
        for m in mats:
            first = _ck_tensor(SETUP, m, 1)
            for k in range(2, 9):
                assert _ck_tensor(SETUP, m, k) == first.shifted(-2 * (k - 1))

    def test_parts_are_the_paths_into_2_of_theta(self):
        into2 = {p for p, _ in build_theta(B).index}
        assert set(sum(SETUP.ck_parts.values(), ())) == into2
        for v, parts in SETUP.ck_parts.items():
            assert all(B.target(p) == v and B.source(p) == "2" for p in parts)


def suite_ck_inputs():
    """The complexes the check suite hands the topological projector as
    objects: P(1), P(2), their duality images and the shifted resolution of
    L(1)."""
    return [ProjComplex.from_summand(B, "1"), ProjComplex.from_summand(B, "2"),
            *(koszul_D_on_object(SETUP, projective(B, v)) for v in ("1", "2")),
            projective_resolution(simple(B, "1"), 6).shift(0, -2)]


def suite_ck_maps(n):
    """The maps the check suite hands the topological projector at window
    (0, n): the duality images of the five generator maps."""
    return [koszul_D_on_map(SETUP, left_multiplication_hom(src, tgt, z, name), (0, n))
            for name, (z, src, tgt) in SETUP.generator_maps().items()]


def ref_ck_bicomplex(setup, x, K):
    """Every cell (k, i) with 0 <= k <= K and X^i stored."""
    if x.tail is not None and x.tail.side == LEFT_TAIL:
        raise RegimeError("topological projector input must be bounded below")
    terms = {(k, i): t if k == 0 else sum((ref_theta_parts(s, k) for s in t), ())
             for i, t in x.terms.items() for k in range(K + 1)}
    d1, d2 = {}, {}
    for i, t in x.terms.items():
        for k in range(K):
            items = []
            ro = co = 0
            for s in t:
                blk = ref_ck_column_map(s, k)
                items += blk.block(ro, co)
                ro += len(blk.rows)
                co += len(blk.cols)
            d1[(k, i)] = AlgMatrix.from_sums(B, terms[(k + 1, i)], terms[(k, i)], items)
        if (i + 1) in x.terms:
            for k in range(K + 1):
                d2[(k, i)] = _ck_tensor(setup, x.diff(i), k)
    return ProjBicomplex(B, terms, d1, d2, name=f"{x.name}⊗CK")


def ref_ck_total(setup, x, out_window):
    """The bicomplex, its total complex and the tail, with no precheck."""
    out_lo, out_hi = out_window
    x = x.materialize(x.window()[0], out_hi + 2)
    x_lo = x.window()[0]
    K = out_hi - x_lo + 2
    bc = ref_ck_bicomplex(setup, x, K)
    if x.is_zero():
        return ProjComplex.zero_complex(setup.B), bc
    tot = total_complex(bc, name=f"ℂ𝕂({x.name})")
    safe_hi = min(out_hi, K + x_lo - 1)
    return attach_tail(tot, (out_lo, safe_hi), RIGHT_TAIL,
                       f"projector tensor output did not stabilize on window "
                       f"{out_window}"), bc


def ref_ck_on_map(setup, f, out_window):
    """f ⊗ id with every component built cell by cell, on the full
    rectangles of ``ref_ck_total``."""
    CX, bcX = ref_ck_total(setup, f.source, out_window)
    CY, bcY = ref_ck_total(setup, f.target, out_window)
    layout_x, layout_y = total_layout(bcX.terms), total_layout(bcY.terms)
    comps = {}
    for n in range(out_window[0], min(CX.window()[1], CY.window()[1]) + 1):
        items = []
        cells_y = layout_y.get(n, {})
        for (k, i), co in layout_x.get(n, {}).items():
            if (k, i) in cells_y:
                items += _ck_tensor(setup, f.component(i), k).block(cells_y[(k, i)], co)
        comps[n] = AlgMatrix.from_sums(B, CY.term(n), CX.term(n), items)
    return ProjChainMap(CX, CY, comps, f"ℂ𝕂({f.name})", validate=True)


def complex_data(c):
    return c.terms, c.diffs, c.tail


def value_data(value):
    """An evaluated object, or the source, target and components of a map."""
    if isinstance(value, ProjChainMap):
        return complex_data(value.source), complex_data(value.target), value.maps
    return complex_data(value)


def eval_reference():
    return json.loads(EVAL_REFERENCE.read_text())


# every expression of the eval pool whose outermost functor is CK: on
# generators, P and D images, shifts, and CK outputs; objects and maps; and
# the left-tailed inputs it rejects with RegimeError
CK_EXPRESSIONS = sorted(
    [e for e in eval_reference()["expressions"] if e.startswith("CK(")]
    + [e for e, why in eval_reference()["rejected"].items()
       if e.startswith("CK(") and why.startswith("RegimeError")])


class TestProjectorBuildsOnlyWhatTheWindowReads:
    def test_the_pool_has_every_kind_of_input(self):
        for expr in ("CK(P(1))", "CK(CK(P(1)))", "CK(D(L(2)))", "CK(P(P(2)))",
                     "CK(P(c))", "CK(D(a))", "CK(P(2)<1>)", "CK(CK(L(1))[1])",
                     "CK(P(L(2)))"):
            assert expr in CK_EXPRESSIONS

    @settings(max_examples=40, deadline=None)
    @given(expr=st.sampled_from(CK_EXPRESSIONS), n=st.integers(4, 48))
    def test_same_verdict_and_output_as_the_full_rectangle(self, expr, n):
        node = parse(expr)
        got = outcome(_eval, SETUP, node, (0, n))
        with mock.patch.object(functors, "_ck_total",
                               lambda *args: ref_ck_total(*args)[0]):
            want = outcome(_eval, SETUP, node, (0, n))
        assert got[0] == want[0]
        if got[0] == "value":
            assert value_data(got[1]) == value_data(want[1])
        else:
            assert got == want

    def test_cells_are_the_complete_part_of_the_rectangle(self):
        x = projective_resolution(simple(B, "1"), 4)
        K = 5
        top = x.window()[0] + K
        bc, ref = functors.ck_bicomplex(SETUP, x, K), ref_ck_bicomplex(SETUP, x, K)
        assert bc.terms == {c: t for c, t in ref.terms.items() if sum(c) <= top}
        assert bc.d1 == {c: m for c, m in ref.d1.items() if sum(c) < top}
        assert bc.d2 == {c: m for c, m in ref.d2.items() if sum(c) < top}
        assert len(bc.terms) < len(ref.terms)

    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_maps_equal_the_ones_built_cell_by_cell(self, n):
        """Past both tops CK_on_map copies its components; the reference
        builds each one."""
        for f in suite_ck_maps(n):
            got, want = CK_on_map(SETUP, f, (0, n)), ref_ck_on_map(SETUP, f, (0, n))
            assert value_data(got) == value_data(want), f.name

    def test_maps_whose_sides_stop_far_apart_or_below_the_window(self):
        """Components are built past one side's head when the other side
        stops more than 4 degrees higher, or when the window starts more
        than 5 degrees past a top; the layout there is the copied one."""
        x = ProjComplex.from_summand(B, "2")
        y = ProjComplex(B, {0: x.term(0), 6: x.term(0)}, {})
        inclusion = ProjChainMap(x, y, {0: AlgMatrix.identity(B, x.term(0))})
        cases = [(inclusion, (0, 16)), (suite_ck_maps(24)[1], (10, 24))]
        for f, w in cases:
            got, want = CK_on_map(SETUP, f, w), ref_ck_on_map(SETUP, f, w)
            assert got.maps and value_data(got) == value_data(want), w

    @pytest.mark.parametrize("name", ["P(2)", "D(I(2))"])
    def test_the_work_does_not_grow_with_the_window(self, name):
        """The bicomplex of a bounded input stops at its head, x_hi + 6, so
        its cells and the tensors it builds are the same at N = 24 and 96."""
        x = (ProjComplex.from_summand(B, "2") if name == "P(2)" else
             koszul_D_on_object(SETUP, SETUP.standard_module("I(2)")))
        counts = []
        for n in (24, 96):
            cells, tensors = [], []
            real_bicomplex, real_tensor = functors.ck_bicomplex, functors._ck_tensor

            def ck_bicomplex(setup, x, K):
                bc = real_bicomplex(setup, x, K)
                cells.append(len(bc.terms))
                return bc

            def ck_tensor(setup, m, k):
                tensors.append(k)
                return real_tensor(setup, m, k)

            with mock.patch.object(functors, "ck_bicomplex", ck_bicomplex), \
                    mock.patch.object(functors, "_ck_tensor", ck_tensor):
                out = CK_on_object(SETUP, x, (0, n))
            assert out.window()[1] == n
            counts.append((cells, len(tensors)))
        assert counts[0] == counts[1]
        # P(2) has no differential to tensor, D(I(2)) has
        assert counts[0][0] and (counts[0][1] == 0) == (name == "P(2)")

    @pytest.mark.parametrize("name, sizes", [("CK(P(2))", (24, 96)),
                                             ("CK(D(I(2)))", (24, 96)),
                                             ("P(L(2))", (12, 48))])
    def test_the_checked_degrees_do_not_grow_with_the_window(self, name, sizes):
        """d∘d is checked on the degrees a construction computes: CK's head
        and a resolution down to its repeat. The copies past them are not
        checked again, so ``ProjComplex._validate`` checks as many degrees
        at N = 24 as at N = 96, and at depth 12 as at depth 48."""
        x = {"CK(P(2))": ProjComplex.from_summand(B, "2"),
             "CK(D(I(2)))": koszul_D_on_object(SETUP, SETUP.standard_module("I(2)")),
             "P(L(2))": simple(B, "2")}[name]
        counts, real = [], ProjComplex._validate
        for n in sizes:
            checked = []

            def validate(c):
                lo, hi = c.window()
                checked.append(hi - lo + 1)
                real(c)

            with mock.patch.object(ProjComplex, "_validate", validate):
                if name.startswith("CK"):
                    out = CK_on_object(SETUP, x, (0, n))
                    assert out.window()[1] == n
                else:
                    out = P_on_object(SETUP, x, depth=n)
                    assert out.window()[0] == -n
            counts.append(sum(checked))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("name", ["D(P(P(1)))", "D(P(L(2)))"])
    def test_duality_checks_and_realizes_as_much_at_every_window(self, name):
        """D computes and validates its head and realizes only the input
        degrees the head reads, so inside ``koszul_D_on_object``
        ``ProjComplex._validate`` checks as many degrees, and
        ``_alg_matrix_to_hom`` realizes as many differentials, at N = 24 as
        at N = 96."""
        counts, real_validate = [], ProjComplex._validate
        real_hom = complexes._alg_matrix_to_hom
        for n in (24, 96):
            depth = projector_depth((0, n))
            x = (P_on_object(SETUP, P_on_object(SETUP, projective(B, "1"), depth), depth)
                 if name == "D(P(P(1)))" else P_on_object(SETUP, simple(B, "2"), depth))
            checked, homs = [], []

            def validate(c):
                lo, hi = c.window()
                checked.append(hi - lo + 1)
                real_validate(c)

            def to_hom(*args):
                homs.append(args[0])
                return real_hom(*args)

            with mock.patch.object(ProjComplex, "_validate", validate), \
                    mock.patch.object(complexes, "_alg_matrix_to_hom", to_hom):
                out = koszul_D_on_object(SETUP, x, (0, n))
            assert out.window()[1] == n
            counts.append((sum(checked), len(homs)))
        assert counts[0] == counts[1]
        assert counts[0][0] > 0 and counts[0][1] > 0

    def test_a_hopeless_window_builds_no_bicomplex(self):
        inner = functors.CK_on_object(SETUP, ProjComplex.from_summand(B, "1"),
                                      out_window=(0, 12))
        want = outcome(ref_ck_total, SETUP, inner, (0, 12))
        assert want[0] == "WindowTooSmall"
        with mock.patch.object(functors, "ck_bicomplex",
                               side_effect=AssertionError("bicomplex built")):
            assert outcome(functors.CK_on_object, SETUP, inner, (0, 12)) == want

    @pytest.mark.parametrize("kind", ["right-tailed", "bounded"])
    def test_a_window_short_of_the_head_builds_no_cell(self, kind):
        """A window that ends before the head, x_hi + 6, raises before a
        cell is built or totalized: a right-tailed input is materialized
        through out_hi, so its x_hi is out_hi, and P(2) in degrees 0 and 8
        has its head at 14, past (0, 12)."""
        s = ProjComplex.from_summand(B, "2").term(0)
        x = (CK_on_object(SETUP, ProjComplex.from_summand(B, "1"), (0, 12))
             if kind == "right-tailed" else ProjComplex(B, {0: s, 8: s}, {}))
        with mock.patch.object(functors, "ck_bicomplex",
                               side_effect=AssertionError("bicomplex built")), \
                mock.patch.object(functors, "total_complex",
                                  side_effect=AssertionError("totalized")):
            assert outcome(functors._ck_total, SETUP, x, (0, 12)) == (
                "WindowTooSmall",
                "projector tensor output did not stabilize on window (0, 12)")


# ---------------------------------------------------------------------------
# the duality functor computes its head and copies
# ---------------------------------------------------------------------------

def ref_koszul_D(setup, x, out_window):
    """D of a left-tailed input on every output degree: the input realized
    down to the first whole period, walking down from its stored bottom,
    whose degrees all land above out_hi + 1, D built and validated on the
    whole window, and its tail detected at out_hi."""
    index, mat = ref_dual_read(x, out_window)
    terms = {q: tuple(Summand(DUAL_VERTEX[lab], -s) for (_, s, _), (_, lab) in v.items())
             for q, v in sorted(index.items())}
    diffs = {}
    for q, vecs in sorted(index.items()):
        up = index.get(q + 1)
        if up is None:
            continue
        items = []
        sign = -1 if q % 2 else 1
        for (r, s, idx), (col, lab) in vecs.items():
            items += functors._dual_items(col, mat.diff(r).mat(s), idx, up, (r + 1, s),
                                          B.idempotent(DUAL_VERTEX[lab]))
            for g in B.quiver.arrows:
                if g.target == lab:
                    items += functors._dual_items(col, mat.term(r).act_arrow(g.name, s),
                                                  idx, up, (r, s + g.degree),
                                                  B.arrow_element(g.name), sign)
        diffs[q] = AlgMatrix.from_sums(B, terms[q + 1], terms[q], items)
    out = ProjComplex(B, terms, diffs, None, f"𝔻({mat.name})")
    return attach_tail(out, out_window, RIGHT_TAIL,
                       "duality output did not stabilize; enlarge the window")


def ref_dual_read(x, out_window):
    """What D reads of ``x``: x realized, and for a left-tailed x extended
    down to the first whole period, walking down from its stored bottom,
    whose degrees all land above out_hi + 1; with its ``_dual_index`` on the
    window."""
    mat = functors._as_module_complex(x)
    if mat.tail is not None:
        out_hi = out_window[1]
        lo, hi = mat.window()
        p = mat.tail.period
        while any(r + min(mat.term(r).degrees(), default=out_hi + 2) <= out_hi + 1
                  for r in range(lo, lo + p)):
            lo -= p
            mat = mat.materialize(lo, hi)
    return functors._dual_index(mat, out_window), mat


def ref_koszul_D_on_map(setup, f, out_window):
    """D(f) as it was built before it was read off the mapping cone: the
    object images as sides, each component placed on every degree from the
    realized components of f, and the chain map validated on every degree.
    An output degree that needs f past its stored degrees raises
    ``WindowTooSmall``."""
    DX = koszul_D_on_object(setup, f.source, out_window)
    DY = koszul_D_on_object(setup, f.target, out_window)
    vx, X = ref_dual_read(f.source, out_window)
    vy, Y = ref_dual_read(f.target, out_window)
    if isinstance(f, ModuleHom):
        homs, stored = {0: f}, {0}
    else:
        homs = {i: _alg_matrix_to_hom(m, X.term(i), Y.term(i), B)
                for i, m in f.maps.items() if i in X.terms and i in Y.terms}
        stored = f.source.terms.keys() & f.target.terms.keys()
    hi = min(DX.window()[1], DY.window()[1])
    comps = {}
    for p in sorted(set(vx) & set(vy)):
        if p > hi:
            continue
        items = []
        target_rs = {(r, s) for (r, s, _) in vy[p]}
        for (r, s, idx), (col, lab) in vx[p].items():
            if (r, s) in target_rs and r not in stored:
                raise WindowTooSmall(
                    f"𝔻({f.name}) at degree {p} needs the component of "
                    f"{f.name} at degree {r}, past its stored degrees; "
                    f"resolve it deeper")
            if r in homs:
                items += functors._dual_items(col, homs[r].mat(s), idx, vy[p], (r, s),
                                              B.idempotent(DUAL_VERTEX[lab]))
        comps[p] = AlgMatrix.from_sums(B, DY.term(p), DX.term(p), items)
    return ProjChainMap(DX, DY, comps, f"𝔻({f.name})", validate=True)


def odd_degrees_higher(offset):
    """P(2)<-2r + offset·[r odd]> in each degree r <= 0, no differentials: a
    left tail of period 2 and shift 4, whose odd degrees land ``offset``
    degrees higher in D than the even ones."""
    terms = {r: (Summand("2", -2 * r + offset * (r % 2)),) for r in range(-8, 1)}
    return ProjComplex(B, terms, {}, TailSpec(LEFT_TAIL, -5, 2, 4), f"odd+{offset}")


@st.composite
def climbing_left_tails(draw):
    """A left-tailed complex with zero differentials: period 1 to 3, a shift
    above the period, one or two random summands in each degree of one
    period, repeated down to the stored bottom."""
    p = draw(st.integers(1, 3))
    s = draw(st.integers(p + 1, p + 4))
    summands = st.builds(Summand, st.sampled_from("12"), st.integers(-4, 4))
    base = [tuple(draw(st.lists(summands, min_size=1, max_size=2))) for _ in range(p)]
    lo = -3 * p - draw(st.integers(0, 2))
    terms = {r: shift_summands(base[-r % p], s * (-r // p)) for r in range(lo, 1)}
    return ProjComplex(B, terms, {}, TailSpec(LEFT_TAIL, lo + 2 * p - 1, p, s),
                       "climbing")


def pool_d_arguments(n):
    """What the eval pool hands D at window (0, n), by argument expression."""
    arguments = {}
    for expr in eval_reference()["expressions"]:
        node = parse(expr)
        while node is not None and node.kind == "apply":
            if node.name == "D":
                got = outcome(_eval, SETUP, node.child, (0, n))
                if got[0] == "value":
                    arguments[repr(node.child)] = got[1]
            node = node.child
    return arguments


def pool_d_inputs(n):
    """The left-tailed complexes the eval pool hands D at window (0, n)."""
    return {key: x for key, x in pool_d_arguments(n).items()
            if isinstance(x, ProjComplex) and x.tail is not None}


class TestDualityComputesItsHeadAndCopies:
    @pytest.mark.parametrize("n", [24, 48, 96])
    def test_every_tailed_input_of_the_pool_gives_the_every_degree_output(self, n):
        inputs = pool_d_inputs(n)
        assert len(inputs) == 18
        for key, x in sorted(inputs.items()):
            got = outcome(koszul_D_on_object, SETUP, x, (0, n))
            want = outcome(ref_koszul_D, SETUP, x, (0, n))
            if got[0] == want[0] == "value":
                got, want = complex_data(got[1]), complex_data(want[1])
            assert got == want, key

    @settings(max_examples=60, deadline=None)
    @given(x=climbing_left_tails())
    def test_random_climbing_tails_give_the_every_degree_output(self, x):
        got = outcome(koszul_D_on_object, SETUP, x, (0, 24))
        want = outcome(ref_koszul_D, SETUP, x, (0, 24))
        if got[0] == want[0] == "value":
            got, want = complex_data(got[1]), complex_data(want[1])
        assert got == want

    @pytest.mark.parametrize("offset, n", [(10, 24), (10, 48), (20, 48), (30, 48)])
    def test_a_period_two_tail_is_read_a_whole_period_down(self, offset, n):
        """Degree r - 2 lands 4 - 2 = 2 higher in D than degree r, but odd
        and even degrees alternate by ``offset``. A read that stopped at the
        first degree landing past the window missed the even degrees below
        it: on (0, 24) with offset 10, degrees 18–24 lacked summands."""
        x = odd_degrees_higher(offset)
        deep = functors._dual_index(realize(x.materialize(-200, 0)), (0, n))
        got = koszul_D_on_object(SETUP, x, (0, n))
        assert got.terms == {
            q: tuple(Summand(DUAL_VERTEX[lab], -s) for (_, s, _), (_, lab) in v.items())
            for q, v in deep.items()}
        assert complex_data(got) == complex_data(ref_koszul_D(SETUP, x, (0, n)))


def pool_d_maps(n):
    """The maps the eval pool hands D at window (0, n)."""
    return {key: f for key, f in pool_d_arguments(n).items()
            if isinstance(f, (ProjChainMap, ModuleHom))}


def suite_d_maps(n):
    """The maps the check suite hands D at window (0, n): the generator maps
    and their P images."""
    maps = {}
    for name, (z, src, tgt) in SETUP.generator_maps().items():
        f0 = left_multiplication_hom(src, tgt, z, name)
        maps[name] = f0
        maps[f"P({name})"] = P_on_module_map(SETUP, f0, projector_depth((0, n)))
    return maps


class TestDualityReadsMapsOffTheCone:
    @pytest.mark.parametrize("n", [24, 48, 96])
    def test_every_map_of_the_pool_and_the_suite_gives_the_placed_output(self, n):
        pool, suite = pool_d_maps(n), suite_d_maps(n)
        assert len(pool) == 15 and len(suite) == 10
        for key, f in sorted({**pool, **{f"suite {k}": f for k, f in suite.items()}}.items()):
            got = outcome(koszul_D_on_map, SETUP, f, (0, n))
            want = outcome(ref_koszul_D_on_map, SETUP, f, (0, n))
            if got[0] == want[0] == "value":
                got, want = value_data(got[1]), value_data(want[1])
            assert got == want, key

    @pytest.mark.parametrize("name", ["D(P(e(1)))", "CK(D(e(1)))", "P(e(1))"])
    def test_map_functors_compute_and_check_as_much_at_every_window(self, name):
        """D reads a map off one cone head, CK builds its components through
        its head and P solves its lift down to the lift repeat, and each
        checks the chain identity only where it reads a computed component:
        the realized homs, the ``sides`` read and the lift systems solved are
        as many at N = 24 as at N = 96."""
        node = parse(name)
        counts = []
        real_sides, real_hom = ProjChainMap.sides, complexes._alg_matrix_to_hom
        real_solve = functors.solve_from_columns

        def counted(log, real):
            def wrapped(*args):
                log.append(args)
                return real(*args)
            return wrapped

        for n in (24, 96):
            w = (0, n)
            f = _eval(SETUP, node.child, w)
            sides, homs, systems = [], [], []
            with mock.patch.object(ProjChainMap, "sides", counted(sides, real_sides)), \
                    mock.patch.object(complexes, "_alg_matrix_to_hom",
                                      counted(homs, real_hom)), \
                    mock.patch.object(functors, "solve_from_columns",
                                      counted(systems, real_solve)):
                out = exprs._apply_functor_to_map(SETUP, node.name, f, w, ())
            assert out.maps
            counts.append((len(sides), len(homs), len(systems)))
        assert counts[0] == counts[1]
        assert counts[0] == {"D(P(e(1)))": (0, 14, 0), "CK(D(e(1)))": (4, 0, 0),
                             "P(e(1))": (7, 0, 3)}[name]

def reproduce_eval_reference(pick) -> int:
    """Evaluate the pool expressions that ``pick`` accepts at the reference
    window and order, check each outcome and text against the reference,
    and return how many there were."""
    ref = eval_reference()
    chosen = {e: entry for e, entry in ref["expressions"].items() if pick(e)}
    window = (0, ref["window"])
    for expr, entry in sorted(chosen.items()):
        got = outcome(evaluate, SETUP, parse(expr), window, ref["order"])
        if got[0] == "value":
            got = "value", render_value(got[1])
        else:
            got = ("inconclusive" if got[0] == "WindowTooSmall" else got[0]), got[1]
        assert got == (entry["outcome"], entry["text"]), expr
    return len(chosen)


class TestRejectedExpressions:
    def test_every_rejected_expression_raises_its_recorded_error(self):
        """The typing rules of the expression language: every expression
        the reference lists as rejected raises the recorded type and text,
        map and object values alike."""
        ref = eval_reference()
        window = (0, ref["window"])
        for expr, want in sorted(ref["rejected"].items()):
            kind, text = outcome(evaluate, SETUP, parse(expr), window, ref["order"])
            assert f"{kind}: {text}" == want, expr
        assert len(ref["rejected"]) == 189


class TestNestedProjectorVerdicts:
    def test_every_nested_expression_matches_the_eval_reference(self):
        assert reproduce_eval_reference(lambda e: e.startswith("CK(CK(")) == 65


# the functor P, not the atoms P(1) and P(2)
APPLIES_P = re.compile(r"P\((?![12]\))")


class TestProjectorRenders:
    def test_every_other_projector_expression_matches_the_eval_reference(self):
        """With the nested-CK and P pins, every pool expression that applies
        CK is pinned; these print the columns of ``_ck_columns``."""
        assert reproduce_eval_reference(
            lambda e: "CK(" in e and not e.startswith("CK(CK(")
            and not APPLIES_P.search(e)) == 115


class TestProjectorDepth:
    def test_every_projector_expression_matches_the_eval_reference(self):
        """P prints its resolution window, so these pin ``projector_depth``
        as well as the values, on objects and on maps."""
        assert reproduce_eval_reference(APPLIES_P.search) == 291


class TestSuffixedChains:
    def test_every_suffixed_chain_without_ck_or_p_matches_the_eval_reference(self):
        """The rest of the pool: suffixed chains of D and atoms, such as
        D(D(I(2)))<-1> and L(1)[1]. A module atom is resolved by
        ``ProjComplexify`` when it takes a homological shift and when its
        value is printed, so these reach the resolver."""
        bases = {e: v["base"] for e, v in eval_reference()["expressions"].items()}
        assert reproduce_eval_reference(
            lambda e: e != bases[e] and "CK(" not in e and not APPLIES_P.search(e)) == 120


# ---------------------------------------------------------------------------
# the copies past the computed degrees hold d∘d and the tail seam
# ---------------------------------------------------------------------------

def revalidate(c):
    """``c`` built again with every check on: d∘d on every stored degree,
    copies included, and the tail seam."""
    ProjComplex(c.algebra, c.terms, c.diffs, c.tail, c.name)


class TestCopiesPassAFullValidation:
    def test_every_complex_of_the_eval_pool(self):
        """Each complex value of the eval pool at N = 24, as evaluated and
        as reduced."""
        ref = eval_reference()
        window = (0, ref["window"])
        values = 0
        for expr in sorted(ref["expressions"]):
            got = outcome(evaluate, SETUP, parse(expr), window, ref["order"])
            if got[0] == "value" and isinstance(got[1], ObjectValue):
                revalidate(got[1].complex)
                revalidate(got[1].reduced)
                values += 1
        assert values == 524

    def test_every_ck_and_p_output_of_the_suite(self, monkeypatch):
        """Each complex the check suite at N = 48 reads out of CK, D and P,
        on objects and as the sides of maps."""
        outputs = []

        def recording(fn, complexes_of):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                outputs.extend(complexes_of(out))
                return out
            return wrapped

        for name in ("CK_on_object", "P_on_object", "koszul_D_on_object"):
            monkeypatch.setattr(verify, name,
                                recording(getattr(verify, name), lambda c: [c]))
        for name in ("CK_on_map", "P_on_module_map", "koszul_D_on_map"):
            monkeypatch.setattr(verify, name, recording(getattr(verify, name),
                                                        lambda f: [f.source, f.target]))
        report = run_suite(VerificationConfig(window=48))
        assert report.verdict_counts()["fail"] == 0
        assert len(outputs) == 147
        for c in outputs:
            revalidate(c)

    def test_every_map_of_the_eval_pool_and_the_suite(self, monkeypatch):
        """Each chain map P, D and CK build for the eval pool at N = 24 and
        for the check suite at N = 48, rebuilt with the chain identity
        checked on every degree, copied components included."""
        maps = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                maps.append(out)
                return out
            return wrapped

        for module in (exprs, verify):
            for name in ("CK_on_map", "P_on_module_map", "koszul_D_on_map"):
                monkeypatch.setattr(module, name, recording(getattr(module, name)))
        ref = eval_reference()
        for expr in sorted(ref["expressions"]):
            outcome(evaluate, SETUP, parse(expr), (0, ref["window"]), ref["order"])
        pool = len(maps)
        run_suite(VerificationConfig(window=48))
        assert (pool, len(maps) - pool) == (44, 20)
        for f in maps:
            ProjChainMap(f.source, f.target, f.maps, f.name)


# ---------------------------------------------------------------------------
# a pure descent step of a resolution takes one kernel
# ---------------------------------------------------------------------------

def kernels(run) -> dict[str, int]:
    """The kernels ``resolve_complex`` takes while ``run()`` runs, by name:
    one Z, the cycles one degree up, per step, and one W, the fiber
    product, per step whose input terms are not both zero."""
    seen = Counter()
    real = resolutions.kernel_submodule

    def counting(f, name="ker"):
        seen[name] += 1
        return real(f, name=name)

    with mock.patch.object(resolutions, "kernel_submodule", counting):
        run()
    return dict(seen)


class TestPureStepsTakeOneKernel:
    """Where Y^i and Y^(i+1) are zero the fiber product W is the cycles Z on
    their own basis, so such a step takes the kernel Z alone ("Resolution
    repeat" in the ``complexes`` module docstring)."""

    @pytest.mark.parametrize("depth", [8, 40])
    def test_a_simple_module(self, depth):
        """L(1) is resolved down to its repeat at any depth: the steps at 0
        and -1 read L(1), the two below it are pure."""
        assert kernels(lambda: projective_resolution(simple(B, "1"), depth)) == \
            {"Z": 4, "W": 2}

    def test_the_eval_pool(self):
        """The pool's value expressions at N = 24, the eval-mix pass but its
        five nested-CK jobs (which take 7 steps and 4 W kernels more): 207
        of the 810 steps are pure."""
        ref = eval_reference()
        window = (0, ref["window"])
        values = [e for e, entry in sorted(ref["expressions"].items())
                  if not entry["base"].startswith("CK(CK(")]

        def run():
            for expr in values:
                evaluate(SETUP, parse(expr), window, ref["order"])

        assert kernels(run) == {"Z": 810, "W": 603}


# ---------------------------------------------------------------------------
# a right-tailed reduction sweeps a head and one period, and walks no tail
# ---------------------------------------------------------------------------

def eliminations(cfg: VerificationConfig) -> int:
    """The cancellations ``run_suite(cfg)`` makes."""
    count = [0]
    eliminate = complexes._Eliminator.eliminate

    def counting(self, i, r, col):
        count[0] += 1
        return eliminate(self, i, r, col)

    with mock.patch.object(complexes._Eliminator, "eliminate", counting):
        run_suite(cfg)
    return count[0]


def break_at_calls(run) -> int:
    """The per-degree tail tests ``_break_at`` makes while ``run()`` runs."""
    count = [0]
    real = complexes._break_at

    def counting(*args):
        count[0] += 1
        return real(*args)

    with mock.patch.object(complexes, "_break_at", counting):
        run()
    return count[0]


class TestRightTailsStopAtTheirRepeat:
    """The sweep of a right tail stops one period after its first repeat
    and copies the rest (the reduction repeat in the ``complexes`` module
    docstring), so the suite cancels as much at every window. The repeat it
    reads is carried by the construction that certified it, so no walk is
    added to find it."""

    @pytest.mark.parametrize("only", [(), ("duality-maps",)])
    def test_the_cancellations_do_not_grow_with_the_window(self, only):
        counts = [eliminations(VerificationConfig(window=n, only=only)) for n in (128, 512)]
        assert counts[0] == counts[1]

    def test_no_tail_test_is_added(self):
        """The counts before the sweep stopped were 1,365 for the suite at
        N = 48 and 5,511 for the pool at N = 24; since the construction
        carries its repeat they were 558 and 3,917, and since D and P's
        lift read that repeat instead of walking to it, 546 and 3,843."""
        assert break_at_calls(lambda: run_suite(VerificationConfig(window=48))) <= 546
        assert break_at_calls(lambda: run_pool(24)) <= 3843


class TestTheLiftWalksFromItsRepeat:
    @pytest.mark.parametrize("name, tests", [("e(1)", 4), ("a", 2), ("b", 2)])
    def test_the_lift_tests_as_many_degrees_at_every_depth(self, name, tests):
        """P on a generator map reads the repeats ``resolve_complex`` found
        and walks neither resolution, so it makes as many tail tests at
        depth 30 as at depth 402: the ones its resolutions' tails make."""
        z, src, tgt = SETUP.generator_maps()[name]
        f0 = left_multiplication_hom(src, tgt, z, name)
        counts = [break_at_calls(lambda: P_on_module_map(SETUP, f0, depth))
                  for depth in (30, 402)]
        assert counts == [tests, tests]


def offset_climbing_tails():
    """``climbing_left_tails`` whose summands of one residue class of the
    period land up to 40 degrees higher in D than the others, as
    ``odd_degrees_higher`` does for period 2."""
    @st.composite
    def build(draw):
        x = draw(climbing_left_tails())
        p, offset = x.tail.period, draw(st.integers(0, 40))
        k = draw(st.integers(0, p - 1))
        terms = {r: t if r % p != k else shift_summands(t, offset)
                 for r, t in x.terms.items()}
        return ProjComplex(B, terms, {}, x.tail, f"climbing+{offset}")
    return build()


class TestDualityCertifiesItsTail:
    """D never keeps a tail the window's edge shows but the true image does
    not have: where its derived tail starts past the window, D computes its
    head past the window and checks the tail found at the window's edge on
    it (D's head in the ``complexes`` module docstring)."""

    def test_a_tail_that_starts_past_the_window_is_not_guessed(self):
        assert outcome(koszul_D_on_object, SETUP, odd_degrees_higher(30), (0, 24)) == \
            ("WindowTooSmall", functors._DUAL_UNSTABLE)

    @settings(max_examples=40, deadline=None)
    @given(x=offset_climbing_tails(), n=st.integers(12, 48))
    def test_d_raises_or_gives_the_deep_image(self, x, n):
        """Each period down lands at least one degree higher in D, so the
        input's degrees below deep_lo all land past ``far``."""
        got = outcome(koszul_D_on_object, SETUP, x, (0, n))
        if got[0] == "WindowTooSmall":
            return
        out = got[1]
        far = n + 4 * out.tail.period
        deep_lo = -x.tail.period * (far + 12)
        deep = functors._dual_index(realize(x.materialize(deep_lo, 0)), (0, far))
        assert out.materialize(0, far).terms == {
            q: tuple(Summand(DUAL_VERTEX[lab], -s) for (_, s, _), (_, lab) in v.items())
            for q, v in deep.items()}

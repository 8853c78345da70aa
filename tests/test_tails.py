"""The periodic tail rule has one owner: ``TailSpec.outward`` gives the
direction, one walk checks the pattern (``detect_tail`` and
``check_tail_seam``), one extension materializes it (both ``materialize``s),
and one function attaches a detected tail (``attach_tail``). The mirrored
per-side code they replaced is kept here as the reference."""

from functools import cache
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwcat import functors, resolutions
from jwcat.complexes import (LEFT_TAIL, RIGHT_TAIL, AlgMatrix, ProjBicomplex,
                             ProjChainMap, ProjComplex, RegimeError, Summand,
                             TailSpec, WindowTooSmall, _tail_break, detect_tail,
                             realize, shift_summands)
from jwcat.exprs import ObjectValue, ParseError, evaluate, parse
from jwcat.functors import (CK_on_object, P_on_object, Setup, _cone,
                            koszul_D_on_map, koszul_D_on_object)
from jwcat.modules import projective, simple
from jwcat.quiver import ConstructionError
from test_complexes import ck_p2_complex
from test_reduction_pin import pool_expressions

SETUP = Setup.create()
B = SETUP.B
WINDOW = (0, 8)


# ---------------------------------------------------------------------------
# the mirrored per-side code, as reference
# ---------------------------------------------------------------------------

def ref_detect_tail(c, side):
    if c.is_zero():
        return None
    lo, hi = c.window()
    for p in range(1, 5):
        if side == RIGHT_TAIL:
            if hi - 3 * p + 1 < lo:
                continue
            ref_out, ref_in = c.term(hi), c.term(hi - p)
            if not ref_out or len(ref_out) != len(ref_in):
                continue
            s = ref_out[0].shift - ref_in[0].shift
            ok = True
            for i in range(hi - 2 * p + 1, hi + 1):
                if c.term(i) != shift_summands(c.term(i - p), s):
                    ok = False
                    break
                if i < hi and not (c.diff(i) == c.diff(i - p).shifted(s)):
                    ok = False
                    break
            if ok:
                return (side, hi - 2 * p + 1, p, s)
        else:
            if lo + 3 * p - 1 > hi:
                continue
            ref_out, ref_in = c.term(lo), c.term(lo + p)
            if not ref_out or len(ref_out) != len(ref_in):
                continue
            s = ref_out[0].shift - ref_in[0].shift
            ok = True
            for i in range(lo + 2 * p - 1, lo - 1, -1):
                if c.term(i) != shift_summands(c.term(i + p), s):
                    ok = False
                    break
                if not (c.diff(i) == c.diff(i + p).shifted(s)):
                    ok = False
                    break
            if ok:
                return (side, lo + 2 * p - 1, p, s)
    return None


def ref_check_tail_seam(c):
    t = c.tail
    lo, hi = c.window()
    p, s = t.period, t.shift
    if t.side == RIGHT_TAIL:
        if hi < t.start + 2 * p - 1:
            raise WindowTooSmall(
                f"window {c.window()} cannot exhibit tail of {c.name}")
        for i in range(t.start, hi + 1):
            if c.term(i) != shift_summands(c.term(i - p), s):
                raise ConstructionError(f"tail term pattern broken at {i} in {c.name}")
            if i < hi and not (c.diff(i) == c.diff(i - p).shifted(s)):
                raise ConstructionError(f"tail diff pattern broken at {i} in {c.name}")
    else:
        if lo > t.start - 2 * p + 1:
            raise WindowTooSmall(
                f"window {c.window()} cannot exhibit tail of {c.name}")
        for i in range(t.start, lo - 1, -1):
            if c.term(i) != shift_summands(c.term(i + p), s):
                raise ConstructionError(f"tail term pattern broken at {i} in {c.name}")
            if not (c.diff(i) == c.diff(i + p).shifted(s)):
                raise ConstructionError(f"tail diff pattern broken at {i} in {c.name}")


def ref_materialize(c, lo, hi):
    terms = dict(c.terms)
    diffs = dict(c.diffs)
    t = c.tail
    if t is not None:
        p, s = t.period, t.shift
        stored_lo, stored_hi = c.window()
        extends = hi > stored_hi if t.side == RIGHT_TAIL else lo < stored_lo
        if extends and stored_hi - stored_lo + 1 < p:
            raise WindowTooSmall(
                f"window {c.window()} cannot exhibit tail of {c.name}")
        if t.side == RIGHT_TAIL:
            i = c.window()[1] + 1
            while i <= hi:
                terms[i] = shift_summands(terms[i - p], s)
                if (i - 1) not in diffs and (i - 1 - p) in diffs:
                    diffs[i - 1] = diffs[i - 1 - p].shifted(s)
                i += 1
        else:
            i = c.window()[0] - 1
            while i >= lo:
                terms[i] = shift_summands(terms[i + p], s)
                if i not in diffs and (i + p) in diffs:
                    diffs[i] = diffs[i + p].shifted(s)
                i -= 1
    return ProjComplex(c.algebra, terms, diffs, t, c.name, validate=False)


# ---------------------------------------------------------------------------
# the corpus: left- and right-tailed functor outputs and fixtures
# ---------------------------------------------------------------------------

CORPUS_NAMES = ("P(P(1))", "P(L(2))", "CK(P(1))", "D(P(P(1)))", "nu-eta-zeta",
                "cones-3", "cones-4")


def spaced_cones(period, hi=13):
    """Cones P(2)<-2k> --e(2)--> P(2)<-2k> starting in each degree
    period·k, with P(2)<-2k> alone in the degrees between: a right tail
    of the given period and shift -2, stored on degrees 0..hi."""
    e2 = B.idempotent("2")
    terms = {i: (Summand("2", -2 * (i // period)),) for i in range(hi + 1)}
    diffs = {i: AlgMatrix(B, terms[i + 1], terms[i], [[e2]])
             for i in range(0, hi, period)}
    return ProjComplex(B, terms, diffs, TailSpec(RIGHT_TAIL, period, period, -2),
                       f"cones-{period}")


@cache
def corpus() -> dict[str, ProjComplex]:
    """Built on first use, so that a construction broken by a change fails
    the tests that read the corpus rather than the module's import."""
    depth = WINDOW[1] - WINDOW[0] + 6
    pp1 = P_on_object(SETUP, P_on_object(SETUP, projective(B, "1"), depth=depth),
                      depth=depth)
    return {
        "P(P(1))": pp1,
        "P(L(2))": P_on_object(SETUP, simple(B, "2"), depth=depth),
        "CK(P(1))": CK_on_object(SETUP, ProjComplex.from_summand(B, "1"),
                                 out_window=WINDOW),
        "D(P(P(1)))": koszul_D_on_object(SETUP, pp1, out_window=WINDOW),
        "nu-eta-zeta": ck_p2_complex(B, 8),
        "cones-3": spaced_cones(3),
        "cones-4": spaced_cones(4),
    }


def with_tail(c, tail):
    return ProjComplex(c.algebra, c.terms, c.diffs, tail, c.name, validate=False)


def outcome(fn, *args):
    """What a call gives: its value, or the type and text of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:   # noqa: BLE001 - the exception is the outcome
        return type(exc).__name__, str(exc)


@st.composite
def tailed_complexes(draw, corrupt=True):
    """A corpus complex, shifted, possibly clipped (keeping its tail), and
    possibly with one term or differential entry corrupted."""
    c = corpus()[draw(st.sampled_from(CORPUS_NAMES))]
    c = c.shift(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    tail = c.tail
    lo, hi = c.window()
    if draw(st.booleans()):
        a = draw(st.integers(lo, hi))
        c = with_tail(c.clip(a, draw(st.integers(a, hi))), tail)
    kind = draw(st.sampled_from(["term", "diff", None])) if corrupt else None
    if kind == "term" and c.terms:
        i = draw(st.sampled_from(sorted(c.terms)))
        k = draw(st.integers(0, len(c.term(i)) - 1))
        term = list(c.term(i))
        term[k] = term[k].shifted(1)
        c = ProjComplex(c.algebra, {**c.terms, i: tuple(term)}, c.diffs, tail,
                        c.name, validate=False)
    elif kind == "diff" and c.diffs:
        i = draw(st.sampled_from(sorted(c.diffs)))
        d = c.diffs[i]
        r = draw(st.integers(0, len(d.rows) - 1))
        k = draw(st.integers(0, len(d.cols) - 1))
        bad = AlgMatrix(c.algebra, d.rows, d.cols, d.entries, validate=False)
        e = bad.entries[r][k]
        bad.entries[r][k] = e.scale(2) if e.terms else c.algebra.idempotent(d.rows[r].vertex)
        c = ProjComplex(c.algebra, c.terms, {**c.diffs, i: bad}, tail, c.name,
                        validate=False)
    return c


class TestOneRuleBothSides:
    def test_outward_is_the_direction_of_each_side(self):
        assert corpus()["P(L(2))"].tail.outward == -1
        assert corpus()["CK(P(1))"].tail.outward == 1
        assert {c.tail.side for c in corpus().values()} == {LEFT_TAIL, RIGHT_TAIL}

    @settings(max_examples=150, deadline=None)
    @given(c=tailed_complexes(), side=st.sampled_from([LEFT_TAIL, RIGHT_TAIL]))
    def test_detect_tail_matches_the_mirrored_code(self, c, side):
        t = detect_tail(c, side)
        want = ref_detect_tail(c, side)
        assert (None if t is None else (t.side, t.start, t.period, t.shift)) == want

    @settings(max_examples=150, deadline=None)
    @given(c=tailed_complexes())
    def test_seam_check_matches_the_mirrored_code(self, c):
        assert outcome(c.check_tail_seam) == outcome(ref_check_tail_seam, c)

    @settings(max_examples=150, deadline=None)
    @given(c=tailed_complexes(), below=st.integers(0, 6), above=st.integers(0, 6))
    def test_materialize_matches_the_mirrored_code(self, c, below, above):
        lo, hi = c.window()
        got = outcome(c.materialize, lo - below, hi + above)
        want = outcome(ref_materialize, c, lo - below, hi + above)
        if got[0] == "value" and want[0] == "value":
            got = "value", (got[1].terms, got[1].diffs, got[1].tail)
            want = "value", (want[1].terms, want[1].diffs, want[1].tail)
        assert got == want

    def test_a_window_shorter_than_one_period_cannot_be_extended(self):
        c = ck_p2_complex(B, 8)
        short = with_tail(c.clip(8, 8), c.tail)
        with pytest.raises(WindowTooSmall,
                           match=r"window \(8, 8\) cannot exhibit tail of nu-eta-zeta"):
            short.materialize(0, 12)
        with pytest.raises(WindowTooSmall, match="cannot exhibit tail"):
            realize(short).materialize(0, 12)
        assert short.materialize(8, 8).terms == short.terms

    @settings(max_examples=150, deadline=None)
    @given(c=tailed_complexes(corrupt=False), side=st.sampled_from([LEFT_TAIL, RIGHT_TAIL]))
    def test_a_detected_tail_passes_the_seam_check(self, c, side):
        t = detect_tail(c, side)
        if t is not None:
            with_tail(c, t).check_tail_seam()

    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(CORPUS_NAMES), below=st.integers(0, 3),
           above=st.integers(0, 3))
    def test_realize_commutes_with_materialize(self, name, below, above):
        pc = corpus()[name]
        lo, hi = pc.window()
        lo, hi = lo - below, hi + above
        a, b = realize(pc.materialize(lo, hi)), realize(pc).materialize(lo, hi)
        assert a.window() == b.window() and a.tail == b.tail
        assert a.terms == b.terms
        assert set(a.diffs) == set(b.diffs)
        for i, d in a.diffs.items():
            e = b.diffs[i]
            assert d == e and d.source == e.source and d.target == e.target


class TestGeneralProjectorKeepsTheTail:
    def test_general_path_equals_the_vertex_two_shortcut(self):
        x = P_on_object(SETUP, simple(B, "2"), depth=12)
        fast = P_on_object(SETUP, x, depth=16)              # all summands at vertex 2
        general = P_on_object(SETUP, realize(x), depth=16)  # through resolve_complex
        assert general.tail is not None and fast.tail is not None
        assert general.tail.side == LEFT_TAIL
        assert (general.tail.period, general.tail.shift) == \
            (fast.tail.period, fast.tail.shift)
        lo = max(fast.window()[0], general.window()[0])
        hi = min(fast.window()[1], general.window()[1])
        assert (lo, hi) == fast.window()
        for i in range(lo, hi + 1):
            assert general.term(i) == fast.term(i)
        for i in range(lo, hi):
            assert general.diff(i) == fast.diff(i)
        general.check_tail_seam()


# ---------------------------------------------------------------------------
# corrupted blocks are still caught where each tail is attached. Only the
# degrees a construction computes are validated, and its copies past them
# are not, so each corruption enters where the construction computes.
# ---------------------------------------------------------------------------

def break_dd(diffs):
    """``diffs`` with one entry changed so that d(p+1)∘d(p) != 0."""
    for p in sorted(diffs):
        after = diffs.get(p + 1)
        if after is None:
            continue
        d = diffs[p]
        for r, row in enumerate(d.rows):
            for k, col in enumerate(d.cols):
                if row.vertex != col.vertex:
                    continue
                bad = AlgMatrix(d.algebra, d.rows, d.cols, d.entries, validate=False)
                bad.entries[r][k] = bad.entries[r][k] + d.algebra.idempotent(row.vertex)
                if not (after * bad).is_zero():
                    return {**diffs, p: bad}
    raise AssertionError("no entry breaks d∘d")


def break_seam(diffs, degree=lambda key: key):
    """``diffs`` with the differential out of each degree n scaled by n + 100:
    still d∘d = 0, but no two degrees repeat."""
    return {key: d.scale(degree(key) + 100) for key, d in diffs.items()}


def corrupting(breaker):
    """A ``ProjComplex`` whose raw (tailless, validated) construction passes
    its differentials through ``breaker`` first. Every ``ProjComplex`` counts
    as an instance of it, so a module patched with it still tells a formal
    input from a realized one."""
    class Corrupting(type):
        def __instancecheck__(cls, obj):
            return isinstance(obj, ProjComplex)

    class Corrupted(ProjComplex, metaclass=Corrupting):
        def __init__(self, algebra, terms, diffs, tail=None, name="X", validate=True):
            if tail is None and validate and diffs:
                diffs = breaker(diffs)
            super().__init__(algebra, terms, diffs, tail, name, validate)
    return Corrupted


def corrupt_bicomplex(monkeypatch, breaker):
    real = functors.ck_bicomplex

    def ck_bicomplex(setup, x, K):
        bc = real(setup, x, K)
        d1, d2 = breaker(bc.d1, bc.d2)
        return ProjBicomplex(bc.algebra, bc.terms, d1, d2, bc.name)

    monkeypatch.setattr(functors, "ck_bicomplex", ck_bicomplex)


def run_ck(window=WINDOW):
    return CK_on_object(SETUP, ProjComplex.from_summand(B, "2"), out_window=window)


def run_d(kind="formal", window=WINDOW):
    """D on P(P(1)) as the formal complex or realized as a ``Complex``."""
    x = corpus()["P(P(1))"]
    return koszul_D_on_object(SETUP, x if kind == "formal" else realize(x),
                              out_window=window)


def run_p():
    return P_on_object(SETUP, simple(B, "2"), depth=10)


class TestCorruptionIsCaughtAtEveryAttachment:
    @pytest.fixture(autouse=True)
    def unpatched_corpus(self):
        """The cached corpus is built before a test patches a constructor,
        whichever test runs first."""
        corpus()

    def test_uncorrupted_sites_attach_their_tails(self):
        assert run_ck().tail.side == RIGHT_TAIL
        assert run_d("formal").tail == run_d("realized").tail
        assert run_d().tail.side == RIGHT_TAIL
        assert run_p().tail.side == LEFT_TAIL

    @pytest.mark.parametrize("kind", ["formal", "realized"])
    def test_duality_dd(self, monkeypatch, kind, window=WINDOW):
        monkeypatch.setattr(functors, "ProjComplex", corrupting(break_dd))
        with pytest.raises(ConstructionError, match="d∘d"):
            run_d(kind, window)

    @pytest.mark.parametrize("kind", ["formal", "realized"])
    def test_duality_seam(self, monkeypatch, kind, window=WINDOW):
        monkeypatch.setattr(functors, "ProjComplex", corrupting(break_seam))
        with pytest.raises(WindowTooSmall, match="duality output did not stabilize"):
            run_d(kind, window)

    # on (0, 24) D stops at its head, degree 10, and the tail rule copies
    # the rest: a break is caught where it was computed
    @pytest.mark.parametrize("kind", ["formal", "realized"])
    def test_duality_dd_past_the_head(self, monkeypatch, kind):
        self.test_duality_dd(monkeypatch, kind, (0, 24))

    @pytest.mark.parametrize("kind", ["formal", "realized"])
    def test_duality_seam_past_the_head(self, monkeypatch, kind):
        self.test_duality_seam(monkeypatch, kind, (0, 24))

    def test_resolution_dd(self, monkeypatch):
        monkeypatch.setattr(resolutions, "ProjComplex", corrupting(break_dd))
        with pytest.raises(ConstructionError, match="d∘d"):
            run_p()

    def test_resolution_seam(self, monkeypatch):
        # each computed differential scaled by a new factor: still d∘d = 0,
        # but no repeat shows
        real, factors = resolutions._hom_to_alg_matrix, count(100)
        monkeypatch.setattr(resolutions, "_hom_to_alg_matrix",
                            lambda *args: real(*args).scale(next(factors)))
        with pytest.raises(WindowTooSmall, match="neither terminates nor stabilizes"):
            run_p()

    def test_topological_projector_dd(self, monkeypatch, window=WINDOW):
        def breaker(d1, d2):
            # one horizontal block, checked by the totalization
            k, i = min(key for key in d1 if (key[0] + 1, key[1]) in d1)
            bad = break_dd({k: d1[(k, i)], k + 1: d1[(k + 1, i)]})[k]
            return {**d1, (k, i): bad}, d2
        corrupt_bicomplex(monkeypatch, breaker)
        with pytest.raises(ConstructionError, match="d∘d"):
            run_ck(window)

    def test_topological_projector_seam(self, monkeypatch, window=WINDOW):
        def breaker(d1, d2):
            def total(cell):
                return cell[0] + cell[1]
            return break_seam(d1, degree=total), break_seam(d2, degree=total)
        corrupt_bicomplex(monkeypatch, breaker)
        with pytest.raises(WindowTooSmall, match="projector tensor output did not stabilize"):
            run_ck(window)

    # on (0, 24) the bicomplex stops at its head, 6 degrees past the input's
    # top, and the tail rule copies the rest: a break is caught where it was
    # computed
    def test_topological_projector_dd_past_the_head(self, monkeypatch):
        self.test_topological_projector_dd(monkeypatch, (0, 24))

    def test_topological_projector_seam_past_the_head(self, monkeypatch):
        self.test_topological_projector_seam(monkeypatch, (0, 24))


# ---------------------------------------------------------------------------
# a certified tail holds past the window
# ---------------------------------------------------------------------------

def pool_object_values(n):
    """The object values of the eval pool, nested CK excluded, at N = n."""
    values = {}
    for expr in pool_expressions():
        try:
            value = evaluate(SETUP, parse(expr), (0, n), 2 * n + 1)
        except (WindowTooSmall, ParseError, RegimeError):
            continue
        if isinstance(value, ObjectValue):
            values[expr] = value
    return values


def climbing(lo, hi, extra=None, side=LEFT_TAIL):
    """P(2)<-2i> in each degree i of lo..hi, with the summands ``extra``
    adds in some degrees, no differentials, and the tail ``detect_tail``
    finds on ``side``."""
    extra = extra or {}
    c = ProjComplex(B, {i: (Summand("2", -2 * i),) + extra.get(i, ())
                        for i in range(lo, hi + 1)}, {}, name=f"climbing{lo}..{hi}")
    c.tail = detect_tail(c, side)
    return c


class TestCertifiedTailsHoldPastTheWindow:
    def test_every_tailed_value_of_the_pool_is_the_deep_one(self):
        """Each tailed complex and reduced complex of the pool at N = 12,
        materialized to 48, equals the one computed at N = 48 on every
        degree both store."""
        small, deep = pool_object_values(12), pool_object_values(48)
        checked = 0
        for expr, value in small.items():
            for kind in ("complex", "reduced"):
                c, d = getattr(value, kind), getattr(deep[expr], kind)
                if not isinstance(c, ProjComplex) or c.tail is None:
                    continue
                lo, hi = c.window()
                c = c.materialize(*((lo, 48) if c.tail.outward > 0 else (-48, hi)))
                lo, hi = max(c.window()[0], d.window()[0]), min(c.window()[1], d.window()[1])
                assert hi - lo > 30, expr
                assert [c.term(i) for i in range(lo, hi + 1)] == \
                    [d.term(i) for i in range(lo, hi + 1)], (expr, kind)
                assert [c.diff(i) for i in range(lo, hi)] == \
                    [d.diff(i) for i in range(lo, hi)], (expr, kind)
                checked += 1
        assert checked > 300

    def test_ck_keeps_no_tail_that_a_term_past_the_window_breaks(self):
        """P(2) in degrees 0 and 20: on (0, 12) the window's edge shows
        CK's period, but the term at 20 adds cells from degree 20 on. The
        head, x_hi + 6 = 26, lies past the window, so CK raises."""
        x = ProjComplex(B, {0: (Summand("2", 0),), 20: (Summand("2", 0),)}, {})
        assert outcome(CK_on_object, SETUP, x, (0, 12)) == (
            "WindowTooSmall", "projector tensor output did not stabilize on window (0, 12)")
        assert CK_on_object(SETUP, x, (0, 26)).tail.repeat == 23

    @pytest.mark.parametrize("depth", [7, 8, 9])
    def test_a_resolution_cut_at_the_floor_is_never_bounded(self, depth):
        """P(1)<-2i> in each degree i <= 0 that 5 divides, a period no tail
        walk tries: below -30 the floor leaves the last 2 to 4 degrees empty,
        but the input goes on, so its resolution is never bounded there."""
        x = ProjComplex(B, {i: (Summand("1", -2 * i),) for i in range(-30, 1, 5)}, {},
                        TailSpec(LEFT_TAIL, -20, 5, 10), "every-fifth")
        assert outcome(resolutions.resolve_complex, realize(x), depth) == (
            "WindowTooSmall",
            f"resolution of every-fifth neither terminates nor stabilizes at depth {depth}")

    def test_a_cone_keeps_the_terms_of_the_side_stored_further_out(self):
        """X stored on -10..0 and Y on -40..0, with a P(1)<31> in Y's head at
        -13: the cone of the zero map X -> Y is stored from Y's bottom, so
        its copies do not overwrite that summand, and D of the map has
        D(Y) as its target."""
        X, Y = climbing(-10, 0), climbing(-40, 0, {-13: (Summand("1", 31),)})
        f = ProjChainMap(X, Y, {})
        cone, Xm = _cone(f).materialize(-16, 0), X.materialize(-15, 0)
        assert {i: cone.term(i) for i in range(-16, 1)} == \
            {i: Xm.term(i + 1) + Y.term(i) for i in range(-16, 1)}
        got = koszul_D_on_map(SETUP, f, (0, 40)).target
        want = koszul_D_on_object(SETUP, Y, (0, 40))
        assert (got.terms, got.diffs, got.tail) == (want.terms, want.diffs, want.tail)

    def test_a_cone_holds_its_tail_from_its_repeat(self):
        """The cone's repeat is the outer of its sides' repeats, X's moved
        by -1, where a bounded side counts from L + 2 degrees past its
        edge. Its pattern holds on every stored degree from there, and its
        copies are the cone of the sides' copies."""
        bounded = ProjComplex(B, {-20: (Summand("1", 31),)}, {})
        cases = [(climbing(0, 10, side=RIGHT_TAIL),
                  climbing(0, 40, {13: (Summand("1", 31),)}, RIGHT_TAIL), 39),
                 (climbing(-10, 0), climbing(-40, 0, {-13: (Summand("1", 31),)}), -39),
                 (climbing(-10, 0), bounded, -23)]
        for X, Y, repeat in cases:
            cone = _cone(ProjChainMap(X, Y, {}))
            assert cone.tail.repeat == repeat
            assert _tail_break(cone, cone.tail) is None
            lo, hi = (-60, 0) if cone.tail.side == LEFT_TAIL else (-1, 60)
            Xm, Ym = (c if c.tail is None else c.materialize(lo, hi + 1) for c in (X, Y))
            assert {i: cone.materialize(lo, hi).term(i) for i in range(lo, hi + 1)} == \
                {i: Xm.term(i + 1) + Ym.term(i) for i in range(lo, hi + 1)}

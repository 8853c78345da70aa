"""The paper's laws over the objects of the eval pool at N = 12, and over
maps between sums of shifted projectives.

D(P(x)) ≅ CK(D(x)) over every atom with at most one shift, and P or D of
one (75 objects). Each side is built by the expression evaluator on the
decision's window. A ``WindowTooSmall`` while building a side is
inconclusive, as it is for a decision. On (0, 12) six pairs answer "false":
CK(D(x)) starts below degree 0 there and its construction clips it at 0
(ROADMAP item 3). On (-8, 12) every pair that can be built is "true".

The shift laws F(y s) ≅ F(y) s for F in {P, D, CK}, s in {<1>, <-1>, [1],
[-1]} and the 15 objects y that are an atom or P or D of one; D turns <r>
into <-r>[-r]. A pair is undefined when a side cannot be built
(``WindowTooSmall``, or ``RegimeError`` for CK of a left-tailed input). On
(0, 12) the decision cannot reduce a side of 18 pairs on the window and
answers "inconclusive" there: P(y s) against P(y) s, whose sides are stored
below the window. Three pairs answer "false", CK(y[-1]) against CK(y)[-1]
for y = L(1), L(2) and D(I(2)): item 3's cut again. On (-8, 12) all 172
defined pairs are "true".

The law on maps, D(P(f)) against CK(D(f)) under an identification of the
objects, for degree-0 maps f between sums of one or two P(v)<r>,
r in [-1, 2], each a combination of a ``hom_space`` basis, through the
pipeline of ``duality-maps`` on (-8, 12): never "false". A scan of 300
random maps found 236 "true" and 64 inconclusive ("no invertible
intertwining identification found").

The law on cones, D(P(cone f)) against CK(D(cone f)) for the same maps f, on
(-8, 12): never "false". Its right-tailed sides reach the reduction's stop
with tails that the suite and the pool do not build."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwcat.complexes import (RegimeError, WindowTooSmall, iso_in_homotopy_category,
                             maps_agree_under_identification, reduce_on_window)
from jwcat.exprs import OBJECT_ATOMS, _eval, parse
from jwcat.functors import (CK_on_map, CK_on_object, P_on_module_map, P_on_object,
                            Setup, _cone, koszul_D_on_map, koszul_D_on_object,
                            projector_depth)
from jwcat.modules import ModuleHom, Summand, hom_space, projective_sum

SETUP = Setup.create()
SHIFTED = [atom + s for atom in OBJECT_ATOMS for s in ("", "<1>", "<-1>", "[1]", "[-1]")]
OBJECTS = SHIFTED + [f"{f}({x})" for f in "PD" for x in SHIFTED]
CLIPPED_BY_CK = {"P(1)<-1>", "P(1)[1]", "L(1)<-1>", "L(2)[1]", "D(P(1)[1])", "D(L(2)[1])"}
ITEM_3 = pytest.mark.xfail(strict=True, reason="ROADMAP item 3: CK(D(x)) is clipped "
                           "at degree 0 inside its construction, so the cut is not seen")


def law_verdict(x: str, window: tuple[int, int]) -> str | None:
    """The verdict on D(P(x)) ≅ CK(D(x)), or None when a side cannot be
    built on ``window``."""
    try:
        lhs = _eval(SETUP, parse(f"D(P({x}))"), window)
        rhs = _eval(SETUP, parse(f"CK(D({x}))"), window)
    except WindowTooSmall:
        return None
    return iso_in_homotopy_category(lhs, rhs, window).value


def test_the_pool_has_75_objects():
    assert len(set(OBJECTS)) == 75 and CLIPPED_BY_CK <= set(OBJECTS)


@pytest.mark.parametrize("x", [pytest.param(x, marks=ITEM_3) if x in CLIPPED_BY_CK else x
                               for x in OBJECTS])
def test_the_law_is_never_false_on_the_window_from_zero(x):
    assert law_verdict(x, (0, 12)) in ("true", "inconclusive", None)


def test_every_defined_pair_is_true_on_the_wide_window():
    verdicts = {x: law_verdict(x, (-8, 12)) for x in OBJECTS}
    defined = {x: v for x, v in verdicts.items() if v is not None}
    assert set(defined.values()) == {"true"}
    assert len(defined) == 65


# ---------------------------------------------------------------------------
# the shift laws
# ---------------------------------------------------------------------------

SHIFTS = ("<1>", "<-1>", "[1]", "[-1]")
BASES = list(OBJECT_ATOMS) + [f"{f}({a})" for f in "PD" for a in OBJECT_ATOMS]
SHIFT_PAIRS = [(f, y, s) for f in ("P", "D", "CK") for y in BASES for s in SHIFTS]
CUT_BY_CK = {("CK", y, "[-1]") for y in ("L(1)", "L(2)", "D(I(2))")}
CK_CUT = pytest.mark.xfail(strict=True, reason="ROADMAP item 3: one side of CK is clipped "
                           "at degree 0 inside its construction, so the cut is not seen")


def shifted_image(f: str, s: str) -> str:
    """The shift of F(y) that F(y s) is compared with: s itself, except that
    D turns <r> into <-r>[-r]."""
    if f == "D" and s.startswith("<"):
        r = int(s[1:-1])
        return f"<{-r}>[{-r}]"
    return s


def shift_verdict(f: str, y: str, s: str, window: tuple[int, int]) -> str | None:
    """The verdict on F(y s) ≅ F(y) s, or None when the pair is undefined on
    ``window``."""
    try:
        lhs = _eval(SETUP, parse(f"{f}({y}{s})"), window)
        rhs = _eval(SETUP, parse(f"{f}({y}){shifted_image(f, s)}"), window)
        return iso_in_homotopy_category(lhs, rhs, window).value
    except (WindowTooSmall, RegimeError):
        return None


def test_there_are_180_shift_pairs():
    assert len(set(SHIFT_PAIRS)) == 180 and CUT_BY_CK <= set(SHIFT_PAIRS)


@pytest.mark.parametrize("f, y, s", [pytest.param(*p, marks=CK_CUT) if p in CUT_BY_CK else p
                                     for p in SHIFT_PAIRS])
def test_no_shift_law_is_false_on_the_window_from_zero(f, y, s):
    assert shift_verdict(f, y, s, (0, 12)) in ("true", "inconclusive", None)


def test_every_defined_shift_law_is_true_on_the_wide_window():
    verdicts = {p: shift_verdict(*p, (-8, 12)) for p in SHIFT_PAIRS}
    defined = {p: v for p, v in verdicts.items() if v is not None}
    assert set(defined.values()) == {"true"}
    assert len(defined) == 172
    # the undefined pairs: CK of the left-tailed P(P(1)) and P(L(2))
    assert {(f, y) for f, y, _ in set(verdicts) - set(defined)} == \
        {("CK", "P(P(1))"), ("CK", "P(L(2))")}


# ---------------------------------------------------------------------------
# the law on maps
# ---------------------------------------------------------------------------

MAP_WINDOW, MAP_COMPARISON = (-8, 12), (-8, 10)
SUMMAND_SUMS = st.lists(st.builds(Summand, st.sampled_from("12"), st.integers(-1, 2)),
                        min_size=1, max_size=2).map(tuple)


def map_law_verdict(f0: ModuleHom) -> str:
    """The verdict of the ``duality-maps`` pipeline on f0: P, D and CK on
    ``MAP_WINDOW``, both sides moved onto the minimal models of their
    objects on ``MAP_COMPARISON``, two degrees below its top as in the
    suite, and ``maps_agree_under_identification`` there."""
    Pf = P_on_module_map(SETUP, f0, depth=projector_depth(MAP_WINDOW))
    DPf = koszul_D_on_map(SETUP, Pf, out_window=MAP_WINDOW)
    CKDf = CK_on_map(SETUP, koszul_D_on_map(SETUP, f0, out_window=MAP_WINDOW),
                     out_window=MAP_WINDOW)
    red = [reduce_on_window(c, MAP_COMPARISON)
           for c in (DPf.source, DPf.target, CKDf.source, CKDf.target)]
    lhs = red[1].to_reduced.compose(DPf).compose(red[0].from_reduced)
    rhs = red[3].to_reduced.compose(CKDf).compose(red[2].from_reduced)
    return maps_agree_under_identification(lhs, rhs, MAP_COMPARISON).value


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_law_on_maps_is_never_false(data):
    M = projective_sum(SETUP.B, data.draw(SUMMAND_SUMS))
    N = projective_sum(SETUP.B, data.draw(SUMMAND_SUMS))
    f0 = ModuleHom(M, N, 0, {})
    for b in hom_space(M, N, 0):
        f0 = f0 + b.scale(data.draw(st.integers(-2, 2)))
    assert map_law_verdict(f0) in ("true", "inconclusive")


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_law_on_cones_is_never_false(data):
    M = projective_sum(SETUP.B, data.draw(SUMMAND_SUMS))
    N = projective_sum(SETUP.B, data.draw(SUMMAND_SUMS))
    f0 = ModuleHom(M, N, 0, {})
    for b in hom_space(M, N, 0):
        f0 = f0 + b.scale(data.draw(st.integers(-2, 2)))
    cone = _cone(f0)
    try:
        lhs = koszul_D_on_object(SETUP, P_on_object(SETUP, cone, projector_depth(MAP_WINDOW)),
                                 MAP_WINDOW)
        rhs = CK_on_object(SETUP, koszul_D_on_object(SETUP, cone, MAP_WINDOW), MAP_WINDOW)
    except WindowTooSmall:
        return
    assert iso_in_homotopy_category(lhs, rhs, MAP_WINDOW).value in ("true", "inconclusive")

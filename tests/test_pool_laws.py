"""The paper's law D(P(x)) ≅ CK(D(x)) over the objects of the eval pool at
N = 12: every atom with at most one shift, and P or D of one (75 objects).

Each side is built by the expression evaluator on the decision's window. A
``WindowTooSmall`` while building a side is inconclusive, as it is for a
decision. On (0, 12) six pairs answer "false": CK(D(x)) starts below degree
0 there and its construction clips it at 0 (ROADMAP item 3). On (-8, 12)
every pair that can be built is "true"."""

import pytest

from jwcat.complexes import WindowTooSmall, iso_in_homotopy_category
from jwcat.exprs import OBJECT_ATOMS, _eval, parse
from jwcat.functors import Setup

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

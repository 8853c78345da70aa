"""Grothendieck classes: graded Euler characteristics as truncated series,
and the reference idempotent matrix they must reproduce.

A class is one series per vertex in the basis of the two simples. Complexes
bounded below in the grading (the projector side) produce honest elements of
the completion; complexes from the topological side have exponents unbounded
below, so their classes are stored with q inverted and flagged ``reversed``
(comparisons undo the flag, arithmetic refuses to mix regimes).

An Euler class is counted, not summed: one pass over the stored degrees
adds the signed summands into integer multiplicities per (vertex, exponent),
read off the one table of [P(v)<r>] exponents, and builds one series per
vertex through ``TruncatedSeries.exact``. Its window is the one the
summand-by-summand sum had, from min(0, lowest exponent met) to the order.
A tail adds its period block, counted the same way, times the geometric
factor Σ_{k≥1} ratio^k, which is cached per (exponent, sign, order) of the
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .complexes import (LEFT_TAIL, RIGHT_TAIL, ProjComplex, RegimeError,
                        Summand)
from .modules import DUAL_VERTEX, GradedModule
from .series import TruncatedSeries, WindowError, quantum_two

VERTICES = ("1", "2")
STANDARD = "standard"
REVERSED = "reversed"
# [P(v)<r>] = Σ_w Σ_e q^(r+e) [L(w)] over the exponents e listed at v, w
PROJECTIVE_EXPONENTS = {"1": {"1": (0,), "2": (1,)},
                        "2": {"1": (1,), "2": (0, 2)}}


@dataclass
class KClass:
    """Coefficients of the two simple classes, as truncated series."""
    series: dict[str, TruncatedSeries]
    regime: str = STANDARD

    def __add__(self, other: KClass) -> KClass:
        self._check(other)
        return KClass({v: self.series[v] + other.series[v] for v in VERTICES},
                      self.regime)

    def __neg__(self) -> KClass:
        return KClass({v: -s for v, s in self.series.items()}, self.regime)

    def scale_series(self, t: TruncatedSeries) -> KClass:
        return KClass({v: s * t for v, s in self.series.items()}, self.regime)

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.series.values())

    def _check(self, other: KClass):
        if self.regime != other.regime:
            raise RegimeError("cannot combine classes from opposite completions")

    def __eq__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        if self.regime != other.regime:
            return False
        return all(self.series[v] == other.series[v] for v in VERTICES)

    def render(self) -> str:
        parts = [f"[L({v})]·({self.series[v].render()})" for v in VERTICES
                 if not self.series[v].is_zero()]
        body = " + ".join(parts) if parts else "0"
        if self.regime == REVERSED:
            body += "   (in the q→q⁻¹ completion)"
        return body

    @classmethod
    def zero(cls, order: int, regime: str = STANDARD) -> KClass:
        return cls({v: TruncatedSeries.zero(order) for v in VERTICES}, regime)


def class_of_module(M: GradedModule, order: int) -> KClass:
    """[M] = Σ_j dim(M_j at vertex v)·q^j·[L(v)] (exact: a Laurent polynomial)."""
    dims = {v: {} for v in VERTICES}
    for (j, v), d in M.graded_dims_by_vertex().items():
        dims[v][j] = d
    return KClass({v: TruncatedSeries.exact(dims[v], order) for v in VERTICES})


def class_of_summand(s: Summand, order: int, reversed_q: bool = False) -> KClass:
    """Class of P(v)<r>: in reversed mode exponents are negated."""
    return _counted([(1, s)], order, reversed_q)


def _counted(summands, order: int, reversed_q: bool) -> KClass:
    """Σ m·[P(v)<r>] over the pairs (m, P(v)<r>) of ``summands``, counted as
    integers per (vertex, exponent) off ``PROJECTIVE_EXPONENTS``; in reversed
    mode exponents are negated. ``TruncatedSeries.exact`` gives it the
    window a sum of ``class_of_summand`` terms onto the zero class has: a
    count that cancels to zero keeps its key, so cancelled summands reach
    the window too."""
    sgn = -1 if reversed_q else 1
    counts = {v: {} for v in VERTICES}
    for m, s in summands:
        for v, exps in PROJECTIVE_EXPONENTS[s.vertex].items():
            at_v = counts[v]
            for e in exps:
                k = sgn * (e + s.shift)
                at_v[k] = at_v.get(k, 0) + m
    return KClass({v: TruncatedSeries.exact(c, order) for v, c in counts.items()},
                  REVERSED if reversed_q else STANDARD)


def _counted_class(x: ProjComplex, degrees: range, order: int,
                   reversed_q: bool) -> KClass:
    """Alternating sum of the summand classes in ``degrees``."""
    return _counted(((1 if i % 2 == 0 else -1, s) for i in degrees for s in x.term(i)),
                    order, reversed_q)


@lru_cache(maxsize=64)
def _geometric(step_exp: int, sign: int, order: int) -> TruncatedSeries:
    """Σ_{k≥1} ratio^k for ratio = sign·q^step_exp, to ``order``. Shared
    between calls: callers only multiply by it."""
    ratio = TruncatedSeries.exact({step_exp: sign}, order)
    one = TruncatedSeries.one(order)
    return ratio * (one - ratio).invert()


def euler_class(x, order: int) -> KClass:
    """Alternating sum of the term classes of a formal complex of
    projectives; periodic tails are summed exactly as geometric series in the
    appropriate completion. Modules go through ``class_of_module``.

    The stored degrees are counted in one pass (``_counted_class``), and so
    is the tail's period block just inside the boundary; the block is then
    scaled by the cached geometric factor of its ratio (``_geometric``)."""
    if not isinstance(x, ProjComplex):
        raise TypeError(f"cannot decategorify {x!r}")
    if order < 0:   # the class sums onto the zero class on [0, order]
        raise WindowError(f"empty validity window [0, {order}]")
    if x.is_zero():
        return KClass.zero(order)
    reversed_q = x.tail is not None and x.tail.side == RIGHT_TAIL
    lo, hi = x.window()
    out = _counted_class(x, range(lo, hi + 1), order, reversed_q)
    t = x.tail
    if t is None:
        return out
    # one period block just inside the boundary, then the geometric series
    if t.side == LEFT_TAIL:
        block_range = range(lo, lo + t.period)
        step_exp = t.shift          # internal shift per outward step
    else:
        block_range = range(hi - t.period + 1, hi + 1)
        step_exp = -t.shift         # exponents negated in the reversed regime
    block = _counted_class(x, block_range, order, reversed_q)
    sgn = -1 if t.period % 2 == 1 else 1
    return out + block.scale_series(_geometric(step_exp, sgn, order))


# ---------------------------------------------------------------------------
# basis conversion and the reference idempotent
# ---------------------------------------------------------------------------

def simple_to_projective_basis(k: KClass) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Coordinates in the basis of the two projective classes.

    The change of basis is unimodular: [P(1)] = [L(1)] + q[L(2)] and
    [P(2)] = q[L(1)] + (1+q²)[L(2)] invert to integral series.
    """
    if k.regime != STANDARD:
        raise RegimeError("projective-basis coordinates live in the standard completion")
    s1, s2 = k.series["1"], k.series["2"]
    order = min(s1.order, s2.order)
    q = TruncatedSeries.exact({1: 1}, order)
    one_q2 = TruncatedSeries.exact({0: 1, 2: 1}, order)
    # inverse of [[1, q], [q, 1+q^2]] is [[1+q^2, -q], [-q, 1]]
    p1 = one_q2 * s1 - q * s2
    p2 = -(q * s1) + s2
    return p1, p2


def projective_class(vertex: str, order: int) -> KClass:
    return class_of_summand(Summand(vertex, 0), order)


def jones_wenzl_reference(order: int) -> dict[str, dict[str, TruncatedSeries]]:
    """The action of the degree-two idempotent on the projective basis:
    the [P(2)]-column is (0, 1); the [P(1)]-column is (0, q/(1+q²)) expanded
    in the completion."""
    zero = TruncatedSeries.zero(order)
    one = TruncatedSeries.one(order)
    col1 = quantum_two(order).invert().truncate(order)
    return {
        "P(1)": {"P(1)": zero, "P(2)": col1},
        "P(2)": {"P(1)": zero, "P(2)": one},
    }


def jw_matrix_square(m: dict[str, dict[str, TruncatedSeries]]
                     ) -> dict[str, dict[str, TruncatedSeries]]:
    keys = ("P(1)", "P(2)")
    out: dict[str, dict[str, TruncatedSeries]] = {k: {} for k in keys}
    for col in keys:
        for row in keys:
            acc = None
            for mid in keys:
                t = m[mid][row] * m[col][mid]
                acc = t if acc is None else acc + t
            out[col][row] = acc
    return out


def apply_jw_reference(m: dict[str, dict[str, TruncatedSeries]],
                       k: KClass) -> KClass:
    """p₂ acting on a class, via projective-basis coordinates."""
    p1, p2 = simple_to_projective_basis(k)
    order = min(p1.order, p2.order)
    new_p1 = m["P(1)"]["P(1)"] * p1 + m["P(2)"]["P(1)"] * p2
    new_p2 = m["P(1)"]["P(2)"] * p1 + m["P(2)"]["P(2)"] * p2
    out = (projective_class("1", order).scale_series(new_p1)
           + projective_class("2", order).scale_series(new_p2))
    return out


def duality_on_class(k: KClass) -> KClass:
    """Decategorified shadow of the duality functor on bounded complexes:
    q^r[L(v)] -> (-q)^{-r}[P(DUAL_VERTEX[v])-class], that is (-1)^r times
    the class of P(DUAL_VERTEX[v])<-r>, counted as ``euler_class`` counts
    summands, so the result keeps the order of ``k``.

    ``k`` must be an exact class, with no term truncated above its order:
    q ↦ -q⁻¹ sends q^r to q^{-r}, so a truncated term would go missing deep
    inside the twisted window, where the result claims zero."""
    if k.regime != STANDARD:
        raise RegimeError("the decategorified duality law is stated on bounded classes")
    order = min(s.order for s in k.series.values())
    return _counted(((-c if e % 2 else c, Summand(DUAL_VERTEX[v], -e))
                     for v in VERTICES for e, c in k.series[v].coeffs.items()),
                    order, False)

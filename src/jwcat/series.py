"""Graded bookkeeping rings: Laurent polynomials in q and order-truncated
series with finite principal part (the completion where 1/(q + q^-1) lives).

A TruncatedSeries knows the window on which its coefficients are exact:
everything below ``min_exp`` is exactly zero, everything up to and including
``order`` is stored, and nothing is claimed beyond. Arithmetic propagates the
window honestly and comparisons refuse to answer outside it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import _frac


class WindowError(ValueError):
    """Validity windows of two series do not overlap."""


class NoInverseError(ValueError):
    """Series is identically zero on its window; no inverse exists."""


def _clean(coeffs: dict) -> dict:
    return {e: _frac(c) for e, c in coeffs.items() if c != 0}


class LaurentPoly:
    """Finitely supported map exponent -> rational, no stored zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = _clean(coeffs or {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentPoly(out)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly(out)

    def substitute_minus_qinv(self) -> LaurentPoly:
        """q -> -q^{-1}; the decategorified shadow of the duality functor."""
        return LaurentPoly({-e: -c if e % 2 else c for e, c in self.coeffs.items()})

    def reverse(self) -> LaurentPoly:
        """q -> q^{-1}."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def valuation(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    # --- textual form, exact round-trip ---

    def render(self) -> str:
        """e.g. 'q^-1 + 2 + q^3'; '-' joins negative terms; '0' for zero."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qs = "q" if e == 1 else f"q^{e}"
                body = qs if mag == 1 else f"{mag} {qs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    _TERM = re.compile(
        r"^\s*(?P<coef>-?\d+(?:/\d+)?)?\s*(?P<q>q(?:\^(?P<exp>-?\d+))?)?\s*$")

    @classmethod
    def parse(cls, text: str) -> LaurentPoly:
        text = text.strip()
        if text == "0":
            return cls()
        # split into signed terms; a '-' right after '^' is an exponent sign
        toks = re.split(r"\s*(?<!\^)([+-])\s*", text)
        if toks and toks[0] == "":
            toks = toks[1:]
        terms: list[tuple[int, str]] = []
        sign = 1
        i = 0
        if toks and toks[0] in "+-":
            sign = -1 if toks[0] == "-" else 1
            i = 1
        while i < len(toks):
            terms.append((sign, toks[i]))
            if i + 1 < len(toks):
                sign = -1 if toks[i + 1] == "-" else 1
            i += 2
        out: dict = {}
        for sgn, term in terms:
            m = cls._TERM.match(term)
            if not m or (m.group("coef") is None and m.group("q") is None):
                raise ValueError(f"cannot parse Laurent term {term!r}")
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            if m.group("q"):
                exp = int(m.group("exp")) if m.group("exp") is not None else 1
            else:
                exp = 0
            out[exp] = out.get(exp, Fraction(0)) + sgn * coef
        return cls(out)

    def __repr__(self):
        return f"LaurentPoly({self.render()!r})"


class TruncatedSeries:
    """Series in the completion: exact below, truncated above ``order``."""

    __slots__ = ("min_exp", "order", "coeffs")

    def __init__(self, coeffs: dict, min_exp: int, order: int):
        if order < min_exp:
            raise WindowError(f"empty validity window [{min_exp}, {order}]")
        self.min_exp = min_exp
        self.order = order
        # beyond ``order`` is truncation; below ``min_exp`` is claimed zero
        self.coeffs = {e: _frac(c) for e, c in coeffs.items() if c != 0 and e <= order}
        if self.coeffs and min(self.coeffs) < min_exp:
            raise WindowError(f"coefficient at q^{min(self.coeffs)} below the "
                              f"validity window [{min_exp}, {order}]")

    @classmethod
    def from_laurent(cls, p: LaurentPoly, order: int) -> TruncatedSeries:
        lo = p.valuation()
        return cls(dict(p.coeffs), min(lo if lo is not None else 0, 0), order)

    @classmethod
    def zero(cls, order: int, min_exp: int = 0) -> TruncatedSeries:
        return cls({}, min_exp, order)

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls({0: 1}, 0, order)

    def coeff(self, e: int) -> Fraction:
        if e > self.order:
            raise WindowError(f"exponent {e} beyond truncation order {self.order}")
        return self.coeffs.get(e, Fraction(0))

    def window(self) -> tuple[int, int]:
        return (self.min_exp, self.order)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_overlap(self, other: TruncatedSeries) -> None:
        if max(self.min_exp, other.min_exp) > min(self.order, other.order):
            raise WindowError(
                f"disjoint validity windows {self.window()} and {other.window()}")

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_overlap(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return TruncatedSeries(out, min(self.min_exp, other.min_exp),
                               min(self.order, other.order))

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries({e: -c for e, c in self.coeffs.items()},
                               self.min_exp, self.order)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self + (-other)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_overlap(other)
        # product coefficient at e is complete iff no unknown coefficient of
        # either factor can reach it
        order = min(self.order + other.min_exp, other.order + self.min_exp)
        min_exp = self.min_exp + other.min_exp
        if order < min_exp:
            raise WindowError("product validity window is empty")
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= order:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return TruncatedSeries(out, min_exp, order)

    def invert(self) -> TruncatedSeries:
        """y with self * y = 1 up to the propagated truncation order."""
        if self.is_zero():
            raise NoInverseError("series is identically zero on its window")
        v = min(self.coeffs)  # lowest nonzero exponent; a unit in Q
        lead = self.coeffs[v]
        n_terms = self.order - v  # soluble coefficient count beyond leading
        out = {-v: 1 / lead}
        # y_{-v+k} determined recursively from x * y = 1: the sum over
        # x_{v+i} y_{-v+k-i} runs over the nonzero x_{v+i}, 1 <= i <= k
        higher = sorted((e - v, c) for e, c in self.coeffs.items()
                        if v < e <= v + n_terms)
        for k in range(1, n_terms + 1):
            s = Fraction(0)
            for i, xc in higher:
                if i > k:
                    break
                s += xc * out[-v + k - i]
            out[-v + k] = -s / lead
        return TruncatedSeries(out, -v, -v + n_terms)

    def truncate(self, order: int) -> TruncatedSeries:
        return TruncatedSeries({e: c for e, c in self.coeffs.items() if e <= order},
                               self.min_exp, min(self.order, order))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_overlap(other)
        hi = min(self.order, other.order)
        # below both windows' min everything is exactly zero, so also compare
        # the region where one is exact-zero and the other stores data
        lo = min(self.min_exp, other.min_exp)
        for e in range(lo, hi + 1):
            if self.coeffs.get(e, Fraction(0)) != other.coeffs.get(e, Fraction(0)):
                return False
        return True

    def render(self) -> str:
        body = LaurentPoly(dict(self.coeffs)).render()
        return f"{body} + O(q^{self.order + 1})"

    def __repr__(self):
        return f"TruncatedSeries({self.render()!r}, window={self.window()})"


def quantum_two(order: int) -> TruncatedSeries:
    """[2] = q + q^-1 as a truncated series."""
    return TruncatedSeries({1: 1, -1: 1}, -1, order)

"""Order-truncated series in q with finite principal part (the completion
where 1/(q + q^-1) lives), the one coefficient type of the class layer.

A TruncatedSeries knows the window on which its coefficients are exact:
everything below ``min_exp`` is exactly zero, everything up to and including
``order`` is stored, and nothing is claimed beyond. Arithmetic propagates the
window honestly and comparisons refuse to answer outside it. An exact class,
a Laurent polynomial, enters through ``TruncatedSeries.exact``, the one place
its window, from min(0, lowest exponent) to the order, is chosen.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import _div, _frac


class WindowError(ValueError):
    """Validity windows of two series do not overlap."""


class NoInverseError(ValueError):
    """Series is identically zero on its window; no inverse exists."""


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
    def exact(cls, coeffs: dict, order: int) -> TruncatedSeries:
        """The Laurent polynomial ``coeffs`` to ``order``, exact from
        min(0, lowest exponent key) on. A key whose value is zero counts, so
        a count that cancels still reaches the window."""
        return cls(coeffs, min([0, *coeffs]), order)

    @classmethod
    def zero(cls, order: int, min_exp: int = 0) -> TruncatedSeries:
        return cls({}, min_exp, order)

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls({0: 1}, 0, order)

    def coeff(self, e: int) -> Fraction:
        if e > self.order:
            raise WindowError(f"exponent {e} beyond truncation order {self.order}")
        return self.coeffs.get(e, 0)

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
            out[e] = out.get(e, 0) + c
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
                    out[e] = out.get(e, 0) + c1 * c2
        return TruncatedSeries(out, min_exp, order)

    def invert(self) -> TruncatedSeries:
        """y with self * y = 1 up to the propagated truncation order."""
        if self.is_zero():
            raise NoInverseError("series is identically zero on its window")
        v = min(self.coeffs)  # lowest nonzero exponent; a unit in Q
        lead = self.coeffs[v]
        n_terms = self.order - v  # soluble coefficient count beyond leading
        out = {-v: _div(1, lead)}
        # y_{-v+k} determined recursively from x * y = 1: the sum over
        # x_{v+i} y_{-v+k-i} runs over the nonzero x_{v+i}, 1 <= i <= k
        higher = sorted((e - v, c) for e, c in self.coeffs.items()
                        if v < e <= v + n_terms)
        for k in range(1, n_terms + 1):
            s = 0
            for i, xc in higher:
                if i > k:
                    break
                s += xc * out[-v + k - i]
            out[-v + k] = _div(-s, lead)
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
            if self.coeffs.get(e, 0) != other.coeffs.get(e, 0):
                return False
        return True

    def render(self) -> str:
        """e.g. 'q^-1 + 2 + q^3 + O(q^6)'; '-' joins negative terms; '0' for
        a zero body."""
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
        body = " ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.order + 1})"

    def __repr__(self):
        return f"TruncatedSeries({self.render()!r}, window={self.window()})"


def quantum_two(order: int) -> TruncatedSeries:
    """[2] = q + q^-1 as a truncated series."""
    return TruncatedSeries({1: 1, -1: 1}, -1, order)

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jwcat.series import NoInverseError, TruncatedSeries, WindowError, quantum_two
from test_arithmetic import clean_coefficient


class TestExact:
    def test_an_empty_dict_gives_the_window_from_zero(self):
        s = TruncatedSeries.exact({}, 5)
        assert (s.window(), s.coeffs) == ((0, 5), {})

    def test_the_window_starts_at_zero_or_below_it(self):
        assert TruncatedSeries.exact({2: 1, 3: -1}, 5).window() == (0, 5)
        assert TruncatedSeries.exact({-3: 1, 1: 2}, 5).window() == (-3, 5)

    def test_a_zero_count_key_reaches_the_window(self):
        s = TruncatedSeries.exact({-4: 0, 1: 1}, 5)
        assert s.window() == (-4, 5)
        assert s.coeffs == {1: Fraction(1)}


class TestRender:
    def test_a_zero_body(self):
        assert TruncatedSeries.zero(4).render() == "0 + O(q^5)"

    def test_terms_in_exponent_order(self):
        s = TruncatedSeries({3: 1, -1: 1, 0: 2}, -1, 5)
        assert s.render() == "q^-1 + 2 + q^3 + O(q^6)"

    def test_rational_and_negative_coefficients(self):
        s = TruncatedSeries({-4: -1, 0: Fraction(-1, 2), 2: Fraction(3, 2)}, -4, 3)
        assert s.render() == "-q^-4 - 1/2 + 3/2 q^2 + O(q^4)"

    def test_q_against_a_power_of_q(self):
        assert TruncatedSeries({1: 1, 2: -1}, 0, 3).render() == "q - q^2 + O(q^4)"
        assert TruncatedSeries({0: -1, 1: -2}, 0, 1).render() == "-1 - 2 q + O(q^2)"


class TestTruncatedSeries:
    def test_geometric_telescoping(self):
        # (q - q^3 + q^5 - ...) * (q + q^-1) = 1, the derived oracle:
        # partial sums of the alternating geometric series
        order = 21
        geom = TruncatedSeries({2 * k + 1: (-1) ** k for k in range(11)}, 1, order + 1)
        prod = geom * quantum_two(order)
        assert prod == TruncatedSeries.one(prod.order)

    def test_invert_quantum_two(self):
        inv = quantum_two(15).invert()
        assert inv.min_exp == 1
        assert inv.order == 17  # order 15 gains 2 from the q^-1 valuation
        want = TruncatedSeries({2 * k + 1: (-1) ** k for k in range(9)}, 1, 17)
        assert inv == want
        assert inv * quantum_two(15) == TruncatedSeries.one(1)

    def test_invert_trivial(self):
        one = TruncatedSeries.one(9)
        assert one.invert() == one
        q2 = TruncatedSeries({2: 1}, 2, 9)
        assert q2.invert() == TruncatedSeries({-2: 1}, -2, 5)

    def test_invert_zero_errors(self):
        with pytest.raises(NoInverseError):
            TruncatedSeries.zero(5).invert()

    def test_invert_mul_is_one_random(self):
        rng = random.Random(23)
        for _ in range(100):
            v = rng.randint(-3, 3)
            coeffs = {v: rng.choice([1, -1, 2, Fraction(1, 2)])}
            for k in range(1, 6):
                coeffs[v + k] = Fraction(rng.randint(-4, 4))
            x = TruncatedSeries(coeffs, v, v + 8)
            y = x.invert()
            prod = x * y
            assert prod == TruncatedSeries.one(prod.order)

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.integers(-4, 12),
                           st.fractions(min_value=-3, max_value=3, max_denominator=4),
                           min_size=1, max_size=6),
           st.integers(0, 3), st.integers(0, 12))
    def test_invert_matches_the_dense_recurrence(self, coeffs, below, above):
        coeffs = {e: c for e, c in coeffs.items() if c}
        assume(coeffs)
        lo, hi = min(coeffs) - below, max(coeffs) + above - 8
        x = TruncatedSeries(coeffs, lo, max(hi, min(coeffs)))
        y = x.invert()
        ref = _dense_invert(x)
        assert (y.coeffs, y.window()) == (ref.coeffs, ref.window())
        if max(x.min_exp, y.min_exp) > min(x.order, y.order):
            return      # the product is undefined on disjoint windows
        prod = x * y
        assert all(prod.coeff(e) == (1 if e == 0 else 0)
                   for e in range(prod.min_exp, prod.order + 1))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((2, 3, -3)), st.lists(st.integers(-4, 4), max_size=6),
           st.integers(-3, 3))
    def test_invert_by_a_non_unit_leading_coefficient_is_exact(self, lead, higher, v):
        coeffs = {v: lead, **{v + k: c for k, c in enumerate(higher, 1)}}
        x = TruncatedSeries(coeffs, v, v + 8)
        y = x.invert()
        assert y.coeffs[-v] == Fraction(1, lead)
        assert all(clean_coefficient(c) for c in y.coeffs.values())
        ref = _dense_invert(x)
        assert (y.coeffs, y.window()) == (ref.coeffs, ref.window())
        prod = x * y
        assert prod == TruncatedSeries.one(prod.order)

    def test_disjoint_windows_error(self):
        x = TruncatedSeries({0: 1}, 0, 3)
        y = TruncatedSeries({5: 1}, 5, 9)
        with pytest.raises(WindowError):
            x + y
        with pytest.raises(WindowError):
            x * y
        with pytest.raises(WindowError):
            x == y

    def test_a_coefficient_below_the_window_is_refused(self):
        with pytest.raises(WindowError, match="below the validity window"):
            TruncatedSeries({-5: 1}, 0, 10)
        # zeros anywhere and coefficients beyond the order are not refused
        assert TruncatedSeries({-5: 0, 11: 1}, 0, 10) == TruncatedSeries.zero(10)

    def test_order_propagation(self):
        x = TruncatedSeries({0: 1, 1: 1}, 0, 5)
        y = TruncatedSeries({2: 1}, 2, 4)
        assert (x + y).order == 4
        # product complete up to min(5+2, 4+0)
        assert (x * y).order == 4
        assert (x * y).min_exp == 2


def _dense_invert(x):
    """The inverse by the recurrence over every (k, j) pair, zeros included.
    It divides through ``Fraction``, so an integer leading coefficient stays
    exact."""
    v = min(x.coeffs)
    lead = x.coeffs[v]
    n_terms = x.order - v
    out = {-v: Fraction(1) / lead}
    for k in range(1, n_terms + 1):
        s = Fraction(0)
        for j in range(k):
            s += x.coeffs.get(v + (k - j), Fraction(0)) * out.get(-v + j, Fraction(0))
        out[-v + k] = -s / lead
    return TruncatedSeries(out, -v, -v + n_terms)

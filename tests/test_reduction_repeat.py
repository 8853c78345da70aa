"""The sweep of a right tail stops at its first repeat and copies the rest.

``gaussian_reduce`` cancels at the lowest degree first, so once d(j), as the
sweep reaches it, is the shifted copy of d(j - p) as reached, past the
input's certified repeat, every later step is the copy of the one a period
in: the sweep runs on through j + 2p - 1, logs no cancellation past it, and
copies the reduced complex, F, G and h from there (the reduction repeat of
"Windows and margins" in the ``complexes`` module docstring). The reference
is the same reduction with a sweep that never stops, whose log is compared
through j + 2p - 1 and everything else at every degree, over every right-tailed
``reduce_on_window`` call of the suite and the eval pool and over random
right-tailed complexes, some of whose heads copy the tail before breaking
it and some of whose tails reduce to zero. Every tail the suite and the pool
build carries a repeat from which it holds on its stored degrees."""

import math
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jwcat import complexes, exprs, functors, resolutions, verify
from jwcat.complexes import (RIGHT_TAIL, AlgMatrix, ProjComplex, Summand, TailSpec,
                             _allowed_paths, _tail_break,
                             reduce_on_window, shift_summands)
from jwcat.functors import Setup
from jwcat.verify import VerificationConfig, run_suite
from test_reduction_pin import ends_periodic, run_pool
from test_tails import outcome

B = Setup.create().B
READERS = (complexes, exprs, functors, resolutions, verify)


def recorded(names, run, keep=lambda args, value: True):
    """(args, value) of every call of the ``complexes`` functions ``names``
    that ``run()`` makes, patched wherever a module binds them, for which
    ``keep`` holds."""
    seen = []

    def wrap(fn):
        def call(*args, **kwargs):
            value = fn(*args, **kwargs)
            if keep(args, value):
                seen.append((args, value))
            return value
        return call

    with ExitStack() as stack:
        for name in names:
            wrapped = wrap(getattr(complexes, name))
            for module in READERS:
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(module, name, wrapped))
        run()
    return seen


def right_tailed_reductions(run):
    """The (complex, window) of every ``reduce_on_window`` call of ``run()``
    on a right-tailed complex."""
    return [args for args, _ in recorded(
        ["reduce_on_window"], run,
        lambda args, _: args[0].tail is not None and args[0].tail.side == RIGHT_TAIL)]


def full_sweep(c, window):
    """``reduce_on_window(c, window)`` with a sweep that never stops: each
    degree it reaches is only recorded as reached."""
    with mock.patch.object(complexes._Eliminator, "_arrive",
                           lambda self, j: setattr(self, "reached", j)):
        return reduce_on_window(c, window)


def reduction_data(red, through):
    """The kept complex with its tail, the log through degree ``through``
    and the witnesses."""
    return (red.reduced.terms, red.reduced.diffs, red.reduced.tail,
            [e for e in red.log if e[0] <= through],
            red.to_reduced.maps, red.from_reduced.maps, red.homotopy.maps)


def assert_same_as_full_sweep(c, window):
    """The stopped sweep keeps the full sweep's log through its last swept
    degree, and the same complex, tail, F, G and h at every degree."""
    got, want = outcome(reduce_on_window, c, window), outcome(full_sweep, c, window)
    if got[0] == want[0] == "value":
        assert want[1].stop is None
        stop = got[1].stop
        through = math.inf if stop is None else stop.two_period_end()
        got, want = reduction_data(got[1], through), reduction_data(want[1], through)
    assert got == want
    return got


class TestEveryRightTailedReductionOfTheSuiteAndThePool:
    def check(self, calls):
        assert calls
        stops = []
        for c, window in calls:
            red = reduce_on_window(c, window)
            stops.append(None if red.stop is None else red.stop.start - c.window()[0])
            assert_same_as_full_sweep(c, window)
        # every sweep stops a few degrees past the stored bottom
        assert None not in stops and max(stops) <= 12, stops

    def test_the_suite_at_16_and_48(self):
        for n in (16, 48):
            calls = right_tailed_reductions(lambda: run_suite(VerificationConfig(window=n)))
            assert len(calls) == 30
            self.check(calls)

    def test_the_eval_pool_at_12_and_24(self):
        for n in (12, 24):
            self.check(right_tailed_reductions(lambda: run_pool(n)))

    def test_a_tail_that_reduces_to_zero_keeps_no_tail(self):
        """P(1) -id-> P(1) -0-> ⋯ past a head of P(2)'s, its tail certified
        from degree 8: the sweep stops in the contractible tail, whose
        stretch holds no term, and the gap rule finds the reduction
        bounded."""
        x = ends_periodic(B)
        red = reduce_on_window(x, (0, 12))
        assert red.stop == TailSpec(RIGHT_TAIL, 10, 2, 0)
        assert red.reduced.tail is None and red.reduced.window() == (0, 5)
        assert_same_as_full_sweep(x, (0, 12))


def cancelling_column(K, broken):
    """P(1)<-2h> ⊕ P(1)<-2h-2> in each degree h of 0..K, the second summand
    sent by e(1) onto the first of degree h + 1, but by 0 out of degree
    ``broken``. Its tail is written as certified from degree 1, which the
    break makes false there."""
    e1, z = B.idempotent("1"), B.zero()
    terms = {h: (Summand("1", -2 * h), Summand("1", -2 * h - 2)) for h in range(K + 1)}
    diffs = {h: AlgMatrix(B, terms[h + 1], terms[h], [[z, z if h == broken else e1], [z, z]])
             for h in range(K)}
    return ProjComplex(B, terms, diffs, TailSpec(RIGHT_TAIL, K - 2, 1, -2, repeat=1),
                       f"column-broken-at-{broken}")


def test_a_repeat_broken_in_the_second_swept_period_is_caught():
    """The sweep's state repeats at degree 2, so it stops there and sweeps
    through 3 = 2 + 2·1 - 1. The break at 3 keeps a summand of degree 4
    that the repeat does not have, a row of d(2), and the stretch's check
    of its second period sees it; a sweep of one period would not."""
    assert outcome(reduce_on_window, cancelling_column(16, 3), (0, 12)) == \
        ("ConstructionError", "reduction of column-broken-at-3 breaks its repeat at 2")
    red = reduce_on_window(cancelling_column(16, None), (0, 12))
    assert red.stop == TailSpec(RIGHT_TAIL, 2, 1, -2)
    assert red.reduced.terms == {0: (Summand("1", 0),)}


# ---------------------------------------------------------------------------
# random right tails: periodic cones hidden by periodic changes of basis
# ---------------------------------------------------------------------------

def elementary_change(diffs, terms, i, a, b, z):
    """Replace X^i by its image under I + z·e_ab: d(i - 1) on the left,
    d(i) by the inverse I - z·e_ab on the right."""
    e, e_inv = AlgMatrix.identity(B, terms[i]), AlgMatrix.identity(B, terms[i])
    e.entries[a][b], e_inv.entries[a][b] = z, -z
    if i - 1 in diffs:
        diffs[i - 1] = e * diffs[i - 1]
    if i in diffs:
        diffs[i] = diffs[i] * e_inv


def innermost_repeat(c, p, s):
    """The innermost degree r >= p from which every stored degree i follows
    term(i) = term(i - p)<s> and, below the top, d(i) = d(i - p)<s>."""
    lo, hi = c.window()

    def follows(i):
        return (c.term(i) == shift_summands(c.term(i - p), s)
                and (i == hi or c.diff(i) == c.diff(i - p).shifted(s)))

    r = hi + 1
    while r - 1 >= lo + p and follows(r - 1):
        r -= 1
    return r


@st.composite
def right_tails(draw):
    """A complex on degrees 0..L-1 of period p in {1, 2} and shift s: each
    residue class carries base summands with zero differentials (in the
    head only, or throughout) and may start a cone P(v)<r> --λ·e(v)-->
    P(v)<r> into the next degree; periodic changes of basis mix them, so
    that cancellations meet nonzero κ and β, and one change of basis at a
    head degree may break the pattern. Its tail is stored from two periods
    inside the top, with the innermost repeat the stored degrees show."""
    p = draw(st.integers(1, 2))
    s = draw(st.sampled_from([-4, -2, 0]))
    L = draw(st.integers(6 * p + 2, 8 * p + 6))
    summand = st.builds(Summand, st.sampled_from("12"), st.integers(-2, 2))
    base = [draw(st.lists(summand, max_size=2)) for _ in range(p)]
    base_until = draw(st.sampled_from([L, draw(st.integers(0, 4))]))
    cones = [draw(st.one_of(st.none(), st.tuples(summand, st.sampled_from([1, -1, 2]))))
             for _ in range(p)]
    assume(any(cones) or (base_until == L and any(base)))
    terms, cone_at = {}, {}
    for i in range(L):
        k, step = i % p, s * (i // p)
        t = [b.shifted(step) for b in base[k]] if i < base_until else []
        if cones[k] is not None and i + 1 < L:
            cone_at[i] = (len(t), cones[k][0].shifted(step), cones[k][1])
            t.append(cone_at[i][1])
        if i - 1 in cone_at:
            t.append(cone_at[i - 1][1])
        terms[i] = tuple(t)
    diffs = {i: AlgMatrix.zero(B, terms[i + 1], terms[i]) for i in range(L - 1)}
    for i, (col, summ, lam) in cone_at.items():
        diffs[i].entries[len(terms[i + 1]) - 1][col] = B.idempotent(summ.vertex).scale(lam)
    # periodic changes of basis, drawn on the first period, then one at a head degree
    for k in range(p):
        t = terms[k + p]   # base and cones both present one period in
        moves = [(a, b) for a in range(len(t)) for b in range(len(t))
                 if a != b and _allowed_paths(B, t[a], t[b])]
        for a, b in draw(st.lists(st.sampled_from(moves), max_size=2)) if moves else []:
            path = draw(st.sampled_from(_allowed_paths(B, t[a], t[b])))
            z = B.element({path: draw(st.sampled_from([1, -1, 2]))})
            for i in range(k, L, p):
                if len(terms[i]) == len(t) and _allowed_paths(B, terms[i][a], terms[i][b]):
                    elementary_change(diffs, terms, i, a, b, z)
    if draw(st.booleans()):
        i = draw(st.integers(1, L - 3 * p - 1))
        t = terms[i]
        moves = [(a, b) for a in range(len(t)) for b in range(len(t))
                 if a != b and _allowed_paths(B, t[a], t[b])]
        if moves:
            a, b = draw(st.sampled_from(moves))
            path = draw(st.sampled_from(_allowed_paths(B, t[a], t[b])))
            elementary_change(diffs, terms, i, a, b, B.element({path: 1}))
    c = ProjComplex(B, terms, diffs, None, "random-tail")
    assume(not c.is_zero())
    hi = c.window()[1]
    r = innermost_repeat(c, p, s)
    start = hi - 2 * p + 1
    assume(r <= start)
    return ProjComplex(B, c.terms, c.diffs, TailSpec(RIGHT_TAIL, start, p, s, repeat=r),
                       "random-tail")


class TestRandomRightTails:
    @settings(max_examples=150, deadline=None)
    @given(c=right_tails(), data=st.data())
    def test_the_stopped_sweep_keeps_what_the_full_sweep_keeps(self, c, data):
        lo, hi = c.window()
        a = data.draw(st.integers(lo, lo + 2))
        b = data.draw(st.integers(a + 2, hi + 6))
        assert_same_as_full_sweep(c, (a, b))


# ---------------------------------------------------------------------------
# every repeat holds
# ---------------------------------------------------------------------------

TAILED = ("attach_tail", "reduce_on_window", "gaussian_reduce")


def built_tails(run):
    """Every tailed complex that ``attach_tail`` returns or that a reduction
    takes or returns while ``run()`` runs."""
    out = []
    for args, value in recorded(TAILED, run):
        for c in (args[0], getattr(value, "reduced", value)):
            if isinstance(c, ProjComplex) and c.tail is not None:
                out.append(c)
    return out


def test_every_repeat_holds_on_the_stored_degrees():
    """Each tail holds from its repeat, no further out than its start, on
    every stored degree: the walks that start from a repeat skip nothing."""
    tails = built_tails(lambda: run_suite(VerificationConfig(window=16)))
    tails += built_tails(lambda: run_pool(12))
    assert len(tails) > 500
    inner = 0
    for c in tails:
        t = c.tail
        assert t.outward * (t.start - t.repeat) >= 0
        assert _tail_break(c, replace(t, start=t.repeat)) is None, c.name
        inner += t.repeat != t.start
    assert inner > 100

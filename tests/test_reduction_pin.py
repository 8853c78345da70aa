"""Gaussian reduction is pinned by its witnesses. One sha256 covers every
outermost ``gaussian_reduce`` or ``reduce_on_window`` call that the suite at
N = 16 and the eval pool at N = 12 (without the nested-CK expressions) make
on a nonzero complex, and two directed reductions at the gap rule's bound: the
complex reduced, the reduced complex with its tail, and the maps of F, G and
h. A reduction inside another (``reduce_on_window`` reducing its materialized
window) is covered by the outer one. A change of pivot, sign, homotopy term,
deleted summand or window rule moves the hash."""

import hashlib
import json
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from jwcat import complexes, exprs, functors, verify
from jwcat.complexes import (RIGHT_TAIL, AlgMatrix, ProjComplex, RegimeError,
                             Summand, TailSpec, WindowTooSmall, reduce_on_window)
from jwcat.exprs import ParseError, evaluate, parse
from jwcat.functors import Setup
from jwcat.quiver import build_B
from jwcat.verify import VerificationConfig, run_suite

EVAL_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" \
    / "eval-N24.json"
REDUCERS = ("gaussian_reduce", "reduce_on_window")
# the modules that bind a reducer, each patched where it reads it
READERS = (complexes, exprs, functors, verify)
PINNED = "6cfd351659ed184da9c15da351bf980458335d84ad4d3a8b1c632dd23b4563ee"


def recorded_reductions(run):
    """The ``Reduction`` of every outermost reducer call ``run()`` makes on a
    nonzero complex, in call order."""
    seen, depth = [], [0]

    def wrap(fn):
        def call(*args, **kwargs):
            depth[0] += 1
            try:
                red = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0 and not red.original.is_zero():
                seen.append(red)
            return red
        return call

    with ExitStack() as stack:
        for name in REDUCERS:
            wrapped = wrap(getattr(complexes, name))
            for module in READERS:
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(module, name, wrapped))
        run()
    return seen


def maps_text(maps):
    return [[i, [s.label() for s in m.rows], [s.label() for s in m.cols],
             [[e.word() for e in row] for row in m.entries]]
            for i, m in sorted(maps.items())]


def reduction_text(red):
    return json.dumps([red.original.to_json(), red.reduced.to_json(),
                       maps_text(red.to_reduced.maps), maps_text(red.from_reduced.maps),
                       maps_text(red.homotopy.maps)], sort_keys=True, ensure_ascii=False)


def pool_expressions():
    ref = json.loads(EVAL_REFERENCE.read_text())
    return sorted([e for e, entry in ref["expressions"].items()
                   if not entry["base"].startswith("CK(CK(")] + list(ref["rejected"]))


def run_pool(window=12):
    setup = Setup.create()
    for expr in pool_expressions():
        try:
            evaluate(setup, parse(expr), (0, window), 2 * window + 1)
        except (WindowTooSmall, ParseError, RegimeError):
            pass


def ends_periodic(B):
    """A right-tailed complex whose stored tail, P(1) -id-> P(1) -0-> ⋯, is
    contractible and whose degrees 0..5, P(2)<-2k> joined by ab, look
    periodic: its reduction ends inside any window past degree 5."""
    ab, e1 = B.path_element(("a", "b")), B.idempotent("1")
    terms = {k: (Summand("2", -2 * k),) for k in range(6)}
    terms.update({k: (Summand("1", 0),) for k in range(6, 12)})
    diffs = {k: AlgMatrix(B, terms[k + 1], terms[k], [[ab]]) for k in range(5)}
    diffs.update({k: AlgMatrix(B, terms[k + 1], terms[k], [[e1]]) for k in range(6, 11, 2)})
    return ProjComplex(B, terms, diffs, TailSpec(RIGHT_TAIL, 8, 2, 0), "ends-periodic")


def gap_rule_reductions():
    """The reductions of ``ends_periodic`` kept one and two degrees past its
    content, gap = period and gap = period + 1 of the period-1 pattern its
    last degrees show. Both are bounded: the degree one period past the
    content lies inside the kept window and is empty. No reduction of the
    suite or the pool reaches either."""
    x = ends_periodic(build_B())
    return [reduce_on_window(x, (0, 6)), reduce_on_window(x, (0, 7))]


def reduction_digest():
    reds = recorded_reductions(lambda: run_suite(VerificationConfig(window=16)))
    reds += recorded_reductions(run_pool)
    reds += gap_rule_reductions()
    digest = hashlib.sha256()
    for red in reds:
        digest.update(reduction_text(red).encode())
    return len(reds), digest.hexdigest()


def test_a_reduction_that_ends_a_period_inside_the_window_is_bounded():
    for red in gap_rule_reductions():
        assert red.reduced.window() == (0, 5)
        assert red.reduced.tail is None


def test_every_reduction_of_the_suite_and_the_pool_is_pinned():
    count, digest = reduction_digest()
    assert count > 400
    assert digest == PINNED

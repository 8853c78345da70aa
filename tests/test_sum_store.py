"""Every realized sum of shifted projectives is built once per algebra and
shared (``modules.projective_sum``), and so is a module's π image
(``modules.apply_pi``) and each standard module and generator map of a
``Setup``. Sharing is sound only while no caller mutates what it was given:
after the suite and the eval pool have run on one ``Setup``, every stored
sum still equals a fresh build of its key and passes validation, every kept
π image equals a fresh π, and the pool renders the same in either order."""

from unittest import mock

from jwcat import verify
from jwcat.complexes import RegimeError, WindowTooSmall
from jwcat.exprs import ParseError, evaluate, parse, render_value
from jwcat.functors import Setup
from jwcat.modules import (GradedModule, Summand, apply_pi, projective,
                           projective_sum)
from jwcat.quiver import build_B
from test_reduction_pin import pool_expressions


def renders(setup, expressions, window=12):
    out = {}
    for expr in expressions:
        try:
            out[expr] = render_value(evaluate(setup, parse(expr), (0, window),
                                              2 * window + 1))
        except (WindowTooSmall, ParseError, RegimeError) as exc:
            out[expr] = f"{type(exc).__name__}: {exc}"
    return out


def test_one_stored_sum_per_summand_tuple():
    B = build_B()
    P1 = projective(B, "1")
    assert projective_sum(B, [Summand("1", 0)]) is P1
    assert B._sums[(Summand("1", 0),)] is P1
    assert GradedModule.zero_module(B) is projective_sum(B, ())


def test_the_suite_and_the_pool_leave_every_shared_module_as_built():
    setup = Setup.create()
    with mock.patch.object(Setup, "create", lambda: setup):
        report = verify.run_suite(verify.VerificationConfig(window=16))
    assert all(c.verdict == "pass" for c in report.checks)
    renders(setup, pool_expressions())
    B, C = setup.B, setup.C
    assert len(B._sums) > 40 and len(C._sums) > 10
    kept = 0
    for alg in (B, C):
        for key, M in alg._sums.items():
            with mock.patch.object(alg, "_sums", {}):
                want = projective_sum(alg, key)
            assert want is not M
            assert M == want and M.name == want.name, key
            M._validate()
            if M._pi is not None:
                kept += 1
                assert M._pi == apply_pi(want, C) and M._pi.name == want._pi.name
    assert kept > 10
    # the atoms built again on the same algebras: P(1) and P(2) come from
    # the store, checked above, the rest are fresh
    again = Setup(B, C)
    assert again.modules == setup.modules and again.maps == setup.maps
    built = list(setup.modules.values()) + [m for _z, *ms in setup.maps.values() for m in ms]
    rebuilt = list(again.modules.values()) + [m for _z, *ms in again.maps.values() for m in ms]
    for M, want in zip(built, rebuilt):
        M._validate()
        if M._pi is not None:
            assert M._pi == apply_pi(want, C) and M._pi.name == want._pi.name


def test_the_pool_renders_the_same_in_either_order():
    pool = pool_expressions()
    setup = Setup.create()
    forward = renders(setup, pool)
    assert renders(Setup.create(), pool[::-1]) == forward
    # and again on the first Setup, whose stores are now full
    assert renders(setup, pool[::-1]) == forward

"""Command-line driver.

    jwcat verify [--window N] [--order M] [--format text|json] [--only a,b]
    jwcat eval "CK(P(1))"
    jwcat show algebra_two_vertex

Exit codes: 0 all pass, 1 any fail, 2 inconclusive (none failing),
3 usage error; ``eval`` exits 2 when the window cannot certify its value
(``WindowTooSmall``) and 1 on any other engine error. JWCAT_WINDOW overrides
the default window.
"""

from __future__ import annotations

import argparse
import os
import sys

from .complexes import WindowTooSmall
from .exprs import ParseError, evaluate, parse, render_value
from .functors import Setup
from .fixtures import available_fixtures, load_fixture, render_fixture
from .verify import VerificationConfig, run_suite

INCONCLUSIVE = 2
USAGE_ERROR = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(prog="jwcat",
                        description="exact verification engine for the two "
                                    "categorified degree-two projectors")
    sub = p.add_subparsers(dest="command", required=True)

    # a string default goes through type=int, so a bad value is a usage error
    window = os.environ.get("JWCAT_WINDOW", "16")
    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--window", type=int, default=window,
                   help="homological window size N (default 16; env JWCAT_WINDOW)")
    v.add_argument("--order", type=int, default=None,
                   help="series truncation order, at least 1 (default 2N+1)")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--only", type=str, default="",
                   help="comma-separated check names to run")

    e = sub.add_parser("eval", help="evaluate a functor expression")
    e.add_argument("expr", type=str)
    e.add_argument("--window", type=int, default=window)
    e.add_argument("--order", type=int, default=None)

    s = sub.add_parser("show", help="load, validate, and pretty-print a fixture")
    s.add_argument("fixture", type=str,
                   help="fixture name or path to a JSON file; use 'list' to "
                        "enumerate bundled fixtures")
    return p


def cmd_verify(args) -> int:
    try:
        cfg = VerificationConfig(window=args.window, order=args.order,
                                 only=tuple(x for x in args.only.split(",") if x))
    except ValueError as exc:
        print(f"jwcat: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = run_suite(cfg)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return report.exit_code()


def cmd_eval(args) -> int:
    if args.window < 0:
        print(f"jwcat: error: window must be at least 0, not {args.window}", file=sys.stderr)
        return USAGE_ERROR
    window = (0, args.window)
    order = args.order if args.order is not None else 2 * args.window + 1
    try:
        node = parse(args.expr)
    except ParseError as exc:
        print(f"jwcat: parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    setup = Setup.create()
    try:
        val = evaluate(setup, node, window, order)
    except Exception as exc:   # noqa: BLE001 - surface engine errors verbatim
        print(f"jwcat: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INCONCLUSIVE if isinstance(exc, WindowTooSmall) else 1
    print(render_value(val))
    return 0


def cmd_show(args) -> int:
    if args.fixture == "list":
        for name in available_fixtures():
            print(name)
        return 0
    try:
        kind, obj = load_fixture(args.fixture)
    except FileNotFoundError:
        print(f"jwcat: no such fixture: {args.fixture}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:   # noqa: BLE001
        print(f"jwcat: invalid fixture: {exc}", file=sys.stderr)
        return 1
    print(render_fixture(kind, obj))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "eval":
        return cmd_eval(args)
    if args.command == "show":
        return cmd_show(args)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

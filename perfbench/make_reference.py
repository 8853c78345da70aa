"""Regenerate the reference outputs in perfbench/reference/ from the source.

    python3 perfbench/make_reference.py

Writes the suite reports (``to_json(with_timings=False)``) at N=16 and N=48
and, for eval-mix, the outcome and rendered text of every expression the
workload can draw. Expressions the engine rejects by its typing rules
(``ParseError``, ``RegimeError``) are listed as rejected and never drawn; any
other error stops the script. The references pin today's outputs, so rerun
this only when a change to the outputs is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from jwcat.complexes import RegimeError, WindowTooSmall  # noqa: E402
from jwcat.exprs import ParseError, evaluate, parse, render_value  # noqa: E402
from jwcat.functors import Setup  # noqa: E402
from jwcat.verify import VerificationConfig, run_suite  # noqa: E402

from workloads import (EVAL_WINDOW, REFERENCE_DIR, SUFFIXES,  # noqa: E402
                       VERIFY_WINDOWS, base_expressions, render, variants)


def eval_reference(window: int) -> dict:
    setup = Setup.create()
    order = 2 * window + 1
    expressions, rejected = {}, {}
    for chain in base_expressions():
        base = render(chain)
        for expr in variants(chain):
            try:
                entry = {"outcome": "value", "text": render_value(
                    evaluate(setup, parse(expr), (0, window), order))}
            except WindowTooSmall as exc:
                entry = {"outcome": "inconclusive", "text": str(exc)}
            except (ParseError, RegimeError) as exc:
                rejected[expr] = f"{type(exc).__name__}: {exc}"
                continue
            expressions[expr] = {"base": base, **entry}
            print(f"{entry['outcome']:12} {expr}", flush=True)
    return {"window": window, "order": order, "suffixes": list(SUFFIXES),
            "expressions": expressions, "rejected": rejected}


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for window in sorted(VERIFY_WINDOWS.values()):
        report = run_suite(VerificationConfig(window=window))
        (REFERENCE_DIR / f"verify-N{window}.json").write_text(
            report.to_json(with_timings=False))
        print(f"verify N={window}: {report.verdict_counts()}", flush=True)
    ref = eval_reference(EVAL_WINDOW)
    (REFERENCE_DIR / f"eval-N{EVAL_WINDOW}.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: what each job is, how it runs, how it is checked.

Every job goes through jwcat's public entry points, looked up as module
attributes at call time so that the traced run's wrappers see every call:
``verify.run_suite``/``Report.to_json`` and ``exprs.parse``/``exprs.evaluate``/
``exprs.render_value``.

verify-default, verify-wide
    One job is the full 13-check suite at window N (16 or 48; the series
    order defaults to 2N+1). Its inputs do not depend on the seed. The job
    fails unless every verdict is ``pass`` and the report, without timings,
    is byte-identical to the committed reference.
eval-mix
    One job is one expression at window N=24, drawn from every well-typed
    depth-<=3 expression with at most one shift suffix (see ``eval_jobs``).
    A job fails if its outcome (value or inconclusive) or its rendered text
    differs from the reference, or if it raises anything but
    ``WindowTooSmall``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

VERIFY_WINDOWS = {"verify-default": 16, "verify-wide": 48}
EVAL_WINDOW = 24
WORKLOADS = ("verify-default", "verify-wide", "eval-mix")

# The paper's claims hold at every window from 10 up: 13 checks, all pass.
SUITE_CHECKS = 13

OBJECT_ATOMS = ("P(1)", "P(2)", "L(1)", "L(2)", "I(2)")
MAP_ATOMS = ("c", "a", "b", "e(1)", "e(2)")
FUNCTORS = ("P", "D", "CK")
SUFFIXES = ("<1>", "<-1>", "[1]", "[-1]")


def base_expressions() -> list[tuple[str, ...]]:
    """Depth <= 3 functor chains over the atoms, innermost atom first:
    ("P(1)",), ("P(1)", "D"), ("P(1)", "D", "CK") stands for CK(D(P(1)))."""
    out = []
    for atom in OBJECT_ATOMS + MAP_ATOMS:
        out.append((atom,))
        for f in FUNCTORS:
            out.append((atom, f))
            for g in FUNCTORS:
                out.append((atom, f, g))
    return out


def render(chain: tuple[str, ...], suffixes: tuple[str, ...] | None = None) -> str:
    suffixes = suffixes or ("",) * len(chain)
    text = chain[0] + suffixes[0]
    for f, suffix in zip(chain[1:], suffixes[1:]):
        text = f"{f}({text}){suffix}"
    return text


def variants(chain: tuple[str, ...]) -> list[str]:
    """The base expression and every placement of one shift suffix on one of
    its nodes. Shifts apply to objects only, so chains over a morphism atom
    (whose every node is a morphism) have no shifted variants."""
    out = [render(chain)]
    if chain[0] in OBJECT_ATOMS:
        for node in range(len(chain)):
            for suffix in SUFFIXES:
                sufs = [""] * len(chain)
                sufs[node] = suffix
                out.append(render(chain, tuple(sufs)))
    return out


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def verify_reference_text(window: int) -> str:
    return (REFERENCE_DIR / f"verify-N{window}.json").read_text()


def eval_jobs(reference: dict, seed: int) -> list[str]:
    """Every expression except the nested-CK ones, plus one seeded variant of
    each nested-CK base, in seeded order.

    Variants of one base differ in cost by up to three orders of magnitude,
    so a random subset of them would move the latency percentiles from seed
    to seed; all of them run in every pass instead. The five nested-CK bases
    (CK(CK(x)), inconclusive at N=24, seconds each) enter once per pass each:
    a fixed share of 5 jobs per pass.
    """
    rng = random.Random(seed)
    jobs, nested = [], {}
    for expr, entry in sorted(reference["expressions"].items()):
        if entry["base"].startswith("CK(CK("):
            nested.setdefault(entry["base"], []).append(expr)
        else:
            jobs.append(expr)
    jobs += [rng.choice(nested[base]) for base in sorted(nested)]
    rng.shuffle(jobs)
    return jobs


@dataclass
class Outcome:
    outcome: str            # value | inconclusive | error
    text: str               # the report JSON or the rendered value
    check_seconds: dict[str, float] | None = None


class VerifyWorkload:
    """verify-default / verify-wide: one job is the whole suite."""

    def __init__(self, window: int):
        import jwcat.verify
        self._verify = jwcat.verify
        self.window = window
        self.reference_text = verify_reference_text(window)
        self.jobs = ["suite"]

    def run(self, job: str) -> Outcome:
        verify = self._verify
        report = verify.run_suite(verify.VerificationConfig(window=self.window))
        verdicts = {c.verdict for c in report.checks}
        return Outcome("inconclusive" if "inconclusive" in verdicts else "value",
                       report.to_json(with_timings=False),
                       {c.name: c.seconds for c in report.checks})

    def failed(self, job: str, out: Outcome) -> bool:
        checks = json.loads(out.text)["checks"]
        all_pass = (len(checks) == SUITE_CHECKS
                    and all(c["verdict"] == "pass" for c in checks))
        return not all_pass or out.text != self.reference_text


class EvalWorkload:
    """eval-mix: one job is one expression."""

    def __init__(self, seed: int):
        import jwcat.complexes
        import jwcat.exprs
        import jwcat.functors
        self._exprs = jwcat.exprs
        self._window_too_small = jwcat.complexes.WindowTooSmall
        self.window = EVAL_WINDOW
        self.reference = load_reference(f"eval-N{EVAL_WINDOW}")
        self.jobs = eval_jobs(self.reference, seed)
        self.setup = jwcat.functors.Setup.create()

    def run(self, job: str) -> Outcome:
        exprs = self._exprs
        try:
            value = exprs.evaluate(self.setup, exprs.parse(job),
                                   (0, self.window), 2 * self.window + 1)
            return Outcome("value", exprs.render_value(value))
        except self._window_too_small as exc:
            return Outcome("inconclusive", str(exc))
        except Exception as exc:   # noqa: BLE001 - any other error fails the job
            return Outcome("error", f"{type(exc).__name__}: {exc}")

    def failed(self, job: str, out: Outcome) -> bool:
        ref = self.reference["expressions"][job]
        return (out.outcome, out.text) != (ref["outcome"], ref["text"])


def make_workload(name: str, seed: int):
    if name in VERIFY_WINDOWS:
        return VerifyWorkload(VERIFY_WINDOWS[name])
    if name == "eval-mix":
        return EvalWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

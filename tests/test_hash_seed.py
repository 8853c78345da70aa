"""Outputs do not depend on the hash seed.

Paths and summands are canonical objects that hash by identity, and strings
hash by ``PYTHONHASHSEED``, so the order of a set or a hash-ordered walk over
either changes between processes. A report or a render that read such an
order would differ between two runs; this runs the suite and a sample of the
expression pool in two child processes with different seeds and compares the
text byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

EXPRESSIONS = ("CK(D(e(1)))", "D(P(L(2)))", "P(L(1))", "CK(D(L(1)))", "P(D(I(2)))",
               "CK(P(1)<1>)", "D(P(a))", "CK(D(b))", "P(c)", "D(L(2)[1])")

OUTPUTS = f"""
from jwcat.exprs import evaluate, parse, render_value
from jwcat.functors import Setup
from jwcat.verify import VerificationConfig, run_suite

print(run_suite(VerificationConfig(window=12)).to_json(with_timings=False))
setup = Setup.create()
for text in {EXPRESSIONS!r}:
    print(text, render_value(evaluate(setup, parse(text), (0, 24), 49)))
"""


def outputs(seed: str) -> str:
    done = subprocess.run([sys.executable, "-B", "-c", OUTPUTS],
                          env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_outputs_are_byte_identical_under_two_hash_seeds():
    first = outputs("0")
    assert first.count("\n") > len(EXPRESSIONS) and all(e in first for e in EXPRESSIONS)
    assert outputs("4242") == first

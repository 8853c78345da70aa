"""Byte-identity digests of everything jwcat prints or writes.

    python3 tests/identity_digests.py > digests.txt

Prints one line ``<name> <sha256>`` for each of:

* ``Report.to_json(with_timings=False)`` of the suite at N = 4…14, 16, 20,
  24, 32, 48 and 64;
* the witnesses of every reduction the suite at N = 16 makes, in the order
  made: F, G and h as the entry words of each degree;
* the eval pool at N = 12 and 24: every well-typed depth-≤3 expression with
  at most one shift suffix (the 810 of ``perfbench/workloads.py``), each
  evaluated on (0, N) at order 2N + 1 and rendered, or its error's type and
  text;
* the stdout of each demo;
* the files ``write_bundled_fixtures`` writes, by name and content.

Run it on two checkouts and ``diff`` the outputs: a change that keeps
reports, renders, demos and fixtures byte-identical prints the same lines.
The library is imported from ``src/`` of the checkout this file sits in.
Kept out of tier-1 collection (the file name does not match ``test_*.py``),
since the nested-CK pool expressions take a minute or more.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from workloads import base_expressions, variants  # noqa: E402

from jwcat.complexes import Reduction  # noqa: E402
from jwcat.exprs import evaluate, parse, render_value  # noqa: E402
from jwcat.fixtures import write_bundled_fixtures  # noqa: E402
from jwcat.functors import Setup  # noqa: E402
from jwcat.verify import VerificationConfig, run_suite  # noqa: E402

REPORT_WINDOWS = (*range(4, 15), 16, 20, 24, 32, 48, 64)
WITNESS_WINDOW = 16
POOL_WINDOWS = (12, 24)


def witness_text(window: int) -> str:
    made = []
    real = Reduction.__init__

    def recording(self, *args):
        real(self, *args)
        made.append(self)

    with mock.patch.object(Reduction, "__init__", recording):
        run_suite(VerificationConfig(window=window))
    lines = []
    for k, red in enumerate(made):
        for name, f in (("F", red.to_reduced), ("G", red.from_reduced), ("h", red.homotopy)):
            for i, m in sorted(f.maps.items()):
                words = "; ".join(" ".join(e.word() for e in row) for row in m.entries)
                lines.append(f"{k} {name} {i}: {words}\n")
    return "".join(lines)


def pool() -> list[str]:
    return [expr for chain in base_expressions() for expr in variants(chain)]


def pool_text(window: int) -> str:
    setup = Setup.create()
    lines = []
    for expr in pool():
        try:
            out = render_value(evaluate(setup, parse(expr), (0, window), 2 * window + 1))
        except Exception as exc:   # noqa: BLE001 - an error's text is output too
            out = f"{type(exc).__name__}: {exc}"
        lines.append(f"{expr}\n{out}\n")
    return "".join(lines)


def demo_stdout(demo: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return done.stdout


def fixtures_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        write_bundled_fixtures(Path(tmp))
        return "".join(f"{p.name}\n{p.read_text()}" for p in sorted(Path(tmp).iterdir()))


def digests():
    for n in REPORT_WINDOWS:
        yield f"report-N{n}", run_suite(VerificationConfig(window=n)).to_json(with_timings=False)
    yield f"witnesses-N{WITNESS_WINDOW}", witness_text(WITNESS_WINDOW)
    for n in POOL_WINDOWS:
        yield f"pool-N{n}", pool_text(n)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        yield f"demo-{demo.name}", demo_stdout(demo)
    yield "fixtures", fixtures_text()


def main() -> None:
    for name, text in digests():
        print(name, hashlib.sha256(text.encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()

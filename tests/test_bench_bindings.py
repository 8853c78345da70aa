"""The benchmark's binding check runs with these tests, so a jwcat import
change that breaks the traced benchmark run fails here as well as in
``perfbench/selftest.py``.

The check compares every jwcat namespace that binds a traced name with the
table in ``perfbench/selftest.py``, for the modules the benchmark loads. This
test session loads more of jwcat (``jwcat.cli`` binds ``evaluate`` too), so
the check runs in a fresh interpreter. It reads ``perfbench/selftest.py`` and
writes nothing there (``-B``: no bytecode cache)."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"

CHECK = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_selftest", sys.argv[1])
selftest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(selftest)
selftest.test_every_binding_is_wrapped_and_restored()
"""


def test_every_benchmark_binding_is_wrapped_and_restored():
    proc = subprocess.run([sys.executable, "-B", "-c", CHECK, str(SELFTEST)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

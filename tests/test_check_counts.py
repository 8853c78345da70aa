"""Building results without re-checking them removes no check: the suite at
N = 16 and one seed-1 eval-mix pass call ``_validate`` exactly as often, on
each validated class, as before ``Matrix._trusted``, the shared zero blocks
and ``_StoredComplex._stored`` came in. The normalising ``Matrix``
constructions of the suite at N = 16 are pinned from above."""

import importlib.util
import sys
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from jwcat.complexes import AlgMatrix, Complex, ProjChainMap, ProjComplex
from jwcat.linalg import Matrix
from jwcat.modules import GradedModule, ModuleHom
from jwcat.verify import VerificationConfig, run_suite

VALIDATED = (ProjComplex, Complex, GradedModule, ModuleHom, AlgMatrix, ProjChainMap)

SUITE_16_VALIDATES = {"ProjComplex": 346, "Complex": 147, "GradedModule": 199,
                      "ModuleHom": 165, "AlgMatrix": 194, "ProjChainMap": 4}
EVAL_SEED_1_VALIDATES = {"ProjComplex": 1755, "Complex": 594, "GradedModule": 1550,
                         "ModuleHom": 1365, "AlgMatrix": 0, "ProjChainMap": 0}
# Matrix constructions through the public constructor in the suite at N = 16:
# with data (each cell through ``_frac``) and zeros to fill in. They were
# 6,375 and 7,072 while every result went through the public constructor, and
# 813 and 1,747 while ``Matrix.rref`` filled a fresh zero.
SUITE_16_MATRICES = {"data": 813, "zero": 669}

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def validate_counts(run) -> dict[str, int]:
    counts = Counter()
    with ExitStack() as stack:
        for cls in VALIDATED:
            def counted(self, *args, _real=cls._validate, _name=cls.__name__, **kw):
                counts[_name] += 1
                return _real(self, *args, **kw)
            stack.enter_context(mock.patch.object(cls, "_validate", counted))
        run()
    return {cls.__name__: counts[cls.__name__] for cls in VALIDATED}


def eval_workload():
    """The eval-mix workload at seed 1, its ``Setup`` built."""
    spec = importlib.util.spec_from_file_location("eval_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.EvalWorkload(1)


def test_the_suite_validates_as_often_as_before():
    assert validate_counts(lambda: run_suite(VerificationConfig(window=16))) \
        == SUITE_16_VALIDATES


def test_an_eval_pass_validates_as_often_as_before():
    wl = eval_workload()
    outcomes = []
    assert validate_counts(lambda: outcomes.extend(map(wl.run, wl.jobs))) \
        == EVAL_SEED_1_VALIDATES
    assert len(outcomes) == 561
    assert not [job for job, out in zip(wl.jobs, outcomes) if wl.failed(job, out)]


def test_the_suite_normalises_few_matrices():
    made = Counter()
    real = Matrix.__init__

    def counted(self, nrows, ncols, data=None):
        made["zero" if data is None else "data"] += 1
        real(self, nrows, ncols, data)

    with mock.patch.object(Matrix, "__init__", counted):
        run_suite(VerificationConfig(window=16))
    assert made["data"] <= SUITE_16_MATRICES["data"]
    assert made["zero"] <= SUITE_16_MATRICES["zero"]

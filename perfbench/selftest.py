"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's default test collection (the file name does not
match ``test_*.py``) because the traced runs take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spans import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, eval_jobs, load_reference  # noqa: E402

# Every jwcat namespace that binds each traced name once the benchmark has
# imported the library. A new ``from .x import f`` in jwcat changes this
# table; the traced run then rebinds the new name too and the table here must
# be extended, which makes the change visible.
EXPECTED_REBOUND = {
    "linalg.Matrix.rref": ["jwcat.linalg.Matrix"],
    "linalg.Matrix.apply": ["jwcat.linalg.Matrix"],
    "linalg.kernel_from_columns": ["jwcat.complexes", "jwcat.linalg", "jwcat.modules"],
    "linalg.solve_from_columns": ["jwcat.complexes", "jwcat.functors", "jwcat.linalg"],
    "modules.tensor_with_bimodule": ["jwcat.modules", "jwcat.verify"],
    "modules.hom_space": ["jwcat.modules", "jwcat.verify"],
    "modules.find_module_iso": ["jwcat.modules", "jwcat.verify"],
    "modules.apply_pi": ["jwcat.functors", "jwcat.modules", "jwcat.verify"],
    "resolutions.resolve_complex": ["jwcat.functors", "jwcat.resolutions"],
    "resolutions.projective_resolution": ["jwcat.resolutions", "jwcat.verify"],
    "complexes.gaussian_reduce": ["jwcat.complexes", "jwcat.exprs", "jwcat.functors",
                                  "jwcat.verify"],
    "complexes.total_complex": ["jwcat.complexes", "jwcat.functors", "jwcat.verify"],
    "complexes.iso_in_homotopy_category": ["jwcat.complexes", "jwcat.verify"],
    "complexes.maps_agree_under_identification": ["jwcat.complexes", "jwcat.verify"],
    "complexes.solve_chain_maps": ["jwcat.complexes"],
    "complexes.solve_homotopy": ["jwcat.complexes"],
    "functors.P_on_object": ["jwcat.exprs", "jwcat.functors", "jwcat.verify"],
    "functors.P_on_module_map": ["jwcat.exprs", "jwcat.functors", "jwcat.verify"],
    "functors.lift_through_resolutions": ["jwcat.functors"],
    "functors.koszul_D_on_object": ["jwcat.exprs", "jwcat.functors", "jwcat.verify"],
    "functors.koszul_D_on_map": ["jwcat.exprs", "jwcat.functors", "jwcat.verify"],
    "functors.CK_on_object": ["jwcat.exprs", "jwcat.functors", "jwcat.verify"],
    "functors.CK_on_map": ["jwcat.exprs", "jwcat.functors", "jwcat.verify"],
    "kclass.euler_class": ["jwcat.exprs", "jwcat.kclass", "jwcat.verify"],
    "exprs.evaluate": ["jwcat.exprs"],
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_every_binding_is_wrapped_and_restored():
    import jwcat.exprs  # noqa: F401 - the modules the benchmark loads
    import jwcat.verify  # noqa: F401
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.rebound == EXPECTED_REBOUND
        assert tracer.leaks() == []
    finally:
        tracer.uninstall()
    from jwcat import complexes, exprs, verify
    from jwcat.linalg import Matrix
    for module in (complexes, exprs, verify):
        assert not hasattr(module.gaussian_reduce, "__wrapped__")
    assert not hasattr(Matrix.rref, "__wrapped__")
    assert len(tracer.rebound) == len(SPANS)


def test_eval_mix_draw_is_seeded_with_a_fixed_mix():
    ref = load_reference("eval-N24")
    nested = {e for e, v in ref["expressions"].items() if v["base"].startswith("CK(CK(")}
    for seed in (1, 2, 3):
        jobs = eval_jobs(ref, seed)
        assert jobs == eval_jobs(ref, seed)
        assert len(jobs) == len(ref["expressions"]) - len(nested) + 5
        assert len(set(jobs) & nested) == 5
    assert eval_jobs(ref, 1) != eval_jobs(ref, 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_outputs_match(workload):
    counts = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "7", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        # correct covers: no failed job, traced outputs byte-identical to the
        # untraced pass, and no unwrapped binding left in any jwcat namespace
        assert result["correct"], proc.stderr
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["quiver.AlgebraElement.created"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "eval-mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Every demo script runs to completion and prints exactly the output it
printed before the projector columns were derived from the structure-map
table: the sha256 of each demo's stdout is pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_path_algebras.py":
        "2af558be785288e97deab06cc9918b78008fb5dd511b38bac90671318ca5431b",
    "02_modules_and_resolutions.py":
        "d65ac3a9d84a9e5d9026c0649e57213a39294585b943f5fdd9fac45c93709e0d",
    "03_projector.py":
        "61df42598f497768cb8a19f753a0ad0e39e1a2ed0ec241629cdc81d0de57894b",
    "04_duality.py":
        "b91ba55b4c1ae4fc3c32c3cf325de92b93243c88fba73a0254657aed69025546",
    "05_topological_projector.py":
        "014a5342eec3cfa34c59600a1e9fb96973b280f8a4a57cbb35db5c41cdf4932b",
    "06_duality_theorem.py":
        "178f3a3e1717f0719ab4d464e88b916b88247c009d347c34aa365e5f07624336",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]

"""Every demo runs to completion and prints exactly what it printed when
its digest was recorded.  The digest of 03_involutions_kms.py was recorded
again when the KMS functional came to return a constant Func: only its two
tau(...) lines changed, from the series form (-1/2*i*pi^(2/2))*lam to the
Func form ((-1/2*i)*lam)*pi^(4/4) of the same value.

Each demo runs in its own interpreter with `src/` on the import path; the
digest is the sha256 of its stdout.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_star_products.py":
        "d1f907c8da381fdf7e8db3918fc2b82fb42a7f96cda0ac4632722d53ea22936d",
    "02_reduction.py":
        "dbe1cf7df87e06bde4e9f7939d0aeb7fba7d029c938072fa5fc96f499a2b1621",
    "03_involutions_kms.py":
        "b56e25c590a12926439241fc8a0a9b4f4702c021a267217026d238c618c34ee6",
    "04_modules_induction.py":
        "64979ca5064d72ebe90b05f34aa54964f221f071de40896654f67e73368a33cb",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, env=env, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[name]

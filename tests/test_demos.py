"""Each demo script runs to completion and prints exactly its pinned output.

The digests pin each demo's stdout byte for byte.  `subword_factorization.py`
prints the independent subsets in enumeration order, so a change of that
order fails here as well as a change of content.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "alternation_ideal.py": "038af46caa6322dcac0b0786dd87a0281d90cce4ec09f4d4ab506a64317d77b2",
    "fibonacci_counting.py": "7bc5b3bf5e45c370623a4ec30ff766134c3202dcd7e7b759c6ac5b70c68d0981",
    "graded_multiplicity.py": "34981ff19812bbbffec17bca8fc515163fa982d16ea4332e1d45672df7e00975",
    "subword_factorization.py": "aa18e776df16e7ce4dc0b914366cc31d995c784124bf0f44ab27b23dd029e89c",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(
        DEMO_STDOUT_SHA256
    )


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]

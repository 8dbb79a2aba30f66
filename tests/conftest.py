import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def fresh_python(tmp_path):
    """Run Python source in a new interpreter that imports the parkdet the
    tests import, in the test's temporary directory, and fail the test if
    it takes a minute; returns the CompletedProcess, with text output."""
    import parkdet

    src = str(Path(parkdet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=60, cwd=tmp_path)

    return run

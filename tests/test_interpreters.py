"""The command under each other interpreter the package supports, run as
a child process: `python3.10`, `python3.12` and `python3.13`, as
`shutil.which` finds them. The package is stdlib-only, so these need no
test dependencies. pyenv shims run an interpreter only when
PYENV_VERSION names its version, so each child gets PYENV_VERSION=3.<minor>
beside PYTHONPATH=src, and a probe of sys.version_info first; an
interpreter that is absent, fails the probe or reports another version
is a skip that names it."""

import hashlib
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from test_cli import (
    DEEP_COUNT,
    VERIFY_ALL_SEED0_CSV_SHA256,
    VERIFY_ALL_SEED0_SHA256,
    VERIFY_ALL_SEED0_TEXT_SHA256,
    chain_count,
)

ROOT = Path(__file__).resolve().parents[1]

# Compiles every file with the interpreter's own compile(): exact for that
# version, where test_syntax's feature_version parse approximates 3.10.
# compileall would write __pycache__ into the tree.
COMPILE_ALL = """
from pathlib import Path
paths = [p for d in ("src", "tests", "bench") for p in sorted(Path(d).rglob("*.py"))]
for p in paths:
    compile(p.read_text(encoding="utf-8"), str(p), "exec", dont_inherit=True)
print(len(paths))
"""


GOLDEN = {"json": VERIFY_ALL_SEED0_SHA256, "csv": VERIFY_ALL_SEED0_CSV_SHA256,
          "text": VERIFY_ALL_SEED0_TEXT_SHA256}
# every elapsed_ms set to 0, as test_cli's golden tests do; CSV holds none
MASKS = {"json": (rb'"elapsed_ms": \d+', b'"elapsed_ms": 0'), "text": (rb", \d+ ms\n", b", 0 ms\n")}


@pytest.fixture(scope="module", params=[10, 12, 13], ids=lambda minor: f"python3.{minor}")
def python(request):
    """Run the named interpreter, in the repository root unless `cwd` names
    another directory, with the package on its path; returns the
    CompletedProcess, with bytes output."""
    name = f"python3.{request.param}"
    exe = shutil.which(name)
    if exe is None:
        pytest.skip(f"{name} is not on PATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYENV_VERSION=f"3.{request.param}",
               PYTHONDONTWRITEBYTECODE="1")

    def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
        return subprocess.run([exe, *args], env=env, cwd=cwd, capture_output=True, timeout=120)

    probe = run("-c", "import sys; print(*sys.version_info[:2])")
    if probe.returncode != 0 or probe.stdout.split() != [b"3", str(request.param).encode()]:
        said = (probe.stdout + probe.stderr).decode(errors="replace").strip().partition("\n")[0]
        pytest.skip(f"{name} cannot be run as 3.{request.param}: exit {probe.returncode}, {said!r}")
    return run


@pytest.mark.parametrize("fmt", GOLDEN)
def test_verify_all_is_golden(python, fmt):
    done = python("-m", "parkdet.cli", "verify", "all", "--seed", "0", "--format", fmt)
    assert done.returncode == 0, done.stderr.decode()
    out = re.sub(*MASKS[fmt], done.stdout) if fmt in MASKS else done.stdout
    assert hashlib.sha256(out).hexdigest() == GOLDEN[fmt]


def test_errors_exit_1(python, tmp_path):
    done = python("-m", "parkdet.cli", "dim")
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.decode() == (
        "usage error: give exactly one of --graph-file, --lambda-seq, --step, --matrix-file\n")
    missing = tmp_path / "absent.txt"
    done = python("-m", "parkdet.cli", "dim", "--graph-file", str(missing))
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.decode() == f"io error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_chain_counts_under_a_low_recursion_limit(python, tmp_path):
    # the counter's explicit stack must not lean on how an interpreter
    # handles deep recursion, which differs across these versions
    done = python("-c", DEEP_COUNT, cwd=tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == f"{chain_count(200)}\n".encode()


def test_sources_compile(python):
    done = python("-c", COMPILE_ALL)
    assert done.returncode == 0, done.stderr.decode()
    assert int(done.stdout) > 10

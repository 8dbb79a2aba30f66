import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    # Syntax only, against the floor in pyproject.toml: nothing runs under
    # 3.10 here. The parser's feature_version rejects later constructs such
    # as except*, which the probe shows. bench/ is parsed too: CI runs
    # bench/gate_check.py on 3.10
    probe = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(probe, feature_version=(3, 10))
    paths = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path.relative_to(ROOT)), feature_version=(3, 10))

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    # Syntax only, against the floor in pyproject.toml. test_interpreters
    # compiles every file with a real 3.10 when one can be run; this parse
    # needs none. The parser's feature_version rejects later constructs such
    # as except*, which the probe shows. bench/ is parsed too: CI runs
    # bench/gate_check.py on 3.10
    probe = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(probe, feature_version=(3, 10))
    paths = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path.relative_to(ROOT)), feature_version=(3, 10))


def test_int_byte_conversions_pass_their_byteorder():
    # Before 3.11, int.to_bytes and int.from_bytes have no default
    # byteorder, and to_bytes no default length. A later interpreter runs
    # such a call without complaint, so the calls in src/parkdet are
    # checked by their syntax
    def missing(call):
        given = {kw.arg for kw in call.keywords}
        need = {"byteorder": 1} if call.func.attr == "from_bytes" else {"length": 0, "byteorder": 1}
        return [name for name, pos in need.items() if len(call.args) <= pos and name not in given]

    checked = 0
    for path in sorted((ROOT / "src" / "parkdet").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("to_bytes", "from_bytes")):
                checked += 1
                assert not missing(node), f"{path.relative_to(ROOT)}:{node.lineno} {node.func.attr} lacks {missing(node)}"
    assert checked > 0

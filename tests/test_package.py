import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msl

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_export_resolves():
    missing = [name for name in msl.__all__ if not hasattr(msl, name)]
    assert missing == []
    namespace = {}
    exec("from msl import *", namespace)
    assert set(msl.__all__) <= set(namespace)


@pytest.mark.parametrize(
    "given, expected, first, warned",
    [(None, "1", "", False), ("3", "3", "", False), (None, "1", "numpy, ", True)],
    ids=["unset", "set", "numpy-imported-first"],
)
def test_import_pins_blas_threads_unless_set(given, expected, first, warned):
    variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in variables}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = f"import {first}os, msl; print(*(os.environ[v] for v in {variables!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [expected, "1", "1"]
    if warned:
        # One warning, naming every variable that msl set too late.
        assert out.stderr.count("RuntimeWarning") == 1
        assert all(v in out.stderr for v in variables)
    else:
        assert out.stderr == ""


def test_numpy_is_the_only_import_outside_the_standard_library():
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = set()
    for path in sorted((SRC / "msl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed}
    assert outside == set()


def test_storage_is_the_only_module_that_opens_or_writes_files():
    # storage.write_file overwrites in place; any other writer would truncate.
    calls = set()
    for path in sorted((SRC / "msl").glob("*.py")):
        if path.name == "storage.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in ("open", "write_text", "write_bytes"):
                calls.add(f"{path.name}:{node.lineno}: {name}(")
    assert calls == set()

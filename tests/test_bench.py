"""The benchmark runs and checks its own outputs: one short round of each
workload. `cli-roundtrip` writes only under the ignored .bench_runs/."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _one_round(workload: str, trace: int = 0) -> list[str]:
    """stdout lines of one round of `workload`, traced if `trace`, checked correct."""
    argv = ["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    assert line["correct"] is True, proc.stderr
    assert line["failed"] == 0
    assert line["attempted"] > 0
    return lines


def test_cli_roundtrip_round_is_correct():
    _one_round("cli-roundtrip")


def test_traced_cli_roundtrip_round_is_correct():
    # The tracer looks up the cli and storage names it rebinds by name, and
    # only a traced round does so: a renamed command fails here.
    _one_round("cli-roundtrip", trace=1)


def test_search_round_is_correct():
    lines = _one_round("search")
    # The digest hashes trained float parameters, whose last bits depend on
    # the BLAS build, so only its form is checked here, not its value.
    assert any(re.fullmatch(r"search digest [0-9a-f]{64} \(seed 1\)", line) for line in lines), lines

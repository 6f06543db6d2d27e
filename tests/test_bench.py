"""The benchmark runs and checks its own outputs: one short round of
`cli-roundtrip`, which writes only under the ignored .bench_runs/."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_roundtrip_round_is_correct():
    argv = ["bench/run.py", "--workload", "cli-roundtrip", "--seed", "1", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True, proc.stderr
    assert line["failed"] == 0
    assert line["attempted"] > 0

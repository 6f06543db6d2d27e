"""Benchmark entry point: one workload per process, or every workload in turn.

    python3 bench/run.py --workload search --seed 1 --seconds 40 --trace 0
    python3 bench/run.py                  # every workload, each in a fresh process

With ``--trace 0`` the last line of standard output is one JSON object with
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric, and the spans are written to .bench_runs/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# Files of the program the benchmark needs, outside its own directory.
REQUIRED = ("src/msl/__init__.py", "configs/benchmark.json", "tests/oracles.py")
SETUP_REPEATS = 3


def _median(values) -> float:
    return statistics.median(list(values))


def _measure(workload, state, seconds: float):
    """Whole rounds until `seconds` have passed (at least one)."""
    rounds, outputs = [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        figures, out = workload.round(state)
        rates = " ".join(f"{k} {_median(w / sec for w, sec in pieces):.6g}" for k, pieces in figures["rates"].items())
        print(f"round {len(rounds)}: wall_s {figures['wall_s']:.4f} {rates}", file=sys.stderr)
        rounds.append(figures)
        outputs.append(out)
        if len(rounds) == 1:
            # Later rounds only reuse memory; their peak varies with how
            # the allocator placed the first round's leftovers.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, outputs, peak_rss_mib


def _rates(rounds) -> dict[str, float]:
    """Each throughput metric as the median of work/seconds over its pieces."""
    return {name: _median(w / sec for r in rounds for w, sec in r["rates"][name]) for name in rounds[0]["rates"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import msl
    from tracing import Tracer
    from workloads import WORKLOADS, search_digest

    if not Path(msl.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"msl was imported from {msl.__file__}, not from {ROOT / 'src'}")
    workload = WORKLOADS[name]()
    values: dict[str, float] = {}
    if trace:
        tracer = Tracer()
        with tracer.installed(msl), tracer.span("bench.setup"):
            state = workload.setup(seed)
        rounds, outputs, _ = _measure(workload, state, seconds / 2)
        with tracer.installed(msl), tracer.span("bench.round"):
            traced, out = workload.round(state)
        outputs.append(out)
        values.update(tracer.layer_metrics())
        values["trace.overhead_s"] = traced["wall_s"] - _median(r["wall_s"] for r in rounds)
        rounds.append(traced)
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            state = None  # let the previous set-up's inputs go first
            start = perf_counter()
            state = workload.setup(seed)
            setups.append(perf_counter() - start)
        rounds, outputs, values["peak_rss_mib"] = _measure(workload, state, seconds)
        values["setup_s"] = _median(setups)
        values["wall_s"] = _median(r["wall_s"] for r in rounds)
        values.update(_rates(rounds))
    failures = workload.check(state, outputs)
    if trace:
        tracer.write(ROOT / ".bench_runs" / f"trace-{name}-seed{seed}.json")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    if name == "search":
        print(f"search digest {search_digest(outputs[0]['result'])} (seed {seed})")
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"cannot run: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        for name in names:
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            print(name, proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else f"exit {proc.returncode}")
        return 0
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")

    # One thread of control: BLAS must not fan out over the two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["values"]):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(result['values']))}", file=sys.stderr)
        return 3
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["values"][name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

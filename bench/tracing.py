"""Spans around the calls between msl's layers, recorded from outside.

The layers call each other through module-level names (``from .inferrer
import train`` binds ``msl.pipeline.train``). `Tracer.installed()` rebinds
every such name, in every msl module, to a wrapper that records a span
(name, start, end, parent span) and, for some calls, counts taken from the
arguments or the result. Nothing under ``src/`` changes. Spans stay in
memory until `write` dumps them at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

# Span names are "<module>.<function>" of the function's defining module.
TRACED = (
    "data.generate_dataset",
    "data.generate_sample",
    "data.split",
    "decoder.decode",
    "inferrer.train",
    "inferrer.infer",
    "inferrer.save_model",
    "inferrer.load_model",
    "encoder.fit_encoder",
    "encoder.encode",
    "metrics.detection_loss",
    "metrics.match",
    "metrics.report",
    "pipeline.loop",
    "pipeline.learn",
    "pipeline.test",
    "storage.save_dataset",
    "storage.load_dataset",
    "storage.write_msl1",
    "storage.read_msl1",
    "storage.write_json",
    "storage.read_json",
    "cli.main",
    "cli.cmd_gen",
    "cli.cmd_learn",
    "cli.cmd_test",
    "cli.cmd_report",
)

MODULES = ("data", "decoder", "encoder", "inferrer", "metrics", "pipeline", "storage", "cli")


def _file_size(path) -> int:
    return os.stat(path).st_size


def _count_train(counts, args, kwargs, result):
    arch, cfg = args[2], args[3]
    steps = int(result.step_losses.size)
    pixels = steps * cfg.batch_pixels
    counts["inferrer.train_steps"] += steps
    # Per pixel sample: the (D x H) matmul of the forward pass and the one
    # of the w1 gradient, 2 flops per multiply-add each, plus about 8 flops
    # per hidden unit for bias, tanh, output, residual and the other grads.
    d, h = arch.input_dim, arch.hidden_units
    counts["inferrer.train_flop"] += pixels * (4 * d * h + 8 * h)


# Hooks that turn a finished call into counts: (counts, args, kwargs, result).
HOOKS = {
    "inferrer.train": _count_train,
    "encoder.encode": lambda c, a, k, r: c.update({"encoder.points_out": len(r)}),
    "metrics.match": lambda c, a, k, r: c.update({"metrics.tp": r.tp}),
    "storage.write_msl1": lambda c, a, k, r: c.update({"storage.bytes_written": _file_size(a[0])}),
    "storage.write_json": lambda c, a, k, r: c.update({"storage.bytes_written": _file_size(a[0])}),
    "storage.read_msl1": lambda c, a, k, r: c.update({"storage.bytes_read": _file_size(a[0])}),
    "storage.read_json": lambda c, a, k, r: c.update({"storage.bytes_read": _file_size(a[0])}),
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.origin = perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter() - self.origin, None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter() - self.origin

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, msl):
        """Rebind every traced name in every msl module; restore on exit."""
        modules = {name: getattr(msl, name) for name in MODULES}
        wrappers = {}  # id of the original function -> its wrapper
        for qualified in TRACED:
            module, func = qualified.split(".")
            original = getattr(modules[module], func)
            wrappers[id(original)] = self._wrap(qualified, original)
        saved = []
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def write(self, path: Path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n")

    # -- per-layer figures -------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return math.fsum(self.durations(name))

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_time(self, prefix: str) -> float:
        """Span time of names starting with `prefix`, minus their children's."""
        child_time = [0.0] * len(self.spans)
        for n, s, e, parent in self.spans:
            if parent >= 0:
                child_time[parent] += e - s
        return math.fsum(
            e - s - child_time[i] for i, (n, s, e, _) in enumerate(self.spans) if n.startswith(prefix)
        )

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of BENCHMARK.json but trace.overhead_s."""
        c = self.counts
        train_s = self.total("inferrer.train")
        steps = c["inferrer.train_steps"]
        infer_ms = sorted(1e3 * d for d in self.durations("inferrer.infer"))
        learn_s = self.durations("pipeline.learn")
        return {
            "data.generate_s": self.total("data.generate_dataset"),
            "data.samples": self.calls("data.generate_sample"),
            "data.split_s": self.total("data.split"),
            "decoder.decode_s": self.total("decoder.decode"),
            "decoder.maps": self.calls("decoder.decode"),
            "inferrer.train_s": train_s,
            "inferrer.train_steps": steps,
            "inferrer.step_ms": 1e3 * train_s / steps if steps else 0.0,
            "inferrer.train_gflop": c["inferrer.train_flop"] / 1e9,
            "inferrer.train_gflops": c["inferrer.train_flop"] / 1e9 / train_s if train_s else 0.0,
            "inferrer.infer_s": self.total("inferrer.infer"),
            "inferrer.infer_calls": len(infer_ms),
            "inferrer.infer_ms_p50": _quantile(infer_ms, 0.50),
            "inferrer.infer_ms_p99": _quantile(infer_ms, 0.99),
            "inferrer.save_model_s": self.total("inferrer.save_model"),
            "inferrer.load_model_s": self.total("inferrer.load_model"),
            "encoder.fit_self_s": self.self_time("encoder.fit_encoder"),
            "encoder.encode_s": self.total("encoder.encode"),
            "encoder.encode_calls": self.calls("encoder.encode"),
            "encoder.points_out": c["encoder.points_out"],
            "metrics.match_s": self.total("metrics.match"),
            "metrics.match_calls": self.calls("metrics.match"),
            "metrics.tp": c["metrics.tp"],
            "metrics.report_s": self.total("metrics.report"),
            "pipeline.loop_self_s": self.self_time("pipeline.loop"),
            "pipeline.learn_self_s": self.self_time("pipeline.learn"),
            "pipeline.test_self_s": self.self_time("pipeline.test"),
            "pipeline.candidate_s": statistics.median(learn_s) if learn_s else 0.0,
            "storage.save_dataset_s": self.total("storage.save_dataset"),
            "storage.load_dataset_s": self.total("storage.load_dataset"),
            "storage.write_msl1_calls": self.calls("storage.write_msl1"),
            "storage.read_msl1_calls": self.calls("storage.read_msl1"),
            "storage.write_json_s": self.total("storage.write_json"),
            "storage.bytes_written": c["storage.bytes_written"],
            "storage.bytes_read": c["storage.bytes_read"],
            "cli.gen_s": self.total("cli.cmd_gen"),
            "cli.learn_s": self.total("cli.cmd_learn"),
            "cli.test_s": self.total("cli.cmd_test"),
            "cli.report_s": self.total("cli.cmd_report"),
            "cli.self_s": self.self_time("cli."),
        }


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 when there are no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]

"""Span tracer for icsim's public functions, installed from outside the package.

The simulator calls its own modules through module attributes (``ch.propagate``
inside the harness, ``frontend_coefficients`` inside ``channel.condition``), so
swapping those attributes for timing wrappers traces every internal call
without editing the package.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

ROOT = "run"

# (module, function) pairs wrapped in a traced run.
TRACED = (
    ("scenarios", "scenario_from_dict"),
    ("frame_codec", "encode_frame"),
    ("frame_codec", "decode_frame"),
    ("modem", "modulate"),
    ("modem", "demodulate"),
    ("channel", "propagate"),
    ("channel", "condition"),
    ("channel", "frontend_coefficients"),
    ("nodes", "master_step"),
    ("nodes", "slave_step"),
    ("power", "charge_consumed"),
    ("harness", "emit_report"),
    ("harness", "emit_timeline"),
    ("harness", "run_scenario"),
    ("harness", "measure_ber"),
)

# Spans reported under another layer name.  harness.self is the root call's
# own code plus the benchmark's few statements sequencing the timed run.
LAYER_OF = {
    "harness.emit_report": "harness.emit",
    "harness.emit_timeline": "harness.emit",
    "harness.run_scenario": "harness.self",
    "harness.measure_ber": "harness.self",
    ROOT: "harness.self",
}

# Layers reported with busy seconds and a call count.
LAYERS = (
    "scenarios.scenario_from_dict",
    "frame_codec.encode_frame",
    "frame_codec.decode_frame",
    "modem.modulate",
    "modem.demodulate",
    "channel.propagate",
    "channel.condition",
    "channel.frontend_coefficients",
    "nodes.master_step",
    "nodes.slave_step",
    "power.charge_consumed",
    "harness.emit",
)

# Sample counts taken from the returned waveform's length.
SAMPLE_COUNTERS = ("modem.modulate", "channel.propagate")

DECODE = "frame_codec.decode_frame"


class Tracer:
    """Records spans as [name, start_s, end_s, parent index, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self.samples = dict.fromkeys(SAMPLE_COUNTERS, 0)
        self._open: list[int] = []

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, False])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._start(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name: str, fn):
        counts_samples = name in SAMPLE_COUNTERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._start(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[index][4] = True
                raise
            finally:
                self._end(index)
            if counts_samples:
                self.samples[name] += len(result)
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Swap every TRACED function for its wrapper; restore them on exit."""
        saved = []
        try:
            for mod_name, fn_name in TRACED:
                module = modules[mod_name]
                original = getattr(module, fn_name)
                saved.append((module, fn_name, original))
                setattr(module, fn_name, self.wrap(f"{mod_name}.{fn_name}", original))
            yield
        finally:
            for module, fn_name, original in saved:
                setattr(module, fn_name, original)

    def layer_metrics(self) -> dict:
        """Self seconds and call counts per layer, plus counters.

        A span's self time is its duration minus that of its direct children,
        so the self times of all spans add up to the root spans' durations.
        """
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        busy = dict.fromkeys(LAYERS + ("harness.self",), 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        decode_errors = 0
        root_s = 0.0
        for (name, start, end, parent, raised), inner in zip(self.spans, child_s):
            layer = LAYER_OF.get(name, name)
            busy[layer] += (end - start) - inner
            if layer in calls:
                calls[layer] += 1
            if parent is None:
                root_s += end - start
            decode_errors += name == DECODE and raised
        metrics = {f"{layer}.s": s for layer, s in busy.items()}
        metrics.update({f"{layer}.calls": n for layer, n in calls.items()})
        metrics.update({f"{name}.samples": n for name, n in self.samples.items()})
        decodes = calls["frame_codec.decode_frame"]
        metrics["frame_codec.decode.errors"] = decode_errors
        # With no decode attempted, nothing was wasted.
        metrics["frame_codec.decode.ok_ratio"] = (
            (decodes - decode_errors) / decodes if decodes else 1.0)
        metrics["trace.root_s"] = root_s
        return metrics

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, raised in self.spans:
                fh.write(json.dumps({"name": name, "start_s": start, "end_s": end,
                                     "parent": parent, "raised": raised}))
                fh.write("\n")


def wrapped_functions(modules: dict) -> list[str]:
    """Names of TRACED functions that are currently a wrapper, not the original."""
    return [f"{m}.{f}" for m, f in TRACED if hasattr(getattr(modules[m], f), "__wrapped__")]

"""Span recording around ftnilab's public callables.

A traced run replaces each layer entry point (and every alias another
ftnilab module imported under its own name) with a wrapper that records a
span: name, start, end, parent span and operation id.  Self time is a
span's duration minus the time covered by its child spans, accumulated
online so that every call counts even when the span store is full.
"""

from __future__ import annotations

import csv
import sys
import time
from pathlib import Path

# (span name, module, attribute path) for every wrapped callable.
LAYERS = (
    ("lang.parse", "ftnilab.lang", "parse"),
    ("lang.run_while", "ftnilab.lang", "run_while"),
    ("seccomp.compile_program", "ftnilab.seccomp", "compile_program"),
    ("machine.step", "ftnilab.machine", "step"),
    ("machine.RiscSystem.step", "ftnilab.machine", "RiscSystem.step"),
    ("faultlab.compose_step", "ftnilab.faultlab", "compose_step"),
    ("faultlab.Composition.step", "ftnilab.faultlab", "Composition.step"),
    (
        "faultlab.Composition.trace_distribution",
        "ftnilab.faultlab",
        "Composition.trace_distribution",
    ),
    ("verify.check_strong_security", "ftnilab.verify", "check_strong_security"),
    ("verify.check_poni", "ftnilab.verify", "check_poni"),
    ("verify.check_pni", "ftnilab.verify", "check_pni"),
    ("verify.check_timing_balance", "ftnilab.verify", "check_timing_balance"),
    ("verify.replay_ss_witness", "ftnilab.verify", "replay_ss_witness"),
    ("verify.replay_poni_witness", "ftnilab.verify", "replay_poni_witness"),
    ("verify.replay_pni_witness", "ftnilab.verify", "replay_pni_witness"),
    ("cli.main", "ftnilab.cli", "main"),
)

# Ratios of cache misses to lookups: (ratio name, cache layer, miss layer).
# A miss is counted as a call of the miss layer made directly under the cache.
HIT_RATIOS = (
    ("machine.RiscSystem.step.hit_ratio", "machine.RiscSystem.step", "machine.step"),
    ("faultlab.Composition.step.hit_ratio", "faultlab.Composition.step", "faultlab.compose_step"),
)

# Spans past this many are timed and counted but not stored: a fault-layer
# pass makes millions of machine steps, and the store must stay small.
MAX_STORED_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name, _, _ in LAYERS}
        self.self_s = {name: 0.0 for name, _, _ in LAYERS}
        self.nested: dict[tuple[str, str], int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        nested = self.nested
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            if stack:
                parent = stack[-1]
                key = (parent[0], name)
                nested[key] = nested.get(key, 0) + 1
                parent_id = parent[3]
            else:
                parent_id = -1
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if len(spans) < MAX_STORED_SPANS:
                    spans.append((span_id, name, start, end, parent_id, self.op_id))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every layer in place, including aliases held by other ftnilab modules."""
        modules = [m for key, m in sorted(sys.modules.items()) if key.startswith("ftnilab")]
        for name, module_name, path in LAYERS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            self._patch(owner, attr, wrapper)
            if outer:
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    def hit_ratios(self) -> dict[str, float]:
        out = {}
        for ratio, cache, miss in HIT_RATIOS:
            lookups = self.calls[cache]
            misses = self.nested.get((cache, miss), 0)
            out[ratio] = 1.0 - misses / lookups if lookups else 0.0
        return out

    def write_spans(self, path: Path, op_labels: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(["# stored", len(self.spans), "dropped", self.dropped])
            out.writerow(["span", "name", "start", "end", "parent", "op", "op_label"])
            for span_id, name, start, end, parent, op in self.spans:
                label = op_labels[op] if 0 <= op < len(op_labels) else ""
                out.writerow([span_id, name, f"{start:.9f}", f"{end:.9f}", parent, op, label])

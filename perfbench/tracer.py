"""Spans around wattsplit's public functions, recorded from outside the toolkit.

`Tracer.install` rebinds each timed function, in every wattsplit module
that holds it, to a wrapper that records a span (name, start, end, parent)
in memory.  A layer's self time is its span durations minus the time its
child spans cover.  Nothing inside the toolkit changes.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter

#: Timed functions by module; metric names are "<module>.<function>".
TIMED = {
    "layers": ["conv1d_forward_batch", "conv1d_backward_batch", "maxpool1d_forward_batch",
               "maxpool1d_backward_batch", "bilstm_forward_batch", "bilstm_backward_batch",
               "dropout_forward", "dropout_backward", "attention_forward_batch",
               "attention_backward_batch", "dense_forward_batch", "dense_backward_batch"],
    "rng": ["keep_mask", "permutation"],            # methods of SeededRng
    "model": ["model_forward_batch", "model_backward_batch", "adam_step",
              "predict_batches", "fit"],
    "data": ["read_scene_csv", "normalize", "make_windows", "parse_channel",
             "resample_uniform", "downsample", "write_scene_csv", "load_redd_house"],
    "metrics": ["evaluate_appliance", "write_plot_csv"],
    "checkpoint": ["checkpoint_save", "checkpoint_load"],
}
COMMAND = "cli.main"


def rebind(old, new) -> None:
    """Point every wattsplit module attribute that is `old` at `new`."""
    for name, module in list(sys.modules.items()):
        if name == "wattsplit" or name.startswith("wattsplit."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def on_first_call(module, name: str, record: list):
    """Append the clock to `record` when module.name is next called.

    The wrapper removes itself on that call, so later calls cost nothing.
    Returns a function that removes it if it was never called.
    """
    original = getattr(module, name)

    def first(*args, **kwargs):
        record.append(perf_counter())
        rebind(first, original)
        return original(*args, **kwargs)

    rebind(original, first)
    return lambda: rebind(first, original)


def _lines_parsed(args, kwargs):
    """parse_channel keeps one sample per non-empty line except the duplicate
    timestamps it drops, which it counts in the stats it is given."""
    stats = kwargs.get("stats", args[1] if len(args) > 1 else None)
    before = stats.duplicate_timestamps if stats is not None else 0

    def lines(series):
        dropped = stats.duplicate_timestamps - before if stats is not None else 0
        return len(series) + dropped
    return lines


def _windows(args, kwargs):
    return lambda _: len(args[0])


COUNTED = {"data.parse_channel": ("data.parse_channel.lines", _lines_parsed),
           "model.predict_batches": ("model.predict_batches.windows", _windows)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._bound: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, opened, counts = self.spans, self._open, self.counts
        counted = COUNTED.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, opened[-1] if opened else -1]
            opened.append(len(spans))
            spans.append(rec)
            finish = counted[1](args, kwargs) if counted else None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                opened.pop()
            if finish is not None:
                counts[counted[0]] += finish(result)
            return result
        return traced

    def _count_draws(self, fn):
        """SeededRng.next_u64, counting the 64-bit words keep_mask draws."""
        spans, opened, counts = self.spans, self._open, self.counts

        def next_u64(rng, n):
            if opened and spans[opened[-1]][0] == "rng.keep_mask":
                counts["rng.keep_mask.draws"] += int(n)
            return fn(rng, n)
        return next_u64

    def install(self) -> None:
        import importlib
        for module_name, functions in TIMED.items():
            module = importlib.import_module(f"wattsplit.{module_name}")
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                if module_name == "rng":
                    owner = module.SeededRng
                    original = getattr(owner, fn_name)
                    setattr(owner, fn_name, self.wrap(name, original))
                    self._bound.append((owner, fn_name, original))
                else:
                    original = getattr(module, fn_name)
                    wrapped = self.wrap(name, original)
                    rebind(original, wrapped)
                    self._bound.append((None, wrapped, original))
        owner = importlib.import_module("wattsplit.rng").SeededRng
        self._bound.append((owner, "next_u64", owner.next_u64))
        owner.next_u64 = self._count_draws(owner.next_u64)

    def remove(self) -> None:
        for owner, what, original in reversed(self._bound):
            if owner is None:
                rebind(what, original)
            else:
                setattr(owner, what, original)
        self._bound.clear()

    # -----------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def train_steps_ms(self) -> list[float]:
        """Forward start to Adam end of each training step inside fit."""
        steps, start = [], None
        for name, t0, t1, parent in self.spans:
            if parent < 0 or self.spans[parent][0] != "model.fit":
                continue
            if name == "model.model_forward_batch":
                start = t0
            elif name == "model.adam_step" and start is not None:
                steps.append(1000.0 * (t1 - start))
                start = None
        return steps

    def metrics(self, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit); 0 where not called."""
        self_s = self.self_times()
        calls = Counter(name for name, *_ in self.spans)
        out = {}
        for module_name, functions in TIMED.items():
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                out[f"{name}.s"] = (self_s[name], "s")
                out[f"{name}.calls"] = (calls[name], "count")
        out["rng.keep_mask.draws"] = (self.counts["rng.keep_mask.draws"], "count")
        out["data.parse_channel.lines"] = (self.counts["data.parse_channel.lines"], "count")
        steps = self.train_steps_ms()
        out["model.train_step_ms"] = (statistics.median(steps) if steps else 0.0, "ms")
        windows = self.counts["model.predict_batches.windows"]
        predict_s = sum(t1 - t0 for name, t0, t1, _ in self.spans
                        if name == "model.predict_batches")
        out["model.infer_ms_per_window"] = (1000.0 * predict_s / windows if windows else 0.0, "ms")
        out["cli.rest.s"] = (self_s[COMMAND], "s")
        traced_wall = sum(t1 - t0 for name, t0, t1, _ in self.spans if name == COMMAND)
        out["trace.overhead_s"] = (traced_wall - untraced_wall_s, "s")
        return out

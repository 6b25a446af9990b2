"""Outside-in tracing: step boundaries and per-layer spans.

The tracer wraps gsdd's public functions at the module attributes the
package calls them through, so no program code changes. Spans (name, start,
end, parent step id, parent span) stay in memory until the run ends.

Step boundaries are always recorded, traced or not: a measured step ends
when ``optimize.adam_step`` returns, and starts where the previous step (or
the enclosing ``fit_images`` call, for the first step) left off. In a
traced run every second measured step is left untraced, so the same run
gives the untraced step time that ``trace.overhead_frac`` divides by.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, span name). The fit loop's boundary term goes through
# ``_boundary_per_image``; both forms are one layer metric. A missing
# attribute is reported and skipped.
LAYER_HOOKS = [
    ("gsdd.data_io", "load_cifar_binary", "data_io.load_cifar_binary"),
    ("gsdd.data_io", "load_gsd", "data_io.load_gsd"),
    ("gsdd.data_io", "save_gsd", "data_io.save_gsd"),
    ("gsdd.data_io", "export_image", "data_io.export_image"),
    ("gsdd.optimize", "distill_dm", "optimize.distill_dm"),
    ("gsdd.cli", "render_batched", "raster.render_batched"),
    ("gsdd.optimize", "render_batched", "raster.render_batched"),
    ("gsdd.raster", "build_intersection_records",
     "raster.build_intersection_records"),
    ("gsdd.gradients", "build_intersection_records",
     "raster.build_intersection_records"),
    ("gsdd.optimize", "render_backward", "gradients.render_backward"),
    ("gsdd.optimize", "dm_loss_grad", "optimize.dm_loss_grad"),
    ("gsdd.optimize", "boundary_loss", "optimize.boundary_loss"),
    ("gsdd.optimize", "_boundary_per_image", "optimize.boundary_loss"),
]
STEP_HOOKS = [
    ("gsdd.optimize", "fit_images", "optimize.fit_images"),
    ("gsdd.optimize", "adam_step", "optimize.adam_step"),
]
# functions timed per call inside traced steps
STEP_LAYERS = ("raster.render_batched", "raster.build_intersection_records",
               "gradients.render_backward", "optimize.dm_loss_grad",
               "optimize.adam_step", "optimize.boundary_loss")
# functions timed per call wherever they run
IO_LAYERS = ("data_io.load_cifar_binary", "data_io.save_gsd",
             "data_io.load_gsd", "data_io.export_image")
READS = {"data_io.load_cifar_binary": "paths", "data_io.load_gsd": "path"}
WRITES = {"data_io.save_gsd": "path", "data_io.export_image": "path"}

NAME, START, END, STEP, PARENT = range(5)


def _file_bytes(paths) -> int:
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    return sum(os.path.getsize(p) for p in paths)


class Tracer:
    """Records steps always and layer spans when ``trace`` is on.

    ``loop`` is the workload's: ``"fit"`` (steps inside ``fit_images``),
    ``"outer"`` (steps outside it) or ``None`` (one operation is one step).
    """

    def __init__(self, loop: str | None, steps_per_op: int,
                 trace: bool) -> None:
        self.loop = loop
        self.steps_per_op = steps_per_op
        self.trace = trace
        self.spans: list[list] = []
        self.steps: list[dict] = []
        self.calls: list[Counter] = []   # per operation, counted always
        self.captures: list[tuple] = []  # forward inputs, first operation
        self.live = [0, 0]               # Gaussians with nonzero gradient
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._op = -1
        self._fit_depth = 0
        self._in_step = False
        self._step_traced = False
        self._k = 0
        self._boundary = 0.0

    # ---- installation -------------------------------------------------
    def install(self) -> None:
        hooks = STEP_HOOKS + (LAYER_HOOKS if self.trace else [])
        for module_name, attr, name in hooks:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"perfbench: {module_name}.{attr} not found; "
                      f"{name} is not traced", file=sys.stderr)
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        before = {"optimize.fit_images": self._fit_enter}.get(name)
        after = {"optimize.fit_images": self._fit_exit,
                 "optimize.adam_step": self._adam_exit}.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.calls:
                tracer.calls[-1][name] += 1
            idx = tracer._open(name) if tracer.active else None
            if before is not None:
                before()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if idx is not None:
                    tracer._close(idx, end)
            if idx is not None or name in READS or name in WRITES:
                tracer._observe(name, signature.bind(*args, **kwargs),
                                result, idx is not None)
            if after is not None:
                after(end)
            return result

        return wrapper

    # ---- spans ----------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        step = len(self.steps) if self._in_step else None
        self.spans.append([name, time.perf_counter(), 0.0, step, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int, end: float) -> None:
        self._stack.pop()
        self.spans[idx][END] = end

    def _observe(self, name: str, bound, result, traced: bool) -> None:
        """Counts read off a call's arguments and result, first op only."""
        if self._op != 0:
            return
        args = bound.arguments
        if name in READS:
            self.calls[0]["data_io.bytes_read"] += _file_bytes(args[READS[name]])
        elif name in WRITES:
            self.calls[0]["data_io.bytes_written"] += \
                _file_bytes(args[WRITES[name]])
        elif not (traced and self._in_step):
            return
        elif name == "raster.render_batched":
            self.captures.append((args["dset"].copy(), args["cfg"]))
        elif name == "gradients.render_backward":
            grads = result.per_gaussian()
            self.live[0] += int(np.count_nonzero(np.any(grads != 0.0, axis=1)))
            self.live[1] += grads.shape[0]

    # ---- operations and steps ---------------------------------------------
    def run_op(self, op: int, fn, *args):
        """Run one operation; with ``loop is None`` it is also one step."""
        self._op = op
        self.calls.append(Counter())
        self._fit_depth = 0
        self._k = 0
        if self.loop is None:
            self._begin_step(self.trace and op % 2 == 0)
        else:
            self._in_step = False
            self.active = self.trace
        start = time.perf_counter()
        idx = self._open("cli.dispatch") if self.active else None
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            if idx is not None:
                self._close(idx, end)
            if self.loop is None:
                self._end_step(start, end)
            self._in_step = False
            self.active = False
        return result, end - start

    def _begin_step(self, traced: bool) -> None:
        self._in_step = True
        self._step_traced = traced
        self.active = traced

    def _end_step(self, start: float, end: float) -> None:
        self.steps.append({"op": self._op, "index": self._k, "start": start,
                           "end": end, "traced": self._step_traced})
        self._k += 1

    def _fit_enter(self) -> None:
        self._fit_depth += 1
        self._boundary = time.perf_counter()
        if self.loop == "fit":
            self._begin_step(self.trace)

    def _fit_exit(self, end: float) -> None:
        self._fit_depth -= 1
        self._boundary = end
        if self.loop == "outer":
            self._begin_step(self.trace)
        elif self.loop == "fit":
            self._in_step = False
            self.active = self.trace

    def _adam_exit(self, end: float) -> None:
        measured = (self._fit_depth > 0) == (self.loop == "fit")
        if self.loop is not None and measured:
            self._end_step(self._boundary, end)
            if self._k < self.steps_per_op:
                self._begin_step(self.trace and self._k % 2 == 0)
            else:
                self._in_step = False
                self.active = self.trace
        self._boundary = end

    # ---- results ------------------------------------------------------------
    def step_times(self, traced: bool) -> list[float]:
        return [s["end"] - s["start"] for s in self.steps
                if s["traced"] == traced]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times and call counts from the recorded spans."""
        traced_steps = {i for i, s in enumerate(self.steps) if s["traced"]}
        by_name: dict[str, list[float]] = {}
        in_step: dict[str, list[float]] = {}
        children: dict[int, float] = {}
        for span in self.spans:
            duration = span[END] - span[START]
            by_name.setdefault(span[NAME], []).append(duration)
            if span[STEP] in traced_steps:
                in_step.setdefault(span[NAME], []).append(duration)
            if span[PARENT] is not None:
                children[span[PARENT]] = children.get(span[PARENT], 0.0) \
                    + duration

        def median(values) -> float:
            return statistics.median(values) if values else 0.0

        out = {}
        for name in STEP_LAYERS:
            out[f"{name}.s"] = median(in_step.get(name, []))
        for name in IO_LAYERS:
            out[f"{name}.s"] = median(by_name.get(name, []))

        dispatch_self = [s[END] - s[START] - children.get(i, 0.0)
                         for i, s in enumerate(self.spans)
                         if s[NAME] == "cli.dispatch"]
        out["cli.dispatch.self_s"] = median(dispatch_self)
        out["optimize.init_fit.s"] = median([
            s[END] - s[START] for s in self.spans
            if s[NAME] == "optimize.fit_images" and s[PARENT] is not None
            and self.spans[s[PARENT]][NAME] == "optimize.distill_dm"])

        # step self time: step wall time minus the wrapped calls made
        # directly inside it (a span whose parent began outside the step)
        step_self = []
        if self.loop is not None:
            covered = {i: 0.0 for i in traced_steps}
            for span in self.spans:
                parent = span[PARENT]
                if span[STEP] in covered and (
                        parent is None
                        or self.spans[parent][STEP] != span[STEP]):
                    covered[span[STEP]] += span[END] - span[START]
            step_self = [self.steps[i]["end"] - self.steps[i]["start"]
                         - covered[i] for i in sorted(covered)]
        out["optimize.step.self_s"] = median(step_self)

        first = self.calls[0] if self.calls else Counter()
        out["raster.render_batched.calls"] = first["raster.render_batched"]
        out["gradients.render_backward.calls"] = \
            first["gradients.render_backward"]
        out["data_io.bytes_read"] = first["data_io.bytes_read"]
        out["data_io.bytes_written"] = first["data_io.bytes_written"]
        binning = sum(1 for s in self.spans
                      if s[NAME] == "raster.build_intersection_records"
                      and s[STEP] in traced_steps)
        out["raster.build_intersection_records.calls_per_step"] = \
            binning / len(traced_steps) if traced_steps else 0.0
        out["gradients.live_gaussian_frac"] = \
            self.live[0] / self.live[1] if self.live[1] else 0.0
        untraced = self.step_times(False)
        traced = self.step_times(True)
        out["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced and untraced else 0.0)
        return out

    def dump(self) -> dict:
        return {"steps": self.steps,
                "spans": [dict(zip(("name", "start", "end", "step", "parent"),
                                   s)) for s in self.spans]}

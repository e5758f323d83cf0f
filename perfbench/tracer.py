"""Per-layer spans around the package's entry points, installed from outside.

Tracer.install() replaces each traced function with a timing wrapper in every
gacfas module that binds it (``from .optim import take_step`` binds it in
harness too), so the program's own code is untouched. Spans are aggregated
as they close, on a stack: a span's self time is its duration minus the
spans it encloses. A category's time counts only its outermost spans, so a
nested call (write_outputs -> _atomic_write) is not counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function, category)
TRACED = (
    ("cli", "main", "cli"),
    ("harness", "load_config", "harness.load_config"),
    ("harness", "run_training", "harness.loop"),
    ("harness", "run_convergence", "harness.loop"),
    ("harness", "run_leave_one_out", "harness.loop"),
    ("harness", "_evaluate", "harness.evaluate"),
    ("harness", "fullset_step_diagnostics", "harness.fullset_diag"),
    ("harness", "write_outputs", "harness.write"),
    ("harness", "_atomic_write", "harness.write"),
    ("datagen", "leave_one_out", "datagen.realize"),
    ("datagen", "sample_minibatch", "datagen.sample"),
    ("optim", "take_step", "optim.step"),
    ("model", "mean_loss_and_grad", "model.grad"),
    ("model", "mean_loss", "model.loss"),
    ("model", "forward", "model.forward"),
    ("diagnostics", "surrogate_gap", "diagnostics.surrogate_gap"),
    ("diagnostics", "convergence_trace", "diagnostics.convergence_trace"),
    ("evalmetrics", "hter_at_eer", "evalmetrics"),
    ("evalmetrics", "roc_auc", "evalmetrics"),
    ("evalmetrics", "tpr_at_fpr", "evalmetrics"),
    ("numerics", "axpy", "numerics"),
    ("numerics", "dot", "numerics"),
    ("numerics", "l2_norm", "numerics"),
)

# model calls on at most this many rows are minibatch parts (32 rows in the
# workloads); larger ones are whole domains (2,000 rows).
SMALL_ROWS = 512

PER_LAYER = (
    ("cli.self_ms", "ms", "lower"),
    ("harness.load_config_ms", "ms", "lower"),
    ("harness.loop_self_ms", "ms", "lower"),
    ("harness.fullset_diag_calls", "count", "lower"),
    ("harness.fullset_diag_ms", "ms", "lower"),
    ("harness.evaluate_ms", "ms", "lower"),
    ("harness.eval_model_rows", "rows", "lower"),
    ("harness.write_calls", "count", "lower"),
    ("harness.write_ms", "ms", "lower"),
    ("harness.bytes_written", "bytes", "lower"),
    ("datagen.realize_calls", "count", "lower"),
    ("datagen.realize_ms", "ms", "lower"),
    ("datagen.sample_ms", "ms", "lower"),
    ("optim.steps", "count", "higher"),
    ("optim.step_ms", "ms", "lower"),
    ("optim.step_self_ms", "ms", "lower"),
    ("optim.model_calls_per_step", "calls/step", "lower"),
    ("model.grad_calls", "count", "lower"),
    ("model.grad_rows", "rows", "lower"),
    ("model.grad_small_us", "us", "lower"),
    ("model.grad_large_us", "us", "lower"),
    ("model.loss_calls", "count", "lower"),
    ("model.loss_ms", "ms", "lower"),
    ("model.forward_calls", "count", "lower"),
    ("model.forward_ms", "ms", "lower"),
    ("diagnostics.surrogate_gap_calls", "count", "lower"),
    ("diagnostics.surrogate_gap_ms", "ms", "lower"),
    ("diagnostics.convergence_trace_ms", "ms", "lower"),
    ("evalmetrics.calls", "count", "lower"),
    ("evalmetrics.ms", "ms", "lower"),
    ("numerics.calls", "count", "lower"),
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)  # outermost spans of the category
        self.self_seconds = defaultdict(float)
        self.counts = Counter()
        self._open = Counter()  # open spans per category
        self._stack = []  # enclosed seconds of each open span

    def _wrap(self, category, fn):
        clock = time.perf_counter
        stack, open_spans = self._stack, self._open
        is_model = category.startswith("model.")
        is_file_write = fn.__name__ == "_atomic_write"

        def traced(*args, **kwargs):
            # l2_norm calls dot: count a numerics call once, at its outermost span.
            if category == "numerics" and open_spans["numerics"]:
                return fn(*args, **kwargs)
            outermost = not open_spans[category]
            open_spans[category] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                enclosed = stack.pop()
                open_spans[category] -= 1
                if stack:
                    stack[-1] += elapsed
                self.calls[category] += 1
                self.self_seconds[category] += elapsed - enclosed
                if outermost:
                    self.seconds[category] += elapsed
                if is_model:
                    self._count_model_call(category, len(args[2]), elapsed)
                elif is_file_write:
                    data = args[1]
                    self.counts["write_files"] += 1
                    self.counts["write_bytes"] += len(data.encode("utf-8") if isinstance(data, str) else data)

        return traced

    def _count_model_call(self, category, rows, elapsed):
        counts = self.counts
        counts[category + ".rows"] += rows
        if category == "model.grad":
            size = "small" if rows <= SMALL_ROWS else "large"
            counts["grad_" + size] += 1
            self.seconds["grad_" + size] += elapsed
        if self._open["optim.step"]:
            counts["step_model_calls"] += 1
        if self._open["harness.evaluate"]:
            counts["eval_model_rows"] += rows

    def install(self):
        """Wrap every TRACED function wherever a gacfas module binds it."""
        modules = [m for name, m in list(sys.modules.items()) if name == "gacfas" or name.startswith("gacfas.")]
        for module_name, attr, category in TRACED:
            original = getattr(sys.modules["gacfas." + module_name], attr)
            wrapper = self._wrap(category, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def metrics(self) -> dict:
        ms = {c: s * 1e3 for c, s in self.seconds.items()}
        calls, counts = self.calls, self.counts

        def per(total, n):
            return total / n if n else 0.0

        return {
            "cli.self_ms": self.self_seconds["cli"] * 1e3,
            "harness.load_config_ms": ms.get("harness.load_config", 0.0),
            "harness.loop_self_ms": self.self_seconds["harness.loop"] * 1e3,
            "harness.fullset_diag_calls": calls["harness.fullset_diag"],
            "harness.fullset_diag_ms": ms.get("harness.fullset_diag", 0.0),
            "harness.evaluate_ms": ms.get("harness.evaluate", 0.0),
            "harness.eval_model_rows": per(counts["eval_model_rows"], calls["harness.evaluate"]),
            "harness.write_calls": counts["write_files"],
            "harness.write_ms": ms.get("harness.write", 0.0),
            "harness.bytes_written": counts["write_bytes"],
            "datagen.realize_calls": calls["datagen.realize"],
            "datagen.realize_ms": ms.get("datagen.realize", 0.0),
            "datagen.sample_ms": ms.get("datagen.sample", 0.0),
            "optim.steps": calls["optim.step"],
            "optim.step_ms": ms.get("optim.step", 0.0),
            "optim.step_self_ms": self.self_seconds["optim.step"] * 1e3,
            "optim.model_calls_per_step": per(counts["step_model_calls"], calls["optim.step"]),
            "model.grad_calls": calls["model.grad"],
            "model.grad_rows": counts["model.grad.rows"],
            "model.grad_small_us": per(ms.get("grad_small", 0.0) * 1e3, counts["grad_small"]),
            "model.grad_large_us": per(ms.get("grad_large", 0.0) * 1e3, counts["grad_large"]),
            "model.loss_calls": calls["model.loss"],
            "model.loss_ms": ms.get("model.loss", 0.0),
            "model.forward_calls": calls["model.forward"],
            "model.forward_ms": ms.get("model.forward", 0.0),
            "diagnostics.surrogate_gap_calls": calls["diagnostics.surrogate_gap"],
            "diagnostics.surrogate_gap_ms": ms.get("diagnostics.surrogate_gap", 0.0),
            "diagnostics.convergence_trace_ms": ms.get("diagnostics.convergence_trace", 0.0),
            "evalmetrics.calls": calls["evalmetrics"],
            "evalmetrics.ms": ms.get("evalmetrics", 0.0),
            "numerics.calls": calls["numerics"],
        }

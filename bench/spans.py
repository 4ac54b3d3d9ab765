"""Spans around calls into critnorm's public functions, installed from outside.

``Tracer.install`` replaces each traced function, under every name a loaded
``critnorm`` module binds it to (and on its class, for methods), with a
wrapper that records a span: layer name, start, end, parent span and, for
some layers, a number taken from the result.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

# layer -> functions, as attribute paths from the critnorm package
LAYERS = {
    "cli": ("cli.main",),
    "harness.run": ("run_verify", "run_sharpness", "run_bilinear_law",
                    "run_base_hl", "run_inclusion_instance"),
    "harness.report": ("ExperimentReport.write", "ExperimentReport.to_json",
                       "ExperimentReport.to_csv"),
    "witnesses.make": ("FormFactory.make",),
    "exponents": ("critical_exponents", "inclusion_exponents",
                  "inequality_constant", "bilinear_admissibility"),
    "tensor.mixed_norm": ("mixed_norm",),
    "tensor.weak_norm": ("weak_norm",),
    "opnorm.ascent_norm": ("ascent_norm",),
    "opnorm.dual_argmax": ("dual_argmax",),
    "opnorm.spectral_norm": ("spectral_norm",),
}

# path -> what a span keeps from the call's result
_NOTES = {
    "ascent_norm": lambda est: (est.iterations, est.converged),
    "ExperimentReport.to_json": lambda text: len(text.encode("utf-8")),
    "ExperimentReport.to_csv": lambda text: len(text.encode("utf-8")),
}

# span fields
NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for layer, paths in LAYERS.items():
            for path in paths:
                owner_path, _, attr = path.rpartition(".")
                owner = _resolve(package, owner_path) if owner_path else None
                original = getattr(owner if owner is not None else package, attr)
                wrapper = self._wrap(layer, original, _NOTES.get(path))
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return wrapper


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def layer_metrics(spans) -> tuple:
    """Per-layer metrics of one traced pass, and the call count of each layer.

    A layer's busy time counts only spans with no ancestor of the same
    layer, so nested calls are not counted twice; self time is a span's
    duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    sweeps = unconverged = report_bytes = 0
    for i, s in enumerate(spans):
        layer, duration = s[NAME], s[END] - s[START]
        calls[layer] += 1
        self_time[layer] += duration - child_time[i]
        if not _nested_in_same_layer(spans, i):
            busy[layer] += duration
        if layer == "opnorm.ascent_norm" and s[NOTE] is not None:
            sweeps += s[NOTE][0]
            unconverged += not s[NOTE][1]
        elif layer == "harness.report" and s[NOTE] is not None:
            report_bytes += s[NOTE]
    ascent_busy = busy["opnorm.ascent_norm"]
    dual_calls = calls["opnorm.dual_argmax"]
    return {
        "opnorm.ascent_norm.calls": calls["opnorm.ascent_norm"],
        "opnorm.ascent_norm.busy_s": ascent_busy,
        "opnorm.ascent_norm.self_s": self_time["opnorm.ascent_norm"],
        "opnorm.ascent_norm.sweeps": sweeps,
        "opnorm.ascent_norm.ms_per_sweep": 1e3 * ascent_busy / sweeps if sweeps else 0.0,
        "opnorm.ascent_norm.unconverged": unconverged,
        "opnorm.dual_argmax.calls": dual_calls,
        "opnorm.dual_argmax.busy_s": busy["opnorm.dual_argmax"],
        "opnorm.dual_argmax.us_per_call":
            1e6 * busy["opnorm.dual_argmax"] / dual_calls if dual_calls else 0.0,
        "opnorm.spectral_norm.calls": calls["opnorm.spectral_norm"],
        "opnorm.spectral_norm.busy_s": busy["opnorm.spectral_norm"],
        "tensor.mixed_norm.calls": calls["tensor.mixed_norm"],
        "tensor.mixed_norm.busy_s": busy["tensor.mixed_norm"],
        "tensor.weak_norm.calls": calls["tensor.weak_norm"],
        "tensor.weak_norm.busy_s": busy["tensor.weak_norm"],
        "witnesses.make.calls": calls["witnesses.make"],
        "witnesses.make.busy_s": busy["witnesses.make"],
        "harness.report.busy_s": busy["harness.report"],
        "harness.report.bytes": report_bytes,
        "harness.run.self_s": self_time["harness.run"],
        "exponents.busy_s": busy["exponents"],
        "cli.self_s": self_time["cli"],
    }, calls


def _nested_in_same_layer(spans, i) -> bool:
    layer, parent = spans[i][NAME], spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == layer:
            return True
        parent = spans[parent][PARENT]
    return False


def median_metrics(passes) -> dict:
    """Median of each metric over several traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}

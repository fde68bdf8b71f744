"""Spans around calls into aucal's modules, installed from outside.

The tracer replaces module and class attributes with timing wrappers for
the duration of one traced pass and puts the originals back afterwards, so
untraced passes run the library exactly as shipped. It wraps the binding a
caller resolves at call time: ``aucal.cli.load_dataset`` for the CLI, since
``cli`` imports that name, and ``aucal.data.load_dataset`` for the
benchmark's own set-up call.

A span is (name, start, end, parent, op). Spans stay in memory until the
run ends. Counters computed from a call's arguments or result are taken
after the span closes, inside a ``bookkeeping`` span, so that they are
charged to neither the call nor its parent's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

BOOKKEEPING = "bookkeeping"
DATASET_ACCESSORS = ("labels", "feature_matrix", "group_values", "intensities",
                     "cell_keys", "split_part", "with_labels", "subset")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    error: bool = False


def _file_bytes(path) -> int:
    return os.stat(path).st_size


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_load(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"data.load_dataset.rows": len(result.dataset),
            "data.load_dataset.bytes": _file_bytes(path)}


def _count_save(args, kwargs, result):
    return {"data.save_dataset.bytes": _file_bytes(_arg(args, kwargs, 1, "path"))}


def _count_audit(args, kwargs, result):
    return {"audit.cells": len(result.cells),
            "audit.cells_tested": sum(c.status == "tested" for c in result.cells)}


def _count_logistic(args, kwargs, result):
    return {"audit.logistic_fit.iterations": result.iterations}


def _count_relabel(args, kwargs, result):
    log = result[1]
    return {"relabel.flips": len(log), "relabel.deficits": len(log.deficits)}


def _count_mined(args, kwargs, result):
    return {"aucfer.triplets_mined": len(result)}


def _count_active(args, kwargs, result):
    # the hinge is recomputed here because triplet_loss does not return it
    emb = np.asarray(_arg(args, kwargs, 0, "embeddings"), dtype=float)
    t = _arg(args, kwargs, 1, "triplets").triples
    margin = _arg(args, kwargs, 2, "margin")
    if t.size == 0:
        return {"aucfer.triplets_active": 0}
    a, p, n = emb[t[:, 0]], emb[t[:, 1]], emb[t[:, 2]]
    hinge = ((a - p) ** 2).sum(axis=1) - ((a - n) ** 2).sum(axis=1) + margin
    return {"aucfer.triplets_active": int((hinge > 0).sum())}


def _count_predict(args, kwargs, result):
    return {"aucfer.predict.rows": len(result[0])}


def _count_fair_test(args, kwargs, result):
    return {"metrics.fair_test.rows": len(result)}


def _count_emit(args, kwargs, result):
    return {"report.emit_json.bytes": _file_bytes(_arg(args, kwargs, 1, "path"))}


def _count_digest(args, kwargs, result):
    return {"report.file_digest.bytes": _file_bytes(_arg(args, kwargs, 0, "path"))}


# span name -> (bindings as "module:attribute" or "module:Class.method",
#               counter hook or None)
TIMED = {
    "data.load_dataset": (("aucal.cli:load_dataset", "aucal.data:load_dataset"),
                          _count_load),
    "data.binarize": (("aucal.cli:binarize", "aucal.data:binarize"), None),
    "data.save_dataset": (("aucal.cli:save_dataset",), _count_save),
    "data.accessors": (tuple(f"aucal.data:Dataset.{m}" for m in DATASET_ACCESSORS),
                       None),
    "synth.generate": (("aucal.cli:generate",), None),
    "synth.with_fair_test_labels": (("aucal.cli:with_fair_test_labels",), None),
    "calibrate.calibrate_per_group": (("aucal.cli:calibrate_per_group",), None),
    "audit.conditional_bias_report": (("aucal.cli:conditional_bias_report",),
                                      _count_audit),
    "audit.logistic_fit": (("aucal.audit:logistic_fit",), _count_logistic),
    "stats.chi_square_independence": (("aucal.audit:chi_square_independence",),
                                      None),
    "relabel.relabel_to_parity": (("aucal.cli:relabel_to_parity",), _count_relabel),
    "aucfer.train": (("aucal.cli:train", "aucal.aucfer:train"), None),
    "aucfer.stratified_order": (("aucal.aucfer:stratified_order",), None),
    "aucfer.total_loss": (("aucal.aucfer:total_loss",), None),
    "aucfer.forward": (("aucal.aucfer:forward",), None),
    "aucfer.cross_entropy": (("aucal.aucfer:cross_entropy",), None),
    "aucfer.mine_triplets": (("aucal.aucfer:mine_triplets",), _count_mined),
    "aucfer.triplet_loss": (("aucal.aucfer:triplet_loss",), _count_active),
    "aucfer.predict": (("aucal.cli:predict",), _count_predict),
    "rng.generator": (("aucal.rng:Rng.generator",), None),
    "metrics.build_fair_test_set": (("aucal.cli:build_fair_test_set",),
                                    _count_fair_test),
    "metrics.evaluate": (("aucal.cli:evaluate",), None),
    "report.emit_json": (("aucal.cli:emit_json",), _count_emit),
    "report.file_digest": (("aucal.report:file_digest",), _count_digest),
    "report.canonical_json": (("aucal.cli:canonical_json",), None),
}

# functions whose extra peak heap is measured in the tracemalloc pass
MEMORY = ("data.load_dataset", "data.save_dataset", "relabel.relabel_to_parity",
          "aucfer.train")


def _resolve(binding: str):
    """(owner object, attribute name) for a binding, or None if the
    module, class or attribute no longer exists."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Collects spans, counters and memory peaks for the passes it traces."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: list[tuple[str, str, float]] = []  # (op, name, value)
        self.peaks: dict[str, float] = {}
        self.missing: set[str] = set()  # span names gone or uncountable
        self._stack: list[int] = []
        self.op = ""

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else None, self.op))
        self._stack.append(index)
        try:
            yield
        except BaseException:
            self.spans[index].error = True
            raise
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _timed(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None and name not in self.missing:
                with self.span(BOOKKEEPING):
                    try:
                        counted = hook(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError,
                            ValueError, OSError):
                        # the function's signature or result has changed
                        self.missing.add(name)
                        counted = {}
                    for key, value in counted.items():
                        self.counters.append((self.op, key, value))
            return result
        return wrapper

    def _peak(self, name, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                extra = tracemalloc.get_traced_memory()[1] - base
                self.peaks[name] = max(self.peaks.get(name, 0.0), extra / 2**20)
        return wrapper

    @contextlib.contextmanager
    def _patched(self, make_wrapper, names):
        saved = []
        try:
            for name in names:
                bindings, hook = TIMED[name]
                found = [f for f in map(_resolve, bindings) if f is not None]
                if not found:
                    self.missing.add(name)
                for owner, attr in found:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, make_wrapper(name, original, hook))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def timing(self):
        """Context in which every TIMED binding records spans."""
        return self._patched(self._timed, TIMED)

    @contextlib.contextmanager
    def memory(self):
        """Context in which the MEMORY functions record their extra peak
        heap under tracemalloc; nothing is timed."""
        tracemalloc.start()
        try:
            with self._patched(lambda name, fn, _: self._peak(name, fn), MEMORY):
                yield
        finally:
            tracemalloc.stop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.
        Children run inside their parent one after another, so their
        durations add up without overlap."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def per_op(self):
        """Per operation id: summed span time, self time, call and error
        counts by span name, and summed counters."""
        totals = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            t = totals[span.op]
            t[f"{span.name}.s"] += span.end - span.start
            t[f"{span.name}.self_s"] += own
            t[f"{span.name}.calls"] += 1
            t[f"{span.name}.errors"] += span.error
        for op, key, value in self.counters:
            totals[op][key] += value
        return totals

    def dump(self) -> list[dict]:
        return [s.__dict__ for s in self.spans]

"""Per-layer metrics of a traced run. Layers are aucal's modules; a metric
is named ``<module>.<function>.<quantity>``.

Every value is per pass (summed over the pass's spans or counters), as the
median over the passes that called the function; the traced set-up counts
as a pass. ``.s`` is the summed span time, ``.self_s`` that time minus the
time of direct child spans, and ``.errors`` the calls that raised, summed
over the whole run. Each value carries the number of samples it rests on:
the passes that called the function; for a ``.peak_mb``, 1 if the one
tracemalloc pass called it; for an ``.errors`` count, every traced pass,
set-up included. A function that no longer exists is reported as 0 and
listed as missing.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import MEMORY, TIMED, Tracer

# metric -> the span or spans whose calls produce it. Units and directions
# are in BENCHMARK.json's per_layer list.
SOURCES = {
    "cli.calibrate.self_s": "cli.calibrate",
    "cli.audit.self_s": "cli.audit",
    "cli.relabel.self_s": "cli.relabel",
    "cli.demo.self_s": "cli.demo",
    "data.load_dataset.s": "data.load_dataset",
    "data.load_dataset.rows": "data.load_dataset",
    "data.load_dataset.bytes": "data.load_dataset",
    "data.binarize.s": "data.binarize",
    "data.save_dataset.s": "data.save_dataset",
    "data.save_dataset.bytes": "data.save_dataset",
    "data.accessors.s": "data.accessors",
    "data.accessors.calls": "data.accessors",
    "synth.generate.s": "synth.generate",
    "synth.with_fair_test_labels.s": "synth.with_fair_test_labels",
    "calibrate.calibrate_per_group.s": "calibrate.calibrate_per_group",
    "calibrate.calibrate_per_group.calls": "calibrate.calibrate_per_group",
    "audit.conditional_bias_report.self_s": "audit.conditional_bias_report",
    "audit.cells": "audit.conditional_bias_report",
    "audit.cells_tested": "audit.conditional_bias_report",
    "audit.logistic_fit.s": "audit.logistic_fit",
    "audit.logistic_fit.iterations": "audit.logistic_fit",
    "stats.chi_square_independence.s": "stats.chi_square_independence",
    "stats.chi_square_independence.calls": "stats.chi_square_independence",
    "relabel.relabel_to_parity.s": "relabel.relabel_to_parity",
    "relabel.flips": "relabel.relabel_to_parity",
    "relabel.deficits": "relabel.relabel_to_parity",
    "aucfer.train.self_s": "aucfer.train",
    "aucfer.stratified_order.s": "aucfer.stratified_order",
    "aucfer.total_loss.self_s": "aucfer.total_loss",
    "aucfer.forward.s": "aucfer.forward",
    "aucfer.cross_entropy.s": "aucfer.cross_entropy",
    "aucfer.mine_triplets.s": "aucfer.mine_triplets",
    "aucfer.mine_triplets.calls": "aucfer.mine_triplets",
    "aucfer.triplets_mined": "aucfer.mine_triplets",
    "aucfer.triplet_loss.s": "aucfer.triplet_loss",
    "aucfer.triplets_active": "aucfer.triplet_loss",
    "aucfer.triplet_active_fraction":
        ("aucfer.mine_triplets", "aucfer.triplet_loss"),
    "aucfer.predict.s": "aucfer.predict",
    "aucfer.predict.rows": "aucfer.predict",
    "rng.generator.calls": "rng.generator",
    "rng.generator.s": "rng.generator",
    "metrics.build_fair_test_set.s": "metrics.build_fair_test_set",
    "metrics.fair_test.rows": "metrics.build_fair_test_set",
    "metrics.evaluate.s": "metrics.evaluate",
    "report.emit_json.s": "report.emit_json",
    "report.emit_json.bytes": "report.emit_json",
    "report.file_digest.s": "report.file_digest",
    "report.file_digest.bytes": "report.file_digest",
    "report.canonical_json.s": "report.canonical_json",
}
SOURCES.update((f"{name}.peak_mb", name) for name in MEMORY)
SOURCES.update((f"{name}.errors", name) for name in TIMED)
SOURCES["trace_overhead"] = None


def _passes(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Span totals and counters summed per pass."""
    passes = defaultdict(lambda: defaultdict(float))
    for op, values in tracer.per_op().items():
        summed = passes[op.split(":")[0]]
        for key, value in values.items():
            summed[key] += value
    for summed in passes.values():
        if summed.get("aucfer.triplets_mined"):
            summed["aucfer.triplet_active_fraction"] = (
                summed["aucfer.triplets_active"] / summed["aucfer.triplets_mined"])
    return passes


def per_layer(tracer: Tracer, names, traced_cycles, untraced_cycles):
    """Each named metric's value and the number of samples it rests on,
    and the metrics that are missing."""
    passes = _passes(tracer)
    values, counts, missing = {}, {}, []
    for name in names:
        source = SOURCES[name]
        if source is None:
            values[name] = (statistics.median(traced_cycles)
                            - statistics.median(untraced_cycles))
            counts[name] = len(traced_cycles)
            continue
        sources = source if isinstance(source, tuple) else (source,)
        if tracer.missing.intersection(sources):
            missing.append(name)
        if name.endswith(".peak_mb"):
            # one tracemalloc pass, if it called the function
            values[name] = tracer.peaks.get(source, 0.0)
            counts[name] = int(source in tracer.peaks)
        elif name.endswith(".errors"):
            values[name] = sum(p.get(name, 0.0) for p in passes.values())
            counts[name] = len(passes)
        else:
            seen = [p[name] for p in passes.values() if name in p]
            values[name] = statistics.median(seen) if seen else 0.0
            counts[name] = len(seen)
    return values, counts, missing

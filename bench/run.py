"""aucal benchmark.

    python3 bench/run.py --workload audit-80k --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from anywhere; the library is imported from ``src/`` beside this
directory and from nowhere else, and the run exits with code 2, printing no
result, when it is not there. One run is one fresh process with one caller:
set-up, an untimed warm-up where the workload needs one, then passes
over the workload's operations back to back until
``--seconds`` is spent, with at least two passes so that artifact digests
can be compared. A pass starts only if the previous pass's time still fits.
The first pass's digests are also compared with those of the first earlier
run of the same workload and seed on the same source files, a different
process with its own hash seed.

The host's speed is probed before, during and after every timed sample
(``speed.py``), and the gated timings are in reference seconds: wall time
corrected for how fast the shared host ran during the sample.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` traces one set-up, alternates untraced and traced passes,
makes one tracemalloc pass, and reports the per-layer metrics.

Standard output holds a table of every metric with its unit and sample
count, then, as its last line, the JSON result. A record of the run
(environment, samples, failures, digests and, when traced, every span) is
written to ``.bench_out/<workload>-seed<seed>-trace<trace>.json``. The
metrics reported, and their units, are those BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH.parent / ".bench_out"
SPEC = BENCH.parent / "BENCHMARK.json"
# set-up samples: at least SETUP_MIN, then more while they fit in
# --seconds / SETUP_SHARE, up to SETUP_MAX
SETUP_MIN, SETUP_MAX, SETUP_SHARE = 5, 9, 5
MIN_PASSES = 2
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import aucal.cli"


def load_aucal() -> None:
    """Import aucal from this checkout's src/ and nowhere else."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import aucal.cli
    except ImportError as exc:
        print(f"error: cannot import aucal from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(aucal.cli.__file__).resolve().parent != SRC / "aucal":
        print(f"error: aucal resolved to {aucal.cli.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def summarize(samples: list[float]) -> dict:
    """Median and sample count, plus the highest of p99/p95/p90/p75 that
    has at least ten samples beyond it when the run has that many."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = ordered[-int(len(samples) * (100 - pct) / 100) - 1]
            break
    return out


def environment() -> dict:
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "cpu_model": platform.machine(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "openblas": None,
           "blas_threads": _blas_threads(), "loadavg_before": os.getloadavg()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    if blas:
        env["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    return env


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def timed_setups(workload, budget: float) -> list:
    """Each sample (a speed.Sample): a fresh interpreter importing aucal
    (process start to imports done), then this process making the
    workload's inputs. The last sample's inputs are the ones measured."""
    from speed import timed

    def setup():
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True)
        workload.setup()

    samples, wall = [], 0.0
    while len(samples) < SETUP_MIN or (
            len(samples) < SETUP_MAX and wall + samples[-1].wall <= budget):
        samples.append(timed(setup)[1])
        wall += samples[-1].wall
    return samples


def source_digest() -> str:
    """SHA-256 over the library's and the benchmark's Python files."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(BENCH.parent)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def compare_digests(key: str, digests: dict[str, str]) -> list[str] | None:
    """The artifacts whose digest differs from the first earlier run with
    this key on the same source files, or None when there is no such run;
    then this run's digests are kept for later runs."""
    path = OUT / f"digests-{key}.json"
    source = source_digest()
    try:
        earlier = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        earlier = None
    if earlier is None or earlier.get("source") != source:
        path.write_text(json.dumps({"source": source, "digests": digests},
                                   indent=1) + "\n", encoding="utf-8")
        return None
    before = earlier["digests"]
    return sorted(name for name in set(digests) | set(before)
                  if digests.get(name) != before.get(name))


def run_pass(workload, tracer, index: int, stages: dict, failures: list):
    """One pass over the workload's operations. Appends stage samples, in
    reference seconds, and one note per failed operation; returns the
    pass's summed operation Samples' wall and reference times and the
    number of operations attempted."""
    wall, ref, attempted = 0.0, 0.0, 0
    for stage, op in workload.operations():
        attempted += 1
        if tracer is not None:
            tracer.op = f"{index}:{stage}"
        try:
            sample, failed = op(tracer)
        except Exception as exc:  # a crash is one failed operation; go on
            failures.append(f"pass {index} {stage}: {type(exc).__name__}: {exc}")
            continue
        wall += sample.wall
        ref += sample.ref
        stages.setdefault(stage, []).append(sample.ref / workload.divisor)
        if failed:
            failures.append(f"pass {index} {stage}: {'; '.join(failed)}")
    return wall, ref, attempted


def measure(workload, seconds: float, tracer=None):
    """Passes until ``seconds`` is spent. With a tracer, every second pass
    is traced; stage samples come from the untraced passes only. Returns
    the stage samples, each pass's (wall, reference) time keyed by whether
    it was traced, the failure notes and the operations attempted."""
    stages, failures = {}, []
    cycles = {False: [], True: []}
    attempted = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        start = time.perf_counter()
        wall, ref, n = run_pass(workload, tracer if traced else None, index,
                                {} if traced else stages, failures)
        attempted += n
        cycles[traced].append((wall, ref))
        index += 1
        now = time.perf_counter()
        if index >= MIN_PASSES and now + (now - start) > deadline:
            return stages, cycles, failures, attempted


def untraced_run(workload, seconds: float, record: dict, metrics: list[dict]):
    setups = timed_setups(workload, seconds / SETUP_SHARE)
    workload.warm_up()
    stages, cycles, failures, attempted = measure(workload, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_ref = [s.ref for s in setups]
    cycle_wall, cycle_ref = ([c[i] for c in cycles[False]] for i in (0, 1))
    table = {"setup_s": ("s", summarize(setup_ref)),
             "cycle_s": ("s", summarize(cycle_ref)),
             "peak_rss_mb": ("MB", {"median": rss_mb, "n": 1})}
    table.update((stage, ("s", summarize(samples)))
                 for stage, samples in stages.items())
    # not gated: the same timings in wall seconds, and the host's slowness
    table.update({
        "setup_wall_s": ("s", summarize([s.wall for s in setups])),
        "cycle_wall_s": ("s", summarize(cycle_wall)),
        "host_slowness": ("ratio", summarize(
            [w / r for w, r in zip(cycle_wall, cycle_ref)]))})
    record["samples"] = {"setup_s": setup_ref, "cycle_s": cycle_ref, **stages,
                         "setup_wall_s": [s.wall for s in setups],
                         "cycle_wall_s": cycle_wall}
    return table, failures, attempted


def traced_run(workload, seconds: float, record: dict, metrics: list[dict]):
    import layers
    from tracing import Tracer

    tracer = Tracer()
    tracer.op = "setup"
    with tracer.timing():
        workload.setup()
    workload.warm_up()
    _, cycles, failures, attempted = measure(workload, seconds, tracer)
    with tracer.memory():
        workload.memory_pass()
    values, counts, missing = layers.per_layer(
        tracer, [m["name"] for m in metrics], [c[0] for c in cycles[True]],
        [c[0] for c in cycles[False]])
    table = {m["name"]: (m["unit"], {"median": values[m["name"]],
                                     "n": counts[m["name"]]})
             for m in metrics}
    record.update(missing=missing, cycles=cycles, spans=tracer.dump())
    return table, failures, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aucal benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs; used by --smoke")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes, both modes, "
                             "and check each result's metrics and checks")
    args = parser.parse_args(argv)
    load_aucal()
    if args.smoke:
        import smoke
        return smoke.main()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    metrics = json.loads(SPEC.read_text(encoding="utf-8"))[
        "per_layer" if args.trace else "end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment()}
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.tiny)
        run = traced_run if args.trace else untraced_run
        table, failures, attempted = run(workload, args.seconds, record, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    differ = None
    if workload.first_digests:
        differ = compare_digests(
            f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}",
            workload.first_digests)
    if differ is not None:
        # the comparison is one more operation
        attempted += 1
        if differ:
            failures.append("digests differ from an earlier run of this seed: "
                            + ", ".join(differ))
    record["env"]["loadavg_after"] = os.getloadavg()
    record.update(failures=failures, attempted=attempted,
                  digests=workload.first_digests, digests_differ=differ)

    print(f"# aucal benchmark: {tag}, {args.seconds:g} s, "
          f"{attempted} operations, {len(failures)} failed")
    print(f"# env {json.dumps(record['env'])}")
    print(f"{'metric':44} {'value':>14} {'unit':6} {'n':>4}")
    for name, (unit, summary) in table.items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in summary.items()
                         if k.startswith("p"))
        print(f"{name:44} {summary['median']:14.6g} {unit:6} "
              f"{summary['n']:4d} {extra}")
    print(f"{'failed_fraction':44} {len(failures) / attempted:14.6g} "
          f"{'ratio':6} {attempted:4d} ({len(failures)} of {attempted})")
    for note in failures:
        print(f"# FAILED {note}")
    for name, digest in sorted(workload.first_digests.items()):
        print(f"# sha256 {digest} {name}")
    if differ is not None:
        print(f"# digests compared with an earlier run of this seed: "
              f"{len(workload.first_digests)} files, {len(differ)} differ")
    for name in record.get("missing", []):
        print(f"# MISSING {name}")
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": table[name][1]["median"],
                           "unit": table[name][0]}
                    for name in (m["name"] for m in metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

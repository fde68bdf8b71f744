"""The three workloads. Each is a closed loop with one caller: a pass runs
the workload's operations back to back, and the next pass starts when the
previous one has finished.

An operation returns its timing (a ``speed.Sample``: wall seconds and the
host's slowness over them) and the names of the output checks it failed;
checks and digests are computed after the clock stops.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import inputs
from speed import timed

AUS = ",".join(inputs.ANGER_AUS)


def sha256(path: Path) -> str:
    """The SHA-256 that ``aucal.report.file_digest`` records."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["report"]


def _significant(cells) -> int:
    return sum(c["status"] == "tested" and c["p_value"] < 0.05 for c in cells)


class Workload:
    """Holds a workload's inputs and runs its operations."""

    name = ""
    divisor = 1  # a stage sample is an operation's time / divisor

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work, self.seed, self.tiny = work, seed, tiny
        self.first_digests: dict[str, str] = {}

    def setup(self) -> None:
        """Make the inputs; the last call's inputs are the ones used."""

    def warm_up(self) -> None:
        """Untimed work between set-up and the first pass, for a workload
        whose first pass runs slower than the rest."""

    def memory_pass(self) -> None:
        """Run the operations whose peak heap is measured; their checks
        do not count."""

    def operations(self):
        """(stage metric, operation) pairs of one pass, in order."""
        return ()

    def call(self, tracer, fn, span: str | None = None):
        """fn's result and Sample. When traced, the wrappers are installed
        around the timed call only, and the call runs inside a span of its
        own if ``span`` is given; the host's speed is then probed only
        before and after, so that no probe falls inside a span."""
        if tracer is None:
            return timed(fn)

        def traced():
            with tracer.timing(), (tracer.span(span) if span
                                   else contextlib.nullcontext()):
                return fn()
        return timed(traced, sampled=False)

    def run_cli(self, tracer, argv: list[str]):
        """Exit code and Sample of ``aucal.cli.run(argv)``, in process."""
        import aucal.cli

        def command():
            # the command prints a summary line; keep it off the result stream
            with contextlib.redirect_stdout(io.StringIO()):
                return aucal.cli.run(argv)
        return self.call(tracer, command, span=f"cli.{argv[0]}")

    def check_digests(self, paths: list[Path]) -> list[str]:
        """Digest every artifact; one that differs from the first pass of
        this run (same seed, same inputs) is a failed check."""
        failed = []
        for path in paths:
            digest = sha256(path)
            first = self.first_digests.setdefault(path.name, digest)
            if digest != first:
                failed.append(f"digest {path.name}")
        return failed


class Audit80k(Workload):
    name = "audit-80k"

    def setup(self) -> None:
        n = 2_000 if self.tiny else 80_000
        self.data = self.work / "data.csv"
        self.calib = self.work / "calib.csv"
        self.labels, self.cells, self.female = inputs.write_audit_inputs(
            self.seed, n, self.data, self.calib)
        self.out = self.work / "out"
        self.out.mkdir(exist_ok=True)

    def memory_pass(self) -> None:
        self._relabel(None)

    def operations(self):
        yield "calibrate_s", self._calibrate
        yield "audit_s", self._audit
        yield "relabel_s", self._relabel

    def _calibrate(self, tracer):
        out = self.out / "calibration.json"
        code, sample = self.run_cli(tracer, [
            "calibrate", "--data", str(self.calib), "--truth-cols", AUS,
            "--out", str(out)])
        if code != 0:
            return sample, [f"calibrate exit {code}"]
        failed = self.check_digests([out])
        if sorted(_report(out)) != sorted(inputs.ANGER_AUS):
            failed.append("calibration does not list every AU")
        return sample, failed

    def _audit(self, tracer):
        out = self.out / "audit.json"
        code, sample = self.run_cli(tracer, [
            "audit", "--data", str(self.data), "--condition", AUS,
            "--thresholds", inputs.THRESHOLD_SPEC, "--out", str(out)])
        if code != 0:
            return sample, [f"audit exit {code}"]
        failed = self.check_digests([out])
        cells = _report(out)["cells"]
        if len(cells) != 2 ** len(inputs.ANGER_AUS):
            failed.append(f"audit reports {len(cells)} cells")
        if _significant(cells) == 0:
            failed.append("audit finds no significant cell")
        return sample, failed

    def _relabel(self, tracer):
        out, fliplog = self.out / "relabeled.csv", self.out / "flips.json"
        code, sample = self.run_cli(tracer, [
            "relabel", "--data", str(self.data), "--condition", AUS,
            "--thresholds", inputs.THRESHOLD_SPEC, "--out", str(out),
            "--fliplog", str(fliplog)])
        if code != 0:
            return sample, [f"relabel exit {code}"]
        failed = self.check_digests([out, fliplog])
        failed += self._parity_failures(out)
        return sample, failed

    def _parity_failures(self, relabeled: Path) -> list[str]:
        """Every (cell, group) of the relabeled CSV sits within 1/n_g of
        the cell's pooled positive proportion in the input."""
        with relabeled.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            id_col, label_col = header.index("id"), header.index("label")
            rows = [(row[id_col], row[label_col]) for row in reader]
        if len(rows) != len(self.labels):
            return [f"relabeled CSV has {len(rows)} rows"]
        new = np.empty(len(self.labels), dtype=int)
        new[[int(i[1:]) for i, _ in rows]] = [int(y) for _, y in rows]
        failed = []
        for cell in np.unique(self.cells):
            in_cell = self.cells == cell
            p_star = self.labels[in_cell].mean()
            for level in (True, False):
                sel = in_cell & (self.female == level)
                n_g = int(sel.sum())
                if n_g and abs(new[sel].mean() - p_star) > 1.0 / n_g:
                    failed.append(f"parity cell {cell} group {level}")
        return failed


class Train20k(Workload):
    name = "train-20k"

    def __init__(self, work: Path, seed: int, tiny: bool):
        super().__init__(work, seed, tiny)
        self.epochs = self.divisor = 1 if tiny else 4

    def setup(self) -> None:
        import aucal.data

        path = self.work / "train.csv"
        inputs.write_train_input(self.seed, 2_000 if self.tiny else 20_000, path)
        # module attributes, so a traced set-up pass sees its wrappers
        loaded = aucal.data.load_dataset(path, aucal.data.CsvSchema()).dataset
        self.dataset = aucal.data.binarize(
            loaded, {au: inputs.THRESHOLD for au in inputs.ANGER_AUS})

    def memory_pass(self) -> None:
        self.setup()
        self._train(None, 10.0, epochs=1)

    def operations(self):
        yield "train_ce_epoch_s", lambda tracer: self._train(tracer, 0.0)
        yield "train_triplet_epoch_s", lambda tracer: self._train(tracer, 10.0)

    def _train(self, tracer, lam: float, epochs: int | None = None):
        import aucal.aucfer as aucfer

        config = aucfer.TrainConfig(lam=lam, epochs=epochs or self.epochs,
                                    seed=self.seed, learning_rate=0.06,
                                    triplet_reduction="mean")
        result, sample = self.call(tracer, lambda: aucfer.train(
            self.dataset, config, list(inputs.ANGER_AUS)))
        return sample, self._check_model(result, lam)

    def _check_model(self, result, lam: float) -> list[str]:
        import aucal.aucfer as aucfer

        failed = []
        losses = [(b.total, b.cross_entropy, b.triplet) for b in result.loss_trace]
        params = result.params
        if not (np.isfinite(losses).all()
                and all(np.isfinite(getattr(params, k)).all()
                        for k in ("W1", "b1", "W2", "b2"))):
            failed.append(f"non-finite loss or parameters at lambda {lam}")
        if lam > 0 and sum(result.triplet_count_trace) == 0:
            failed.append("no triplets mined at lambda 10")
        test = self.dataset.split_part("test")
        y = test.labels()
        scores, _ = aucfer.predict(params, test.feature_matrix())
        majority = max(y.mean(), 1.0 - y.mean())
        if np.mean((scores > 0.5) == y) <= majority:
            failed.append(f"lambda {lam} model does not beat the majority class")
        return failed


class Demo8k(Workload):
    name = "demo-8k"

    def setup(self) -> None:
        self.out = self.work / "demo"

    def warm_up(self) -> None:
        # without it the first pass runs 10-70% slower than the rest
        self.run_cli(None, ["demo", "--seed", str(self.seed), "--epochs", "1",
                            "--out", str(self.out)])

    def memory_pass(self) -> None:
        # one epoch: the trainer's peak does not grow with the epoch count
        self.run_cli(None, ["demo", "--seed", str(self.seed), "--epochs", "1",
                            "--out", str(self.work / "demo-memory")])

    def operations(self):
        yield "demo_s", self._demo

    def _demo(self, tracer):
        argv = ["demo", "--seed", str(self.seed), "--out", str(self.out)]
        if self.tiny:
            argv += ["--epochs", "3"]
        code, sample = self.run_cli(tracer, argv)
        if code != 0:
            return sample, [f"demo exit {code}"]
        failed = self.check_digests(sorted(self.out.iterdir()))
        if _significant(_report(self.out / "audit_before.json")["cells"]) == 0:
            failed.append("no significant cell before relabel")
        if _significant(_report(self.out / "audit_after.json")["cells"]) != 0:
            failed.append("significant cell after relabel")
        disc = {m: _report(self.out / f"eval_{m}.json")["disc_abs"]
                for m in ("baseline", "aucfer")}
        if not disc["aucfer"] < disc["baseline"]:
            failed.append(f"aucfer disc_abs {disc['aucfer']} not below "
                          f"baseline {disc['baseline']}")
        return sample, failed


WORKLOADS = {w.name: w for w in (Audit80k, Train20k, Demo8k)}

"""CLI behaviour that follows from library defaults: the audit of a 3-level
group equals the library's report without the logistic fit, a 2-level audit
carries the pooled logistic fit, and `aucal train` with only its required
flags trains and saves the configuration of a default TrainConfig. The
output of `aucal calibrate` on a seeded file is pinned by its SHA-256."""

import dataclasses
import hashlib
import json

import numpy as np

from aucal.audit import conditional_bias_report
from aucal.aucfer import TrainConfig
from aucal.cli import run
from aucal.data import binarize, load_dataset, save_dataset
from aucal.report import emit_json, report_header
from aucal.synth import generate
from conftest import biased_config

AUS = ["AU6", "AU12"]


def _save(tmp_path, config):
    path = tmp_path / "data.csv"
    dataset = binarize(generate(config).dataset, {au: 2.2 for au in AUS})
    save_dataset(dataset, path)
    return path


def test_three_level_audit_matches_multi_group_report(tmp_path):
    config = dataclasses.replace(
        biased_config(seed=5, n=600, feature_dim=6, leak=2),
        group_attr="age_group",
        group_probs={"young": 0.6, "mid": 0.36, "old": 0.04},
        group_bias={"young": 1.0},
    )
    data = _save(tmp_path, config)
    out = tmp_path / "report.json"
    assert run(["audit", "--data", str(data), "--condition", ",".join(AUS),
                "--group", "age_group", "--small-levels", "merge",
                "--out", str(out)]) == 0

    report = conditional_bias_report(load_dataset(data).dataset, AUS, "age_group",
                                     include_logistic=False,
                                     small_level_policy="merge")
    assert any(cell.merged_levels for cell in report.cells)
    expected = tmp_path / "expected.json"
    emit_json(report, expected, report_header(seed=0, input_path=data))
    assert out.read_bytes() == expected.read_bytes()
    assert json.loads(out.read_text(encoding="utf-8"))["report"]["logistic"] is None


def test_two_level_audit_keeps_logistic_fit(tmp_path):
    data = _save(tmp_path, biased_config(seed=5, n=600, feature_dim=6, leak=2))
    out = tmp_path / "report.json"
    assert run(["audit", "--data", str(data), "--condition", ",".join(AUS),
                "--small-levels", "merge", "--out", str(out)]) == 0
    logistic = json.loads(out.read_text(encoding="utf-8"))["report"]["logistic"]
    assert logistic["term_names"] == ["intercept", "AU6", "AU12", "gender=M"]


def test_train_defaults_are_train_config_defaults(tmp_path):
    data = _save(tmp_path, biased_config(seed=5, n=300, feature_dim=6, leak=2))
    model = tmp_path / "model.json"
    assert run(["train", "--data", str(data), "--condition", ",".join(AUS),
                "--out", str(model)]) == 0
    expected = dataclasses.asdict(TrainConfig())
    expected["lambda"] = expected.pop("lam")
    assert json.loads(model.read_text(encoding="utf-8"))["config"] == expected


# aucal calibrate's JSON on _calibration_file(), recorded before the threshold
# scan counted from sorted class values instead of a stable argsort
CALIBRATE = "ac514311175e5d326b8775d120f64a12681b7bab79ee721c196aeb99cd38b2ff"


def _calibration_file(path):
    """5,000 rows, AU6 and AU12 with 3-decimal intensities (many ties), three
    gender levels of which "X" has AU6 truth 1 on every row, and truth cells
    padded as " 1" and "0 " here and there."""
    gen = np.random.default_rng(20)
    n = 5000
    groups = gen.choice(["F", "M", "X"], size=n, p=[0.5, 0.45, 0.05])
    lines = ["id,AU6,AU12,AU6_true,AU12_true,gender"]
    cells = {}
    for au, shift in (("AU6", 0.4), ("AU12", -0.3)):
        truth = (gen.random(n) < 0.45).astype(int)
        if au == "AU6":
            truth[groups == "X"] = 1
        x = gen.normal(1.3 + 1.6 * truth + shift * (groups == "F"), 0.7)
        pad = gen.random(n) < 0.05
        text = np.where(truth == 1, np.where(pad, " 1", "1"), np.where(pad, "0 ", "0"))
        cells[au] = [f"{v:.3f}" for v in np.clip(x, 0, 5)], text
    for i in range(n):
        lines.append(",".join([f"r{i}", cells["AU6"][0][i], cells["AU12"][0][i],
                               cells["AU6"][1][i], cells["AU12"][1][i], groups[i]]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_calibrate_output_is_pinned(tmp_path):
    data = _calibration_file(tmp_path / "cal.csv")
    out = tmp_path / "cal.json"
    assert run(["calibrate", "--data", str(data), "--truth-cols", "AU6,AU12",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))["report"]
    assert report["AU6"]["degenerate_levels"] == ["X"]
    assert report["AU12"]["degenerate_levels"] == []
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CALIBRATE

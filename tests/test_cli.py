import csv
import dataclasses
import json

import numpy as np
import pytest

from aucal.cli import demo_synth_config, run
from aucal.data import CsvSchema, load_dataset
from aucal.report import file_digest
from conftest import rows_of


def _synth_config_file(tmp_path, seed=3, n=600, feature_dim=12, leak=4,
                       test_fraction=0.3):
    cfg = {
        "n": n,
        "group_probs": {"F": 0.5, "M": 0.5},
        "latent_positive_prob": 0.5,
        "au_models": {
            "AU6": {"mean_negative": 1.2, "mean_positive": 3.2},
            "AU12": {"mean_negative": 1.0, "mean_positive": 3.4},
        },
        "annotator_intercept": -4.0,
        "annotator_weights": {"AU6": 0.9, "AU12": 0.9},
        "group_bias": {"F": 1.0},
        "thresholds": {"AU6": 2.2, "AU12": 2.2},
        "feature_dim": feature_dim,
        "feature_noise_std": 0.3,
        "group_leak_dims": leak,
        "test_fraction": test_fraction,
        "seed": seed,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _make_data(tmp_path, **kwargs):
    config = _synth_config_file(tmp_path, **kwargs)
    data = tmp_path / "data.csv"
    assert run(["synth", "--config", str(config), "--out", str(data)]) == 0
    return data


def test_unknown_flag_exits_1(tmp_path, capsys):
    assert run(["audit", "--bogus"]) == 1


def test_missing_subcommand_exits_1():
    assert run([]) == 1


def test_missing_file_exits_2(tmp_path):
    code = run([
        "audit", "--data", str(tmp_path / "nope.csv"),
        "--condition", "AU6,AU12", "--out", str(tmp_path / "rep.json"),
    ])
    assert code == 2


def test_synth_writes_loadable_csv(tmp_path):
    data = _make_data(tmp_path)
    loaded = load_dataset(data, CsvSchema())
    assert len(loaded.dataset) == 600
    assert loaded.dataset.feature_dim == 12
    assert "fair_label" in loaded.ignored_columns


def test_audit_happy_path(tmp_path, capsys):
    data = _make_data(tmp_path, n=4000)
    out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    code = run([
        "audit", "--data", str(data), "--condition", "AU6,AU12",
        "--out", str(out), "--csv", str(csv_out),
    ])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["report"]["group_attr"] == "gender"
    assert len(payload["report"]["cells"]) == 4
    with csv_out.open(encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 11 and header[0] == "condition"
    assert all(len(row) == len(header) for row in rows)
    assert [row[0] for row in rows] == [c["condition"] for c in payload["report"]["cells"]]
    assert "audited 4 cells" in capsys.readouterr().out


def test_audit_output_byte_stable(tmp_path):
    data = _make_data(tmp_path, n=2000)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert run(["audit", "--data", str(data), "--condition", "AU6,AU12",
                    "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_relabel_round_trip(tmp_path):
    data = _make_data(tmp_path, n=3000)
    out = tmp_path / "relabeled.csv"
    fliplog = tmp_path / "flips.json"
    code = run([
        "relabel", "--data", str(data), "--condition", "AU6,AU12",
        "--out", str(out), "--fliplog", str(fliplog),
    ])
    assert code == 0
    before = load_dataset(data, CsvSchema()).dataset
    after = load_dataset(out, CsvSchema()).dataset
    assert len(before) == len(after)
    changed = sum(
        a.label != b.label for a, b in zip(rows_of(before), rows_of(after))
    )
    flips = json.loads(fliplog.read_text(encoding="utf-8"))
    assert changed == len(flips["report"]["entries"])
    assert changed > 0


def test_relabel_drops_a_row_with_a_blank_au_intensity(tmp_path):
    data, out = _make_data(tmp_path, n=600), tmp_path / "relabeled.csv"
    lines = data.read_text(encoding="utf-8").splitlines()
    au6, row = lines[0].split(",").index("AU6"), lines[5].split(",")
    row[au6] = ""
    lines[5] = ",".join(row)
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["relabel", "--data", str(data), "--condition", "AU6,AU12",
                "--out", str(out)]) == 0
    ids = load_dataset(out, CsvSchema()).dataset.ids.tolist()
    assert len(ids) == 599 and row[0] not in ids


@pytest.mark.parametrize("command, flags, holds", [
    ("audit", ["--marginal"], lambda report: report["mode"] == "marginal" and
     sorted(c["condition"] for c in report["cells"]) == ["AU12=0", "AU12=1", "AU6=0", "AU6=1"]),
    ("audit", ["--min-expected", "1e9"], lambda report: {
        c["status"] for c in report["cells"]} == {"insufficient_data"}),
    ("train", ["--margin", "0.3", "--batch", "64", "--emb", "3", "--epochs", "1"],
     lambda model: len(model["W1"][0]) == 3 and {
         k: model["config"][k] for k in ("margin", "batch_size", "d_emb")} == {
         "margin": 0.3, "batch_size": 64, "d_emb": 3}),
], ids=["marginal", "min-expected", "train"])
def test_audit_and_train_flags_take_effect(tmp_path, command, flags, holds):
    out = tmp_path / "out.json"
    assert run([command, "--data", str(_make_data(tmp_path, n=800)),
                "--condition", "AU6,AU12", *flags, "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert holds(payload.get("report", payload))


def test_train_eval_round_trip(tmp_path, capsys):
    data = _make_data(tmp_path, n=2000)
    model = tmp_path / "model.json"
    code = run([
        "train", "--data", str(data), "--condition", "AU6,AU12",
        "--lambda", "0", "--epochs", "3", "--out", str(model),
    ])
    assert code == 0
    result = tmp_path / "eval.json"
    code = run([
        "eval", "--model", str(model), "--test", str(data),
        "--positive-group", "F", "--out", str(result),
    ])
    assert code == 0
    payload = json.loads(result.read_text(encoding="utf-8"))
    assert 0.5 < payload["report"]["accuracy"] <= 1.0
    assert "disc_abs" in payload["report"]


def test_eval_exits_1_on_a_model_whose_scores_overflow(tmp_path, capsys):
    """W1[0][0] = 1e308 in demo's model is finite, so the model loads, but
    x @ W1 overflows and the softmax takes inf - inf: eval exits 1 naming
    the first row (of the test split) whose score is not finite, and writes
    no report."""
    demo, out = tmp_path / "demo", tmp_path / "eval.json"
    assert run(["demo", "--seed", "7", "--epochs", "1", "--out", str(demo)]) == 0
    model = json.loads((demo / "model_aucfer.json").read_text(encoding="utf-8"))
    model["W1"][0][0] = 1e308
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    capsys.readouterr()
    assert run(["eval", "--model", str(path), "--test", str(demo / "data.csv"),
                "--positive-group", "F", "--out", str(out)]) == 1
    assert "the score of feature row 2 is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_a_group_with_three_levels_exits_1_naming_them(tmp_path, capsys, command):
    data = _make_data(tmp_path, n=1500)
    lines = data.read_text(encoding="utf-8").splitlines()
    gender = lines[0].split(",").index("gender")
    for i in range(1, len(lines), 3):
        row = lines[i].split(",")
        row[gender] = "X"
        lines[i] = ",".join(row)
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model, out = tmp_path / "model.json", tmp_path / "out"
    if command == "eval":
        assert run(["train", "--data", str(data), "--condition", "AU6,AU12",
                    "--epochs", "1", "--out", str(model)]) == 0
        argv = ["eval", "--model", str(model), "--test", str(data), "--positive-group", "F"]
    else:
        spec = {"data": str(data), "condition": "AU6,AU12", "positive_group": "F",
                "models": [{"name": "plain", "lambda": 0.0, "epochs": 1}]}
        (tmp_path / "runs.json").write_text(json.dumps(spec), encoding="utf-8")
        argv = ["compare", "--configs", str(tmp_path / "runs.json"), "--seeds", "1"]
    capsys.readouterr()
    assert run([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: need exactly two group levels, got ['F', 'M', 'X']\n")
    assert not out.exists()


def test_calibrate_command(tmp_path):
    gen = np.random.default_rng(4)
    rows = ["id,AU6,AU6_true,gender"]
    for i in range(400):
        g = "F" if i % 2 else "M"
        truth = int(gen.random() < 0.5)
        x = gen.normal(3.0 if truth else 1.0, 0.6)
        rows.append(f"c{i},{min(max(x, 0), 5):.4f},{truth},{g}")
    data = tmp_path / "cal.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "cal.json"
    code = run(["calibrate", "--data", str(data), "--truth-cols", "AU6",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    res = payload["report"]["AU6"]
    assert 1.0 < res["global_threshold"] < 3.0
    assert res["global_accuracy"] > 0.9


def test_compare_command(tmp_path):
    data = _make_data(tmp_path, n=1500)
    spec = {
        "data": str(data),
        "condition": "AU6,AU12",
        "positive_group": "F",
        "models": [
            {"name": "plain", "lambda": 0.0, "epochs": 2},
            {"name": "regularized", "lambda": 10.0, "epochs": 2},
        ],
    }
    configs = tmp_path / "runs.json"
    configs.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "compare.csv"
    assert run(["compare", "--configs", str(configs), "--seeds", "2",
                "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3  # header + two models
    assert lines[1].startswith("plain,")


def test_compare_with_no_models_exits_1(tmp_path, capsys):
    """With no model there is no reference for the fair test set."""
    spec = {"data": str(_make_data(tmp_path, n=300)), "condition": "AU6,AU12",
            "positive_group": "F", "models": []}
    configs, out = tmp_path / "runs.json", tmp_path / "compare.csv"
    configs.write_text(json.dumps(spec), encoding="utf-8")
    assert run(["compare", "--configs", str(configs), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: compare spec: models is empty, and the first model is the reference\n")
    assert not out.exists()


def test_demo_end_to_end(tmp_path, capsys):
    out = tmp_path / "demo"
    assert run(["demo", "--seed", "7", "--epochs", "3",
                "--out", str(out)]) == 0
    produced = {p.name for p in out.iterdir()}
    assert "summary.csv" in produced
    assert "audit_before.json" in produced
    assert "audit_after.json" in produced


def test_bad_synth_config_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 10}), encoding="utf-8")
    assert run(["synth", "--config", str(path),
                "--out", str(tmp_path / "x.csv")]) == 1


def test_synth_seed_flag_sets_the_draw(tmp_path):
    config = _synth_config_file(tmp_path, n=200)
    outs = {}
    for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        outs[name] = tmp_path / f"{name}.csv"
        assert run(["synth", "--config", str(config), "--seed", seed,
                    "--out", str(outs[name])]) == 0
    assert outs["a"].read_bytes() == outs["b"].read_bytes()
    assert outs["a"].read_bytes() != outs["c"].read_bytes()


def _no_positive_level_csv(tmp_path):
    """162 rows whose 12-row level M has no positives."""
    gen = np.random.default_rng(16)
    rows = ["id,AU6,AU12,label,gender"]
    for i in range(162):
        a6, a12 = gen.uniform(0, 5, 2)
        minority = i >= 150
        label = 0 if minority else int(gen.random() < 0.4)
        rows.append(f"r{i},{a6:.2f},{a12:.2f},{label},{'M' if minority else 'F'}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return data


def test_audit_reports_separation_for_a_level_with_no_positives(tmp_path):
    """A 12-row level with no positives separates the pooled fit: its Newton
    steps never converge, so the audit names the error and reports no
    p-values rather than a group term with p near 1."""
    out = tmp_path / "audit.json"
    assert run(["audit", "--data", str(_no_positive_level_csv(tmp_path)),
                "--condition", "AU6,AU12", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))["report"]
    assert report["logistic"] is None
    assert report["logistic_error"].startswith("Separation")


def test_audit_curves_for_a_level_with_no_positives_write_nothing(tmp_path, capsys):
    """bias_curves fits level M alone, which separates; the audit exits 1
    before it writes --out or --curves."""
    out, curves = tmp_path / "audit.json", tmp_path / "curves.csv"
    assert run(["audit", "--data", str(_no_positive_level_csv(tmp_path)),
                "--condition", "AU6,AU12", "--out", str(out),
                "--curves", str(curves)]) == 1
    assert capsys.readouterr().err == (
        "error: gender=M: fitted probabilities pinned to {0, 1}\n")
    assert not out.exists() and not curves.exists()


def test_audit_curves_digest(tmp_path):
    """SHA-256 of the --curves CSV of a 2,000-row synth file."""
    data, curves = _make_data(tmp_path, n=2000), tmp_path / "curves.csv"
    assert run(["audit", "--data", str(data), "--condition", "AU6,AU12",
                "--out", str(tmp_path / "audit.json"), "--curves", str(curves)]) == 0
    assert file_digest(curves) == (
        "5ba58b9e97c08abbf029684cc70e7c2b241dc167eba5527bea698fab13672e99")


@pytest.mark.parametrize("command, extra", [("audit", []),
                                            ("train", ["--epochs", "1"])])
def test_out_in_a_missing_directory_exits_2(tmp_path, capsys, command, extra):
    out = tmp_path / "missing" / "out.json"
    assert run([command, "--data", str(_make_data(tmp_path, n=200)),
                "--condition", "AU6,AU12", *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(out) in err
    assert "Traceback" not in err


def test_demo_is_synth_then_compare(tmp_path):
    """demo's data.csv is what synth writes from demo_synth_config, and its
    summary.csv is what compare gives on that file with demo's two arms."""
    demo = tmp_path / "demo"
    assert run(["demo", "--seed", "0", "--epochs", "2", "--out", str(demo)]) == 0
    config_path, data = tmp_path / "config.json", tmp_path / "data.csv"
    config_path.write_text(json.dumps(dataclasses.asdict(demo_synth_config(0))),
                           encoding="utf-8")
    assert run(["synth", "--config", str(config_path), "--out", str(data)]) == 0
    assert data.read_bytes() == (demo / "data.csv").read_bytes()

    spec, table = tmp_path / "runs.json", tmp_path / "table.csv"
    spec.write_text(json.dumps({
        "data": str(data), "condition": "AU6,AU12", "positive_group": "F",
        "models": [{"name": "baseline", "lambda": 0, "epochs": 2},
                   {"name": "aucfer", "epochs": 2}]}), encoding="utf-8")
    assert run(["compare", "--configs", str(spec), "--seeds", "1",
                "--out", str(table)]) == 0
    assert table.read_bytes() == (demo / "summary.csv").read_bytes()

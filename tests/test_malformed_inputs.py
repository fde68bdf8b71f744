"""Malformed input ends in a typed error with exit code 1, not a traceback:
a model file whose weights are not a finite, chained MLP or whose input
width is not the data's feature count, an empty CSV, a CSV whose f<k>
columns skip an index, a calibration CSV with a short row, a mapping whose
keys collide once stringified, a file that holds no JSON or no UTF-8 text,
a threshold that is not a number, a train --lr or --epochs of 0, and a
--group column the file lacks."""

import json

import pytest

from aucal.cli import run
from aucal.data import binarize, save_dataset
from aucal.errors import IoError
from aucal.report import canonical_json
from aucal.synth import generate
from conftest import biased_config


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A dataset CSV and a model trained on it for one epoch."""
    tmp = tmp_path_factory.mktemp("trained")
    data, model = tmp / "data.csv", tmp / "model.json"
    config = biased_config(seed=3, n=400, feature_dim=6, leak=2, test_fraction=0.3)
    save_dataset(binarize(generate(config).dataset, {"AU6": 2.2, "AU12": 2.2}), data)
    assert run(["train", "--data", str(data), "--condition", "AU6,AU12",
                "--epochs", "1", "--out", str(model)]) == 0
    return data, json.loads(model.read_text(encoding="utf-8"))


def _null_weight(m):
    m["W1"][0][0] = None


def _short_bias(m):
    m["b1"] = m["b1"][:-1]


def _infinite_weight(m):
    m["b2"][1] = float("inf")


@pytest.mark.parametrize("corrupt, message", [
    (_null_weight, "not all finite"),
    (_infinite_weight, "not all finite"),
    (_short_bias, "weight shapes"),
    (lambda m: m["W2"].append([1.0, 2.0]), "weight shapes"),
    (lambda m: m.update(b2="x"), "numeric arrays"),
    (lambda m: m.pop("W2"), "numeric arrays"),
    (lambda m: m["W1"].pop(), "features dim 6 != W1 rows 5"),
], ids=["null", "inf", "short-b1", "extra-W2-row", "string-b2", "no-W2", "narrow-W1"])
def test_eval_rejects_malformed_model(trained, tmp_path, capsys, corrupt, message):
    data, model = trained
    model = json.loads(json.dumps(model))
    corrupt(model)
    path = tmp_path / "model.json"
    # json.dumps writes inf as Infinity, which json.loads reads back as inf
    path.write_text(json.dumps(model), encoding="utf-8")
    out = tmp_path / "eval.json"
    assert run(["eval", "--model", str(path), "--test", str(data),
                "--positive-group", "F", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_model_file_holding_a_list(trained, tmp_path, capsys):
    data, model = trained
    path = tmp_path / "model.json"
    path.write_text(json.dumps([model]), encoding="utf-8")
    assert run(["eval", "--model", str(path), "--test", str(data),
                "--positive-group", "F", "--out", str(tmp_path / "e.json")]) == 1
    assert "numeric arrays" in capsys.readouterr().err


def test_calibrate_rejects_short_row(tmp_path, capsys):
    data = tmp_path / "cal.csv"
    data.write_text("id,AU6,AU6_true,gender\na,1.0,0,F\nb,3.0\nc,2.0,1,M\n",
                    encoding="utf-8")
    out = tmp_path / "cal.json"
    assert run(["calibrate", "--data", str(data), "--truth-cols", "AU6",
                "--out", str(out)]) == 1
    assert "row 3, column 'AU6_true'" in capsys.readouterr().err
    assert not out.exists()


def test_canonical_json_rejects_keys_that_collide_as_strings():
    with pytest.raises(IoError, match="collide"):
        canonical_json({1: "a", "1": "b"})
    assert canonical_json({2: "b", "1": {3: None}}) == '{"1":{"3":null},"2":"b"}'


CAL_CSV = "id,AU6,AU6_true,gender\na,1.0,0,F\nb,3.0,1,M\n"
EVAL = ["eval", "--model", "BAD", "--test", "DATA", "--positive-group", "F"]
TRAIN = ["train", "--data", "DATA", "--condition", "AU6,AU12"]


@pytest.mark.parametrize("argv, content, named", [
    (["synth", "--config", "BAD"], lambda data, model: b"{", "BAD"),
    (["compare", "--configs", "BAD"], lambda data, model: b'{"data": ', "BAD"),
    (EVAL, lambda data, model: b"", "BAD"),
    (EVAL, lambda data, model: json.dumps(model).encode()[:500], "BAD"),
    (["audit", "--data", "DATA", "--condition", "AU6,AU12", "--thresholds", "AU6=abc"],
     lambda data, model: b"", "'AU6=abc'"),
    (["audit", "--data", "BAD", "--condition", "AU6,AU12"],
     lambda data, model: data.read_bytes().replace(b"\n", b"\xff\n", 2), "BAD"),
    (["calibrate", "--data", "BAD", "--truth-cols", "AU6"],
     lambda data, model: CAL_CSV.encode().replace(b"b,", b"\xff,"), "BAD"),
    (["audit", "--data", "BAD", "--condition", "AU6,AU12"], lambda data, model: b"",
     "BAD"),
    (["audit", "--data", "BAD", "--condition", "AU6,AU12"],
     lambda data, model: data.read_bytes().replace(b",f5", b",f6", 1),
     "feature columns not contiguous f0..f5"),
    (TRAIN + ["--lr", "0"], lambda data, model: b"", "rates, epochs, d_emb must be positive"),
    (TRAIN + ["--epochs", "0"], lambda data, model: b"",
     "rates, epochs, d_emb must be positive"),
], ids=["synth-json", "compare-json", "empty-model", "truncated-model",
        "bad-threshold", "audit-not-utf8", "calibrate-not-utf8", "empty-csv",
        "gap-in-f-columns", "train-lr-0", "train-epochs-0"])
def test_unreadable_input_exits_1_naming_it(trained, tmp_path, capsys, argv, content,
                                            named):
    data, model = trained
    bad, out = tmp_path / "bad", tmp_path / "out"
    bad.write_bytes(content(data, model))
    paths = {"BAD": str(bad), "DATA": str(data)}
    assert run([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and paths.get(named, named) in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["audit", "relabel", "eval", "calibrate"])
def test_missing_group_column_exits_1(trained, tmp_path, capsys, command):
    data, model = trained
    model_path, cal = tmp_path / "model.json", tmp_path / "cal.csv"
    model_path.write_text(json.dumps(model), encoding="utf-8")
    cal.write_text(CAL_CSV, encoding="utf-8")
    out = str(tmp_path / "out")
    shared = ["--data", str(data), "--condition", "AU6,AU12", "--out", out]
    argv = {"audit": ["audit", *shared], "relabel": ["relabel", *shared],
            "eval": ["eval", "--model", str(model_path), "--test", str(data),
                     "--positive-group", "F", "--out", out],
            "calibrate": ["calibrate", "--data", str(cal), "--truth-cols", "AU6",
                          "--out", out]}[command]
    assert run([*argv, "--group", "race"]) == 1
    assert capsys.readouterr().err == "error: required column missing: 'race'\n"

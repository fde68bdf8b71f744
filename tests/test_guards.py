"""Inputs that used to end in a silently wrong result and now end in a
typed error with exit code 1: a diverging training run, --thresholds on a
file that already carries presence columns, thresholds for an AU outside
--condition or with a non-finite or non-numeric value, and compare specs
whose keys or triplet settings were dropped."""

import json

import numpy as np
import pytest

from aucal.aucfer import TrainConfig, predict, train, train_cross_entropy_only
from aucal.cli import _load_binarized, demo_synth_config, run
from aucal.data import binarize, save_dataset
from aucal.errors import Diverged
from aucal.metrics import evaluate, summarize_runs
from aucal.report import summaries_csv
from aucal.synth import generate
from conftest import biased_config


def _dataset(n=600):
    config = biased_config(seed=3, n=n, feature_dim=6, leak=2,
                           test_fraction=0.3)
    return binarize(generate(config).dataset, {"AU6": 2.2, "AU12": 2.2})


def _make_data(tmp_path, n=600):
    """A CSV with AU6_presence and AU12_presence columns, as synth writes."""
    path = tmp_path / "data.csv"
    save_dataset(_dataset(n), path)
    return path


@pytest.mark.parametrize("trainer", [train, train_cross_entropy_only])
def test_diverging_training_raises_naming_the_epoch(trainer):
    # the first update overflows, so epoch 1's loss is already NaN
    config = TrainConfig(lam=0.0, learning_rate=1e300, epochs=5)
    with (pytest.raises(Diverged, match="epoch 1: loss nan"),
          np.errstate(all="ignore")):
        trainer(_dataset(400), config, ["AU6", "AU12"])


def _blow_up_data():
    """400 demo rows on which lr 500 sends the cross-entropy of epoch 1
    past 1e5 in both trainers while it stays finite."""
    return binarize(generate(demo_synth_config(7, 400)).dataset,
                    {"AU6": 2.5, "AU12": 2.5})


@pytest.mark.parametrize("trainer", [train, train_cross_entropy_only])
def test_finite_blow_up_raises(trainer):
    config = TrainConfig(lam=10.0, learning_rate=500.0, epochs=5)
    with pytest.raises(Diverged, match="epoch 1: cross-entropy"):
        trainer(_blow_up_data(), config, ["AU6", "AU12"])


@pytest.mark.parametrize("extra", [[], ["--baseline"]])
def test_train_cli_exits_1_on_finite_blow_up(tmp_path, capsys, extra):
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    save_dataset(_blow_up_data(), data)
    code = run(["train", "--data", str(data), "--condition", "AU6,AU12",
                "--lambda", "10", "--lr", "500", "--epochs", "5",
                "--out", str(model), *extra])
    assert code == 1
    assert "diverged in epoch 1: cross-entropy" in capsys.readouterr().err
    assert not model.exists()


def test_train_cli_exits_1_on_divergence(tmp_path, capsys):
    data = _make_data(tmp_path)
    model = tmp_path / "model.json"
    with np.errstate(all="ignore"):
        code = run(["train", "--data", str(data), "--condition", "AU6,AU12",
                    "--lr", "1e30", "--epochs", "5", "--out", str(model)])
    assert code == 1
    assert "diverged in epoch" in capsys.readouterr().err
    assert not model.exists()


def test_thresholds_on_presence_columns_exit_1(tmp_path, capsys):
    data = _make_data(tmp_path)
    out = tmp_path / "rep.json"
    common = ["audit", "--data", str(data), "--condition", "AU6,AU12",
              "--out", str(out)]
    assert run([*common, "--thresholds", "AU6=0.1,AU12=4.9"]) == 1
    err = capsys.readouterr().err
    assert "AU6_presence" in err and "AU12_presence" in err
    assert not out.exists()
    assert run(common) == 0


def test_thresholds_apply_when_presence_columns_are_missing(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("id,AU6,AU12,label,gender\n"
                    "a,3.0,2.0,1,F\nb,1.0,4.0,0,M\n", encoding="utf-8")
    ds, _ = _load_binarized(data, "label", "AU6,AU12", {"AU6": 1.5})
    keys = ds.cell_keys(["AU6", "AU12"])
    assert [keys.key(c).describe() for c in keys.codes] == [
        "AU12=0,AU6=1", "AU12=1,AU6=0"]


def _intensity_csv(tmp_path):
    """Four rows with AU intensities and no presence columns."""
    data = tmp_path / "d.csv"
    data.write_text("id,AU6,AU12,label,gender\na,3.0,2.0,1,F\nb,1.0,4.0,0,M\n"
                    "c,2.0,1.0,0,F\nd,4.0,3.0,1,M\n", encoding="utf-8")
    return data


@pytest.mark.parametrize("spec, message", [
    ("AU6=2.0,AU7=2.0", "threshold for AU7, which is not a condition AU"),
    ("AU6=2.0,au12=0.1", "threshold for au12, which is not a condition AU"),
    ("AU6=nan", "threshold AU6=nan is not a finite number"),
    ("AU12=inf", "threshold AU12=inf is not a finite number"),
])
def test_thresholds_that_would_be_ignored_or_cannot_work_exit_1(
        tmp_path, capsys, spec, message):
    out = tmp_path / "rep.json"
    code = run(["audit", "--data", str(_intensity_csv(tmp_path)),
                "--condition", "AU6,AU12", "--thresholds", spec, "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("thresholds, message", [
    ({"AU6": "2.0"}, "threshold AU6='2.0' is not a finite number"),
    ({"AU6": True}, "threshold AU6=True is not a finite number"),
    ({"AU12": 10 ** 400}, "is not a finite number"),
    ({"AU7": 2.0}, "threshold for AU7, which is not a condition AU"),
    (["AU6", 2.0], "do not map AUs to numbers"),
])
def test_compare_rejects_bad_thresholds(tmp_path, capsys, thresholds, message):
    code, out = _compare(tmp_path, _intensity_csv(tmp_path),
                         [{"name": "m", "epochs": 1}], thresholds=thresholds)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _compare(tmp_path, data, models, seeds=1, **extra):
    spec = {"data": str(data), "condition": "AU6,AU12",
            "positive_group": "F", "models": models, **extra}
    configs = tmp_path / "runs.json"
    configs.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "compare.csv"
    code = run(["compare", "--configs", str(configs), "--seeds", str(seeds),
                "--out", str(out)])
    return code, out


def test_compare_honours_triplet_settings(tmp_path):
    data = _make_data(tmp_path, n=800)
    model = {"name": "m", "epochs": 1, "triplet_reduction": "mean",
             "max_triplets_per_anchor": 3}
    code, out = _compare(tmp_path, data, [model])
    assert code == 0

    dataset, _ = _load_binarized(data, "label", "AU6,AU12", {})
    config = TrainConfig(epochs=1, seed=0, triplet_reduction="mean",
                         max_triplets_per_anchor=3)
    trained = train(dataset, config, ["AU6", "AU12"])
    test = dataset.split_part("test")
    scores, _ = predict(trained.params, test.feature_matrix())
    want = summarize_runs("m", [evaluate(scores, test, "gender", "F")])
    assert out.read_text(encoding="utf-8") == summaries_csv([want])


def test_compare_honours_sum_reduction(tmp_path):
    # sum is no longer the default, so a spec that names it must get it
    data = _make_data(tmp_path, n=800)
    model = {"name": "m", "epochs": 1, "triplet_reduction": "sum",
             "max_triplets_per_anchor": 2, "learning_rate": 0.01}
    code, out = _compare(tmp_path, data, [model])
    assert code == 0

    dataset, _ = _load_binarized(data, "label", "AU6,AU12", {})
    test = dataset.split_part("test")
    scores = {}
    for reduction in ("sum", "mean"):
        config = TrainConfig(epochs=1, seed=0, triplet_reduction=reduction,
                             max_triplets_per_anchor=2, learning_rate=0.01)
        trained = train(dataset, config, ["AU6", "AU12"])
        scores[reduction], _ = predict(trained.params, test.feature_matrix())
    assert not np.array_equal(scores["sum"], scores["mean"])
    want = summarize_runs("m", [evaluate(scores["sum"], test, "gender", "F")])
    assert out.read_text(encoding="utf-8") == summaries_csv([want])


@pytest.mark.parametrize("model, message", [
    ({"name": "m", "lamda": 1.0}, "lamda"),
    ({"name": "m", "seed": 3}, "seed"),
    ({"name": "m", "triplet_reduction": "avg"}, "triplet_reduction"),
    ({"name": "m", "max_triplets_per_anchor": 0}, "max_triplets_per_anchor"),
])
def test_compare_rejects_bad_model_specs(tmp_path, capsys, model, message):
    code, out = _compare(tmp_path, tmp_path / "never-read.csv", [model])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_compare_rejects_unknown_top_level_keys(tmp_path, capsys):
    configs = tmp_path / "runs.json"
    configs.write_text(json.dumps({"data": "x.csv", "condition": "AU6",
                                   "positive_group": "F", "models": [],
                                   "seeds": 3}), encoding="utf-8")
    assert run(["compare", "--configs", str(configs),
                "--out", str(tmp_path / "c.csv")]) == 1
    assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"grup_bias": {"F": 1.0}}, "unknown synth config keys: grup_bias"),
    ({"au_models": {"AU6": {"mean_negative": 1.0, "mean_positive": 3.0,
                            "sd": 0.5}}}, "unknown au_models AU6 keys: sd"),
])
def test_synth_rejects_unknown_config_keys(tmp_path, capsys, change, message):
    raw = {"n": 10, "group_probs": {"F": 1.0}, "latent_positive_prob": 0.5,
           "au_models": {"AU6": {"mean_negative": 1.0, "mean_positive": 3.0}},
           "annotator_intercept": 0.0, "annotator_weights": {}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, **change}), encoding="utf-8")
    out = tmp_path / "x.csv"
    assert run(["synth", "--config", str(path), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err and not out.exists()
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert run(["synth", "--config", str(path), "--out", str(out)]) == 0


@pytest.mark.parametrize("kwargs", [
    {"triplet_reduction": "avg"},
    {"max_triplets_per_anchor": 0},
])
def test_train_config_rejects_bad_triplet_settings(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)

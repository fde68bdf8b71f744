"""Inputs that used to end in a silently wrong result and now end in a
typed error with exit code 1: a diverging training run, --thresholds on a
file that already carries presence columns, and compare specs whose keys
or triplet settings were dropped."""

import json

import numpy as np
import pytest

from aucal.aucfer import TrainConfig, predict, train, train_cross_entropy_only
from aucal.cli import _load_binarized, run
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
    config = TrainConfig(lam=0.0, learning_rate=1e30, epochs=5)
    with pytest.raises(Diverged, match="epoch 4"), np.errstate(all="ignore"):
        trainer(_dataset(400), config, ["AU6", "AU12"])


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


def _compare(tmp_path, data, models, seeds=1):
    spec = {"data": str(data), "condition": "AU6,AU12",
            "positive_group": "F", "models": models}
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

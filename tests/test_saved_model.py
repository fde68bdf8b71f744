"""A saved model reproduces its run: a TrainConfig built from the model
file's `config` retrains to the same weights and per-epoch trace, byte for
byte, for both triplet reductions and for the baseline trainer."""

import json

import numpy as np
import pytest

from aucal.aucfer import TrainConfig, train, train_cross_entropy_only
from aucal.cli import _config_from, _load_model, _save_model, run
from aucal.data import binarize, save_dataset
from aucal.synth import generate
from conftest import biased_config

AUS = ["AU6", "AU12"]


def _dataset():
    config = biased_config(seed=4, n=500, feature_dim=6, leak=2,
                           test_fraction=0.3)
    return binarize(generate(config).dataset, {au: 2.2 for au in AUS})


@pytest.mark.parametrize("trainer, config", [
    (train, TrainConfig(lam=2.0, epochs=3, seed=5, learning_rate=0.01,
                        triplet_reduction="sum", max_triplets_per_anchor=5)),
    (train, TrainConfig(epochs=3, seed=6, triplet_reduction="mean")),
    (train_cross_entropy_only, TrainConfig(lam=0.0, epochs=3, seed=7)),
])
def test_saved_config_retrains_to_the_same_bytes(tmp_path, trainer, config):
    dataset = _dataset()
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    result = trainer(dataset, config, AUS)
    _save_model(result, config, first)

    saved = json.loads(first.read_text(encoding="utf-8"))
    rebuilt = _config_from(TrainConfig, saved["config"], "saved model config")
    assert rebuilt == config
    assert saved["trace"]["n_triplets"] == result.triplet_count_trace
    assert saved["trace"]["cross_entropy"] == [
        e.cross_entropy for e in result.loss_trace]
    _save_model(trainer(dataset, rebuilt, AUS), rebuilt, again)
    assert again.read_bytes() == first.read_bytes()
    for w, want in zip(vars(_load_model(again)).values(), vars(result.params).values()):
        assert np.array_equal(w, want)


def test_cli_model_retrains_from_its_config(tmp_path):
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    save_dataset(_dataset(), data)
    assert run(["train", "--data", str(data), "--condition", ",".join(AUS),
                "--epochs", "2", "--out", str(model)]) == 0
    saved = json.loads(model.read_text(encoding="utf-8"))
    config = _config_from(TrainConfig, saved["config"], "saved model config")
    again = tmp_path / "again.json"
    result = train(_dataset(), config, AUS)
    _save_model(result, config, again)
    assert again.read_bytes() == model.read_bytes()

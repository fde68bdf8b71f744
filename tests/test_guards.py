"""Inputs that used to end in a silently wrong result and now end in a
typed error with exit code 1: a diverging training run, --thresholds on a
file that already carries presence columns, thresholds for an AU outside
--condition or with a non-finite or non-numeric value, compare specs
whose keys or triplet settings were dropped, and compare specs and synth
configs of the wrong JSON shape, with fields of the wrong type or that no
intensity or label can be drawn from, which used to end in a traceback, a compare run with no test split or no seeds,
a compare run whose reference model leaves the fair test set no row, and a
condition, --thresholds or --truth-cols that names an AU twice."""

import dataclasses
import json

import numpy as np
import pytest

from aucal import cli
from aucal.audit import conditional_bias_report
from aucal.aucfer import TrainConfig, predict, train, train_cross_entropy_only
from aucal.cli import _load_binarized, demo_synth_config, run
from aucal.data import binarize, load_dataset, save_dataset
from aucal.errors import Diverged, InvalidConfig, RepeatedAu
from aucal.metrics import build_fair_test_set, evaluate, summarize_runs
from aucal.relabel import relabel_to_parity
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
    config = dataclasses.replace(demo_synth_config(7), n=400)
    return binarize(generate(config).dataset, {"AU6": 2.5, "AU12": 2.5})


@pytest.mark.parametrize("trainer", [train, train_cross_entropy_only])
def test_finite_blow_up_raises(trainer):
    config = TrainConfig(lam=10.0, learning_rate=500.0, epochs=5)
    with pytest.raises(Diverged, match="epoch 1: cross-entropy"):
        trainer(_blow_up_data(), config, ["AU6", "AU12"])


def test_overflow_in_an_epoch_raises_diverged_without_a_warning():
    # lambda 1e308 overflows the triplet term mid-epoch; the suite turns a
    # RuntimeWarning into an error, so only Diverged may leave train
    with pytest.raises(Diverged, match="epoch 1: loss nan"):
        train(_dataset(400), TrainConfig(lam=1e308, epochs=5), ["AU6", "AU12"])


def test_train_cli_exits_1_on_finite_blow_up(tmp_path, capsys):
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    save_dataset(_blow_up_data(), data)
    code = run(["train", "--data", str(data), "--condition", "AU6,AU12",
                "--lambda", "10", "--lr", "500", "--epochs", "5",
                "--out", str(model)])
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


@pytest.mark.parametrize("command, extra", [
    ("audit", []), ("relabel", []), ("train", ["--epochs", "1"])])
def test_an_au_named_twice_in_thresholds_exits_1(tmp_path, capsys, command, extra):
    data, out = tmp_path / "d.csv", tmp_path / "out"
    save_dataset(generate(biased_config(seed=3, n=200, feature_dim=4)).dataset, data)
    argv = [command, "--data", str(data), "--condition", "AU6,AU12", *extra,
            "--out", str(out), "--thresholds"]
    assert run([*argv, "AU6=1,AU12=2, AU6=4"]) == 1
    assert "--thresholds names AU6 twice" in capsys.readouterr().err
    assert not out.exists()
    assert run([*argv, "AU6=4,AU12=2"]) == 0


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


def _one_model_row(dataset, config):
    """The compare table of a one-model spec run with --seeds 1: the model
    trained with seed 0 and scored on the fair test set built from its own
    test-split scores."""
    trained = train(dataset, config, ["AU6", "AU12"])
    test = dataset.split_part("test")
    scores, _ = predict(trained.params, test.feature_matrix())
    fair = build_fair_test_set(test, scores, "gender", seed=0)
    scores, _ = predict(trained.params, fair.feature_matrix())
    return summaries_csv([summarize_runs("m", [evaluate(scores, fair, "gender", "F")])])


def test_compare_honours_triplet_settings(tmp_path):
    data = _make_data(tmp_path, n=800)
    model = {"name": "m", "epochs": 1, "triplet_reduction": "mean",
             "max_triplets_per_anchor": 3}
    code, out = _compare(tmp_path, data, [model])
    assert code == 0

    dataset, _ = _load_binarized(data, "label", "AU6,AU12", {})
    config = TrainConfig(epochs=1, seed=0, triplet_reduction="mean",
                         max_triplets_per_anchor=3)
    assert out.read_text(encoding="utf-8") == _one_model_row(dataset, config)


def test_compare_honours_sum_reduction(tmp_path):
    # sum is no longer the default, so a spec that names it must get it; at
    # lr 0.01 the sum model predicted one class for every fair-test row
    data = _make_data(tmp_path, n=800)
    model = {"name": "m", "epochs": 1, "triplet_reduction": "sum",
             "max_triplets_per_anchor": 2, "learning_rate": 0.002}
    code, out = _compare(tmp_path, data, [model])
    assert code == 0

    dataset, _ = _load_binarized(data, "label", "AU6,AU12", {})
    rows = {reduction: _one_model_row(dataset, TrainConfig(
                epochs=1, seed=0, triplet_reduction=reduction,
                max_triplets_per_anchor=2, learning_rate=0.002))
            for reduction in ("sum", "mean")}
    assert rows["sum"] != rows["mean"]
    assert out.read_text(encoding="utf-8") == rows["sum"]


def test_compare_with_a_saturating_reference_exits_1(tmp_path, capsys):
    """lr 30 drives every test-split score of the one model outside
    [EASY_LOW, EASY_HIGH], so the fair test set would have no row."""
    code, out = _compare(tmp_path, _make_data(tmp_path), [
        {"name": "m", "lambda": 0, "learning_rate": 30, "epochs": 1, "d_emb": 1}])
    assert code == 1
    assert "no score of the 183 rows lies in [1e-05, 0.99999]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, message", [
    ({"name": "m", "lamda": 1.0}, "lamda"),
    ({"name": "m", "seed": 3}, "seed"),
    ({"name": "m", "triplet_reduction": "avg"}, "triplet_reduction"),
    ({"name": "m", "max_triplets_per_anchor": 0}, "max_triplets_per_anchor"),
    (1, "model spec must be a JSON object, not 1"),
    ({"epochs": 1}, "model spec: name must be a string"),
    ({"name": "m", "epochs": 1.5}, "epochs must be an integer, not 1.5"),
    ({"name": "m", "lambda": True}, "lambda must be a finite number, not True"),
    ({"name": "m", "epochs": "1"}, "epochs must be an integer, not '1'"),
])
def test_compare_rejects_bad_model_specs(tmp_path, capsys, model, message):
    code, out = _compare(tmp_path, tmp_path / "never-read.csv", [model])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


_SPEC = {"data": "never-read.csv", "condition": "AU6", "positive_group": "F",
         "models": [{"name": "m", "epochs": 1}]}


@pytest.mark.parametrize("spec, message", [
    ([1], "compare spec must be a JSON object, not [1]"),
    ({**_SPEC, "models": 3}, "models must be a list of model specs"),
    ({**_SPEC, "condition": 3}, "compare spec: condition must be a string, not 3"),
    ({**_SPEC, "data": 3}, "compare spec: data must be a string, not 3"),
    ({k: v for k, v in _SPEC.items() if k != "condition"},
     "compare spec: condition is missing"),
    ({**_SPEC, "label": 3}, "compare spec: label must be a string, not 3"),
    ({**_SPEC, "group": ["gender"]}, "compare spec: group must be a string"),
])
def test_compare_rejects_misshapen_specs(tmp_path, capsys, spec, message):
    configs, out = tmp_path / "runs.json", tmp_path / "c.csv"
    configs.write_text(json.dumps(spec), encoding="utf-8")
    code = run(["compare", "--configs", str(configs), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and message in err and "usage:" in err
    assert not out.exists()


def test_compare_rejects_unknown_top_level_keys(tmp_path, capsys):
    configs = tmp_path / "runs.json"
    configs.write_text(json.dumps({"data": "x.csv", "condition": "AU6",
                                   "positive_group": "F", "models": [],
                                   "seeds": 3}), encoding="utf-8")
    assert run(["compare", "--configs", str(configs),
                "--out", str(tmp_path / "c.csv")]) == 1
    assert "seeds" in capsys.readouterr().err


_SYNTH_CONFIG = {"n": 10, "group_probs": {"F": 1.0}, "latent_positive_prob": 0.5,
                 "au_models": {"AU6": {"mean_negative": 1.0, "mean_positive": 3.0}},
                 "annotator_intercept": 0.0, "annotator_weights": {}}


@pytest.mark.parametrize("change, message", [
    ({"grup_bias": {"F": 1.0}}, "unknown synth config keys: grup_bias"),
    ({"au_models": {"AU6": {"mean_negative": 1.0, "mean_positive": 3.0,
                            "sd": 0.5}}}, "unknown au_models AU6 keys: sd"),
])
def test_synth_rejects_unknown_config_keys(tmp_path, capsys, change, message):
    raw = _SYNTH_CONFIG
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, **change}), encoding="utf-8")
    out = tmp_path / "x.csv"
    assert run(["synth", "--config", str(path), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err and not out.exists()
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert run(["synth", "--config", str(path), "--out", str(out)]) == 0


@pytest.mark.parametrize("config, message", [
    ([1], "synth config must be a JSON object, not [1]"),
    ({"au_models": 3}, "au_models must be a JSON object, not 3"),
    ({"au_models": {"AU6": [1]}}, "au_models AU6 must be a JSON object"),
])
def test_synth_rejects_misshapen_configs(tmp_path, capsys, config, message):
    path, out = tmp_path / "config.json", tmp_path / "x.csv"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["synth", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "usage:" in err and not out.exists()


@pytest.mark.parametrize("change, message", [
    ({"n": "10"}, "n must be an integer, not '10'"),
    ({"n": 10.5}, "n must be an integer, not 10.5"),
    ({"group_probs": [1]}, "group_probs must map names to values, not [1]"),
    ({"au_models": {"AU6": {"mean_negative": "1", "mean_positive": 3.0}}},
     "au_models['AU6'].mean_negative must be a finite number, not '1'"),
    ({"n": 2**63}, "n must be a 64-bit integer, not 9223372036854775808"),
])
def test_synth_rejects_config_values_of_the_wrong_type(tmp_path, capsys, change,
                                                       message):
    path, out = tmp_path / "config.json", tmp_path / "x.csv"
    path.write_text(json.dumps({**_SYNTH_CONFIG, **change}), encoding="utf-8")
    assert run(["synth", "--config", str(path), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("change, message", [
    ({"au_models": {}}, "au_models must name at least one AU"),
    ({"au_models": {"AU6": {"mean_negative": 1e308, "mean_positive": 3.0}}},
     "AU6: mean 1e+308 and std 0.8 put no intensity in [0.0, 5.0]"),
    ({"feature_dim": 2, "feature_noise_std": -1.0}, "feature_noise_std must be >= 0"),
    ({"annotator_weights": {"AU6": 1e308}}, "annotator intercept, weights and group_bias "
                                            "overflow a float"),
    ({"n": 50, "feature_dim": 1, "feature_noise_std": 1e308},
     "feature_noise_std 1e+308 draws features that are not finite"),
    ({"n": 2000, "seed": 3, "latent_positive_prob": 0.0,
      "au_models": {"AU6": {"mean_negative": -40.0, "mean_positive": 3.0, "std_negative": 1.0}}},
     "AU6: mean -40.0 and std 1.0 put no intensity in [0.0, 5.0]"),
])
def test_synth_rejects_configs_it_cannot_draw_from(tmp_path, capsys, change, message):
    """Each of these ended in a traceback or a numpy overflow warning, or
    wrote a file that load_dataset refuses (features of inf). At a mean 40
    sd below 0, even the mirrored draw's ndtr underflows to 0."""
    path, out = tmp_path / "config.json", tmp_path / "x.csv"
    path.write_text(json.dumps({**_SYNTH_CONFIG, **change}), encoding="utf-8")
    assert run(["synth", "--config", str(path), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err and not out.exists()


def test_synth_draws_with_a_tiny_std(tmp_path):
    """A bound 1e320 stds away standardizes to -inf without a warning."""
    config = {**_SYNTH_CONFIG, "latent_positive_prob": 0.0,
              "au_models": {"AU6": {"mean_negative": 1.0, "mean_positive": 3.0,
                                    "std_negative": 1e-320}}}
    path, out = tmp_path / "config.json", tmp_path / "x.csv"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["synth", "--config", str(path), "--out", str(out)]) == 0
    assert load_dataset(out).dataset.intensity.tolist() == [[1.0]] * 10


def test_synth_takes_a_noise_std_of_negative_zero(tmp_path):
    """-0.0 passes validate's >= 0; numpy's normal refused it as a scale."""
    outs = []
    for std in (0.0, -0.0):
        path, out = tmp_path / "config.json", tmp_path / f"{std}.csv"
        path.write_text(json.dumps({**_SYNTH_CONFIG, "feature_dim": 1,
                                    "feature_noise_std": std}), encoding="utf-8")
        assert run(["synth", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("kwargs", [
    {"triplet_reduction": "avg"},
    {"max_triplets_per_anchor": 0},
])
def test_train_config_rejects_bad_triplet_settings(kwargs):
    with pytest.raises(InvalidConfig):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"epochs": 1.5}, {"lam": True}, {"batch_size": "8"}, {"margin": float("nan")},
    {"triplet_reduction": 1},
])
def test_train_config_rejects_fields_of_the_wrong_type(kwargs):
    with pytest.raises(InvalidConfig, match="must be"):
        TrainConfig(**kwargs)


def test_compare_without_a_test_split_exits_1_before_training(tmp_path, capsys,
                                                             monkeypatch):
    data = tmp_path / "train_only.csv"
    save_dataset(binarize(generate(biased_config(seed=3, n=400, feature_dim=6,
                                                 leak=2)).dataset,
                          {"AU6": 2.2, "AU12": 2.2}), data)

    def no_training(*args):
        raise AssertionError("compare trained with nothing to evaluate on")

    monkeypatch.setattr(cli, "train", no_training)
    code, out = _compare(tmp_path, data, [{"name": "m", "epochs": 1}])
    assert code == 1
    assert "no rows with split == 'test'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", [0, -2])
def test_compare_with_no_seeds_exits_1(tmp_path, capsys, seeds):
    code, out = _compare(tmp_path, _make_data(tmp_path, n=400),
                         [{"name": "m", "epochs": 1}], seeds=seeds)
    assert code == 1
    assert "m: no runs to summarize" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("aus", [["AU6", "AU6"], ["AU12", "AU6", "AU12"]])
def test_repeated_condition_au_is_rejected(aus):
    dataset = _dataset(400)
    with pytest.raises(RepeatedAu, match="named twice"):
        dataset.cell_keys(aus)
    with pytest.raises(RepeatedAu):
        conditional_bias_report(dataset, aus, "gender")
    with pytest.raises(RepeatedAu):
        relabel_to_parity(dataset, aus, "gender", seed=0)


@pytest.mark.parametrize("command", ["audit", "relabel", "train"])
def test_repeated_condition_au_exits_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = run([command, "--data", str(_make_data(tmp_path, n=400)),
                "--condition", "AU6,AU6", "--out", str(out)])
    assert code == 1
    assert "AU is named twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("truth_cols", ["AU6,AU6", "AU6,AU12,AU6"])
def test_repeated_truth_col_exits_1(tmp_path, capsys, truth_cols):
    data = tmp_path / "cal.csv"
    data.write_text("id,AU6,AU12,AU6_true,AU12_true,gender\n"
                    "a,1.0,2.0,0,1,F\nb,3.0,0.5,1,0,M\nc,2.5,1.0,1,0,F\nd,0.5,3.0,0,1,M\n",
                    encoding="utf-8")
    out = tmp_path / "cal.json"
    assert run(["calibrate", "--data", str(data), "--truth-cols", truth_cols,
                "--out", str(out)]) == 1
    assert f"an AU is named twice in --truth-cols {truth_cols}" in capsys.readouterr().err
    assert not out.exists()
    assert run(["calibrate", "--data", str(data), "--truth-cols", "AU6,AU12",
                "--out", str(out)]) == 0

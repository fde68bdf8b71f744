"""Property tests of relabeling and of the CLI on generated input.

- after relabel_to_parity, every (AU cell, group) positive proportion is
  within 1/n_g of the cell's pooled proportion before relabeling, and only
  the rows the flip log names change label;
- audit, relabel, train, calibrate and eval exit with 0, 1 or 2 on CSV text
  of mostly valid cells, and never raise;
- an audit that exits 0 gives every tested cell a finite chi-square and a
  p-value in [0, 1];
- eval exits with 0, 1 or 2 on a saved model with one field changed, and
  never raises, with numpy's RuntimeWarnings raised as errors;
- compare and synth exit with 0, 1 or 2 on any JSON value and on valid
  specs and configs with one field changed, and never raise.
"""

import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aucal.cli import run
from aucal.relabel import relabel_to_parity
from conftest import NO_POSITIVES_BELOW, Row, dataset_of

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def labelled(draw):
    """A binarized dataset with labels -1..2 and at least two groups."""
    aus = draw(st.lists(st.sampled_from(["AU1", "AU6", "AU12"]), min_size=1,
                        max_size=3, unique=True))
    extra = draw(st.lists(st.sampled_from(["F", "M", "X"]), max_size=38))
    records = [
        Row(id=f"r{i}", au_intensities={au: 1.0 for au in aus},
            label=draw(st.sampled_from([-1, 0, 1, 1, 2])),
            group={"gender": group},
            au_presence={au: draw(st.integers(0, 1)) for au in aus})
        for i, group in enumerate(["F", "M", *extra])
    ]
    return dataset_of(records, aus), aus


@SETTINGS
@given(labelled(), st.integers(0, 3))
def test_relabel_reaches_parity_and_flips_only_logged_rows(case, seed):
    dataset, aus = case
    out, log = relabel_to_parity(dataset, aus, "gender", seed=seed)
    before, after = dataset.labels(), out.labels()
    cells = dataset.cell_keys(aus).codes
    groups = dataset.group_codes("gender")
    for cell in np.unique(cells):
        in_cell = cells == cell
        n_cell, pooled = int(in_cell.sum()), int((before[in_cell] == 1).sum())
        for group in np.unique(groups[in_cell]):
            rows = in_cell & (groups == group)
            n_g, positives = int(rows.sum()), int((after[rows] == 1).sum())
            # |positives / n_g - pooled / n_cell| <= 1 / n_g, in integers
            assert abs(positives * n_cell - pooled * n_g) <= n_cell
    flipped = {entry.record_id: entry.direction for entry in log.entries}
    for record_id, old, new in zip(dataset.ids.tolist(), before.tolist(),
                                   after.tolist()):
        if record_id not in flipped:
            assert new == old
        elif flipped[record_id] == "pos_to_neg":
            assert (old, new) == (1, 0)
        else:
            assert old != 1 and new == 1


HEADER = ["id", "AU6", "AU12", "AU6_true", "AU12_true", "label", "gender",
          "split", "f0", "f1"]
INTENSITY = st.floats(0.0, 5.0).map(lambda v: f"{v:.3f}")
FEATURE = st.floats(-3.0, 3.0).map(lambda v: f"{v:.3f}")
BIT = st.sampled_from(["0", "1"])
# a valid cell for each column after id
VALID = [INTENSITY, INTENSITY, BIT, BIT, st.sampled_from(["0", "1", "2"]),
         st.sampled_from(["F", "M"]), st.sampled_from(["train", "test"]),
         FEATURE, FEATURE]
BAD = st.sampled_from(["", " ", "x", "nan", "inf", "-1", "9.0", "7", "1.5", " 1 ",
                       "12345678901234567890", "1e400", '"', "a,b"])


@st.composite
def csv_text(draw):
    """A CSV in the dataset and calibration schemas; about one cell in 20
    is malformed and about one row in 20 is cut short."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(HEADER)
    for i in range(draw(st.integers(0, 12))):
        row = [f"r{i}", *(draw(valid) for valid in VALID)]
        row = [draw(BAD) if draw(st.integers(0, 19)) == 0 else cell for cell in row]
        if draw(st.integers(0, 19)) == 0:
            row = row[:draw(st.integers(0, len(row) - 1))]
        writer.writerow(row)
    return out.getvalue()


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """A model over the two feature columns, trained for one epoch."""
    tmp = tmp_path_factory.mktemp("model")
    gen = np.random.default_rng(0)
    rows = [",".join(HEADER)]
    for i in range(40):
        au6, au12 = gen.uniform(0.0, 5.0, 2)
        rows.append(f"r{i},{au6:.3f},{au12:.3f},1,0,{i % 2},{'FM'[i % 3 % 2]},"
                    f"train,{gen.normal():.3f},{gen.normal():.3f}")
    data, path = tmp / "data.csv", tmp / "model.json"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run(["train", "--data", str(data), "--condition", "AU6,AU12",
                "--epochs", "1", "--out", str(path)]) == 0
    return path


@SETTINGS
@given(text=csv_text())
def test_cli_exits_0_1_or_2_on_generated_csv(model, text):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text(text, encoding="utf-8")
        shared = ["--data", str(data), "--condition", "AU6,AU12",
                  "--thresholds", "AU6=2.5,AU12=2.5"]
        commands = [
            ["audit", *shared, "--out", f"{tmp}/audit.json"],
            ["relabel", *shared, "--out", f"{tmp}/relabeled.csv"],
            ["train", *shared, "--epochs", "1", "--out", f"{tmp}/model.json"],
            ["calibrate", "--data", str(data), "--truth-cols", "AU6,AU12",
             "--out", f"{tmp}/calibration.json"],
            ["eval", "--model", str(model), "--test", str(data),
             "--positive-group", "F", "--out", f"{tmp}/eval.json"],
        ]
        for argv in commands:
            assert run(argv) in (0, 1, 2), argv[0]


@SETTINGS
@given(text=csv_text(), min_expected=st.sampled_from(["0", "5"]))
@example(text=NO_POSITIVES_BELOW, min_expected="0")
def test_audit_tests_a_cell_only_with_a_statistic(text, min_expected):
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data.csv", Path(tmp) / "audit.json"
        data.write_text(text, encoding="utf-8")
        code = run(["audit", "--data", str(data), "--condition", "AU6", "--thresholds",
                    "AU6=2.5", "--min-expected", min_expected, "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 0:
            for cell in json.loads(out.read_text(encoding="utf-8"))["report"]["cells"]:
                if cell["status"] == "tested":
                    assert isinstance(cell["chi_square"], (int, float))
                    assert math.isfinite(cell["chi_square"])
                    assert isinstance(cell["p_value"], (int, float))
                    assert 0 <= cell["p_value"] <= 1


MODEL_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
    st.sampled_from([1e308, -1e308, 1e300, -1e300, 1e400, 2**63, "ragged", "empty"]))


@SETTINGS
@given(st.data())
def test_eval_exits_0_1_or_2_on_a_model_with_one_field_changed(model, data):
    """One field of a saved model set to null, a bool, a string, a huge
    number, a ragged or an empty list, or deleted: a top-level key, a
    weight row or a weight."""
    saved = json.loads(model.read_text(encoding="utf-8"))
    target, key = saved, data.draw(st.sampled_from(sorted(saved)))
    while isinstance(target[key], list) and target[key] and data.draw(st.booleans()):
        target, key = target[key], data.draw(st.integers(0, len(target[key]) - 1))
    value = data.draw(MODEL_VALUES)
    if isinstance(target, dict) and data.draw(st.integers(0, 5)) == 0:
        del target[key]
    elif value == "ragged" and isinstance(target[key], list):
        target[key] = target[key][:-1]
    else:
        target[key] = [] if value == "empty" else value
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_json(Path(tmp) / "model.json", saved)
        assert run(["eval", "--model", str(path), "--test", str(model.parent / "data.csv"),
                    "--positive-group", "F", "--out", f"{tmp}/eval.json"]) in (0, 1, 2)


# JSON values for the two JSON inputs, compare --configs and synth --config.
# Integers are small or beyond int64: the sizes between are valid requests
# for more memory or time than a test has.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(-3, 40), st.sampled_from([2**63, -2**63 - 1, 10**400]),
    st.floats(), st.sampled_from([0.0, -0.0, 1e-320, 1e308, -1e308]))
JSON = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


@st.composite
def near_valid(draw, valid: dict, nested: str):
    """valid with one field changed, deleted or added, at the top level or
    in one of the objects under valid[nested]."""
    spec = json.loads(json.dumps(valid))
    target = spec
    inner = spec[nested]
    if draw(st.booleans()):
        keys = list(range(len(inner))) if isinstance(inner, list) else sorted(inner)
        target = inner[draw(st.sampled_from(keys))]
    key = draw(st.sampled_from(sorted(target) + ["extra"]))
    if draw(st.integers(0, 4)) == 0:
        target.pop(key, None)
    else:
        target[key] = draw(st.one_of(JSON_SCALARS, JSON))
    return spec


def _synth_config():
    return {"n": 24, "group_probs": {"F": 0.5, "M": 0.5}, "latent_positive_prob": 0.5,
            "au_models": {"AU6": {"mean_negative": 1.0, "mean_positive": 3.0},
                          "AU12": {"mean_negative": 1.5, "mean_positive": 3.5,
                                   "std_negative": 0.5, "std_positive": 0.9}},
            "annotator_intercept": -1.0, "annotator_weights": {"AU6": 0.5, "AU12": 0.3},
            "group_bias": {"F": 1.0}, "composition_shift": {"M": 0.4},
            "thresholds": {"AU6": 2.2}, "feature_dim": 3, "feature_noise_std": 0.1,
            "group_leak_dims": 1, "test_fraction": 0.3, "group_attr": "gender", "seed": 1}


@pytest.fixture(scope="module")
def compare_data(tmp_path_factory):
    """A 40-row file with a test split, for compare specs to train on."""
    path = tmp_path_factory.mktemp("compare") / "data.csv"
    assert run(["synth", "--config", str(_write_json(path.with_suffix(".json"),
                                                    _synth_config() | {"n": 40})),
                "--out", str(path)]) == 0
    return path


def _write_json(path: Path, value) -> Path:
    path.write_text(json.dumps(value), encoding="utf-8")
    return path


@SETTINGS
@given(st.one_of(JSON, near_valid(_synth_config(), "au_models")))
def test_synth_exits_0_1_or_2_on_generated_json(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_json(Path(tmp) / "config.json", config)
        assert run(["synth", "--config", str(path), "--out", f"{tmp}/out.csv"]) in (0, 1, 2)


@SETTINGS
@given(data=st.data())
def test_compare_exits_0_1_or_2_on_generated_json(compare_data, data):
    valid = {"data": str(compare_data), "condition": "AU6,AU12", "positive_group": "F",
             "label": "label", "group": "gender", "thresholds": {},
             "models": [{"name": "a", "epochs": 1, "batch_size": 8},
                        {"name": "b", "lambda": 0.0, "epochs": 2, "d_emb": 4}]}
    spec = data.draw(st.one_of(JSON, near_valid(valid, "models")))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_json(Path(tmp) / "spec.json", spec)
        assert run(["compare", "--configs", str(path), "--seeds", "1",
                    "--out", f"{tmp}/out.csv"]) in (0, 1, 2)

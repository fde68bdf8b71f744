"""Property tests of relabeling and of the CLI on generated input.

- after relabel_to_parity, every (AU cell, group) positive proportion is
  within 1/n_g of the cell's pooled proportion before relabeling, and only
  the rows the flip log names change label;
- audit, relabel, train, calibrate and eval exit with 0, 1 or 2 on CSV text
  of mostly valid cells, and never raise.
"""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucal.cli import run
from aucal.relabel import relabel_to_parity
from conftest import Row, dataset_of

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

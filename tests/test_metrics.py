import numpy as np
import pytest

from aucal.data import binarize
from aucal.errors import (EmptyInput, InfeasibleBalance, InsufficientData, Misaligned,
                          MissingGroup, SingleClass)
from aucal.metrics import (
    EASY_HIGH,
    EASY_LOW,
    EvalResult,
    build_fair_test_set,
    cv_discrimination,
    evaluate,
    f1_score,
    select_threshold,
    summarize_runs,
)
from aucal.rng import Rng
from conftest import dataset_of, record, rows_of


def _predictions(rate_f, n_f, rate_m, n_m):
    pred = [1] * round(rate_f * n_f) + [0] * (n_f - round(rate_f * n_f))
    pred += [1] * round(rate_m * n_m) + [0] * (n_m - round(rate_m * n_m))
    groups = ["F"] * n_f + ["M"] * n_m
    return pred, groups


def test_cv_discrimination_baseline_rates():
    # 0.3916 F vs 0.3342 M -> 0.0574
    pred, groups = _predictions(0.3916, 10000, 0.3342, 10000)
    signed, absolute = cv_discrimination(pred, groups, "F")
    assert signed == pytest.approx(0.0574, abs=1e-9)
    assert absolute == pytest.approx(0.0574, abs=1e-9)


def test_cv_discrimination_mitigated_rates():
    # 0.3655 F vs 0.3603 M -> 0.0052
    pred, groups = _predictions(0.3655, 10000, 0.3603, 10000)
    signed, _ = cv_discrimination(pred, groups, "F")
    assert signed == pytest.approx(0.0052, abs=1e-9)


def test_cv_discrimination_sign_flips_with_reference_group():
    pred, groups = _predictions(0.6, 10, 0.4, 10)
    s_f, a_f = cv_discrimination(pred, groups, "F")
    s_m, a_m = cv_discrimination(pred, groups, "M")
    assert s_f == pytest.approx(0.2)
    assert s_m == pytest.approx(-0.2)
    assert a_f == a_m == pytest.approx(0.2)


def test_cv_discrimination_equal_rates():
    pred, groups = _predictions(0.5, 100, 0.5, 100)
    assert cv_discrimination(pred, groups, "F") == (0.0, 0.0)


def test_cv_discrimination_unknown_group():
    with pytest.raises(MissingGroup):
        cv_discrimination([1, 0], ["F", "M"], "X")
    with pytest.raises(InsufficientData, match=r"two group levels, got \['F', 'M', 'Q'\]"):
        cv_discrimination([1, 0, 1], ["F", "M", "Q"], "F")


def test_select_threshold_separable():
    t, acc = select_threshold([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert 0.2 < t < 0.8
    assert acc == 1.0


def test_select_threshold_matches_brute_force():
    gen = Rng(0, ("thr",)).generator()
    for rep in range(10):
        s = gen.random(200)
        y = (gen.random(200) < s).astype(int)
        t, acc = select_threshold(s, y)
        best = -1.0
        for cand in np.concatenate([[-0.5], (np.sort(np.unique(s))[:-1]
                                             + np.sort(np.unique(s))[1:]) / 2,
                                    [1.5]]):
            a = np.mean((s > cand).astype(int) == y)
            best = max(best, a)
        assert acc == pytest.approx(best)
        assert np.mean((s > t).astype(int) == y) == pytest.approx(acc)


def test_select_threshold_tie_prefers_smallest():
    # thresholds below 0.5 and above 0.5 tie; the smaller grid point wins
    s = [0.2, 0.8]
    y = [1, 0]
    t, acc = select_threshold(s, y)
    assert acc == 0.5
    assert t == pytest.approx(-0.3)  # min(s) - 0.5, the first grid point


def test_select_threshold_single_class():
    with pytest.raises(SingleClass):
        select_threshold([0.1, 0.9], [1, 1])


def test_select_threshold_misaligned():
    with pytest.raises(Misaligned):
        select_threshold([0.1, 0.9], [1])


def _scored_dataset(n_f=400, n_m=400, rate_f=0.6, rate_m=0.3, seed=0):
    gen = Rng(seed, ("fairset",)).generator()
    recs, scores = [], []
    i = 0
    for gender, n, rate in (("F", n_f, rate_f), ("M", n_m, rate_m)):
        for j in range(n):
            label = int(j < round(rate * n))
            au = 3.0 if gen.random() < 0.5 else 1.0
            recs.append(record(i, au, au, label, gender))
            # mid-range scores so nothing gets pruned
            scores.append(float(gen.uniform(0.2, 0.8)))
            i += 1
    ds = binarize(dataset_of(recs, ["AU6", "AU12"]), {"AU6": 2.0, "AU12": 2.0})
    return ds, np.array(scores)


def test_fair_test_set_rate_balance():
    ds, scores = _scored_dataset()
    fair = build_fair_test_set(ds, scores, "gender")
    y = fair.labels()
    grp = np.array(fair.group_values("gender"))
    rates = {lvl: y[grp == lvl].mean() for lvl in ("F", "M")}
    n_min = min(int((grp == lvl).sum()) for lvl in ("F", "M"))
    assert abs(rates["F"] - rates["M"]) <= 1.0 / n_min
    # balancing only drops records from the over-represented stratum
    assert set(r.id for r in rows_of(fair)) <= set(r.id for r in rows_of(ds))
    assert int((grp == "M").sum()) == 400  # under-represented group intact


def test_fair_test_set_prunes_easy_scores():
    ds, scores = _scored_dataset(rate_f=0.5, rate_m=0.5)
    scores = scores.copy()
    scores[:10] = 1e-9   # below easy_low
    scores[10:20] = 1.0  # above easy_high
    fair = build_fair_test_set(ds, scores, "gender")
    kept_ids = {r.id for r in rows_of(fair)}
    assert all(f"r{i}" not in kept_ids for i in range(20))


def test_fair_test_set_keeps_scores_on_the_easy_bounds():
    ds, scores = _scored_dataset(rate_f=0.5, rate_m=0.5)
    scores = scores.copy()
    scores[:2] = EASY_LOW, EASY_HIGH
    assert len(build_fair_test_set(ds, scores, "gender")) == len(ds)


def test_fair_test_set_rounds_the_positives_to_remove():
    # F: 5 of 10 positive, M: 3 of 10; removing k = 2/0.7 = 2.86 -> 3 F
    # positives gives F the rate 2/7, nearer 0.3 than the 3/8 of k = 2
    ds, _ = _scored_dataset(n_f=10, n_m=10, rate_f=0.5, rate_m=0.3)
    fair = build_fair_test_set(ds, np.full(20, 0.5), "gender")
    assert len(fair) == 17
    assert int(fair.labels()[fair.group_values("gender") == "F"].sum()) == 2


def test_fair_test_set_of_all_positive_groups_keeps_every_row():
    ds, scores = _scored_dataset(rate_f=1.0, rate_m=1.0)
    assert len(build_fair_test_set(ds, scores, "gender")) == len(ds)


def test_fair_test_set_equal_rates_noop():
    ds, scores = _scored_dataset(rate_f=0.5, rate_m=0.5)
    fair = build_fair_test_set(ds, scores, "gender")
    assert len(fair) == len(ds)


def test_fair_test_set_no_positives():
    ds, scores = _scored_dataset(rate_f=0.0, rate_m=0.5)
    with pytest.raises(InfeasibleBalance):
        build_fair_test_set(ds, scores, "gender")


def test_fair_test_set_misaligned():
    ds, scores = _scored_dataset()
    with pytest.raises(Misaligned):
        build_fair_test_set(ds, scores[:-1], "gender")


def test_fair_test_set_deterministic():
    ds, scores = _scored_dataset()
    a = build_fair_test_set(ds, scores, "gender", seed=5)
    b = build_fair_test_set(ds, scores, "gender", seed=5)
    assert [r.id for r in rows_of(a)] == [r.id for r in rows_of(b)]


def test_evaluate_misaligned():
    ds, scores = _scored_dataset()
    with pytest.raises(Misaligned):
        evaluate(scores[:-1], ds, "gender", "F")


def test_evaluate_predicts_as_the_threshold_scan_counts():
    """The midpoint of two adjacent doubles rounds to the lower one, which
    the scan counts as predicted 0; evaluate's predictions agree."""
    low = 0.5
    ds = dataset_of([record(i, 1.0, 1.0, i % 2, "FFMM"[i]) for i in range(4)], ["AU6", "AU12"])
    res = evaluate(np.array([low, np.nextafter(low, 1.0)] * 2), ds, "gender", "F")
    assert (res.threshold, res.accuracy, res.f1) == (low, 1.0, 1.0)


def test_f1_with_no_positive_prediction_or_truth_is_0():
    assert f1_score(np.zeros(4), np.zeros(4)) == 0.0


def test_evaluate_perfect_scores():
    ds, _ = _scored_dataset(n_f=100, n_m=100, rate_f=0.5, rate_m=0.5)
    scores = ds.labels().astype(float) * 0.8 + 0.1
    res = evaluate(scores, ds, "gender", positive_group="F")
    assert res.accuracy == 1.0
    assert res.f1 == 1.0
    assert res.disc_abs == pytest.approx(0.0)


def test_evaluate_biased_predictions():
    ds, _ = _scored_dataset(n_f=100, n_m=100, rate_f=0.6, rate_m=0.3)
    scores = ds.labels().astype(float) * 0.8 + 0.1
    res = evaluate(scores, ds, "gender", positive_group="F")
    assert res.disc_signed == pytest.approx(0.3)
    assert res.per_group_positive_rate == {"F": 0.6, "M": 0.3}


def test_summarize_runs_moments():
    results = [
        EvalResult(0.5, acc, 0.5, {}, d, abs(d))
        for acc, d in ((0.80, 0.02), (0.82, 0.04), (0.84, 0.06))
    ]
    summary = summarize_runs("demo", results)
    assert summary.mean_disc_abs == pytest.approx(0.04)
    assert summary.std_disc_abs == pytest.approx(0.02)
    assert summary.mean_accuracy == pytest.approx(0.82)
    assert summary.n_runs == 3


def test_summarize_single_run_zero_std():
    summary = summarize_runs("one", [EvalResult(0.5, 0.8, 0.5, {}, 0.1, 0.1)])
    assert summary.std_disc_abs == 0.0


def test_summarize_two_runs_uses_the_sample_std():
    summary = summarize_runs("two", [EvalResult(0.5, 0.8, 0.5, {}, d, d) for d in (0.1, 0.3)])
    assert summary.std_disc_abs == pytest.approx(0.1 * 2 ** 0.5)


def test_threshold_and_evaluate_reject_zero_scores():
    with pytest.raises(EmptyInput, match="no scores"):
        select_threshold([], [])
    ds = dataset_of([record(i, 1.0, 1.0, i % 2, "F" if i % 2 else "M")
                     for i in range(4)], ["AU6", "AU12"])
    with pytest.raises(EmptyInput, match="no scores"):
        evaluate(np.zeros(0), ds.split_part("test"), "gender", "F")


def test_summarize_runs_rejects_no_runs():
    with pytest.raises(EmptyInput, match="no runs"):
        summarize_runs("m", [])

import numpy as np
import pytest

from aucal.audit import (
    bias_curves,
    conditional_bias_report,
    group_design,
    logistic_fit,
    multi_group_bias_report,
)
from aucal.data import binarize, make_dataset
from aucal.errors import NotBinarized, Separation, SingularDesign
from aucal.rng import Rng
from aucal.synth import generate
from conftest import biased_config, record


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_logistic_recovers_generator():
    gen = Rng(5, ("logistic",)).generator()
    n = 50000
    beta = np.array([-1.0, 0.8, 0.5, 0.6])
    X = np.stack(
        [np.ones(n), gen.uniform(0, 5, n), gen.uniform(0, 5, n),
         (gen.random(n) < 0.5).astype(float)],
        axis=1,
    )
    y = (gen.random(n) < _sigmoid(X @ beta)).astype(int)
    fit = logistic_fit(X, y)
    assert fit.converged
    assert np.all(np.abs(fit.beta - beta) <= 3 * fit.std_errors)
    assert fit.p_values[3] < 0.001  # the group indicator is significant


def test_logistic_score_norm_at_convergence():
    gen = Rng(6, ("score",)).generator()
    n = 2000
    X = np.stack([np.ones(n), gen.normal(0, 1, n)], axis=1)
    y = (gen.random(n) < _sigmoid(X @ np.array([0.3, 0.7]))).astype(int)
    fit = logistic_fit(X, y)
    mu = _sigmoid(X @ fit.beta)
    assert np.linalg.norm(X.T @ (y - mu)) < 1e-8


def test_logistic_null_coefficient_p_uniform():
    # with no true group effect the group p-value is uniform; check the
    # empirical CDF at a few quantiles over 200 replications
    ps = []
    for rep in range(200):
        gen = Rng(rep, ("null-p",)).generator()
        n = 800
        X = np.stack(
            [np.ones(n), gen.uniform(0, 5, n),
             (gen.random(n) < 0.5).astype(float)],
            axis=1,
        )
        y = (gen.random(n) < _sigmoid(-1.0 + 0.6 * X[:, 1])).astype(int)
        ps.append(logistic_fit(X, y).p_values[2])
    ps = np.array(ps)
    for q in (0.25, 0.5, 0.75):
        assert abs(np.mean(ps < q) - q) < 0.11


def test_logistic_separation():
    X = np.stack([np.ones(6), np.array([0, 1, 2, 3, 4, 5.0])], axis=1)
    y = np.array([0, 0, 0, 1, 1, 1])
    with pytest.raises(Separation):
        logistic_fit(X, y)


def test_logistic_singular_design():
    gen = Rng(1, ("sing",)).generator()
    n = 50
    const = np.full(n, 2.0)
    X = np.stack([np.ones(n), const, gen.normal(0, 1, n)], axis=1)
    y = (gen.random(n) < 0.5).astype(int)
    with pytest.raises(SingularDesign):
        logistic_fit(X, y)


def test_zero_positive_reference_level_is_a_logistic_error():
    # 5 levels whose 3-row reference level has no positives: the Newton
    # steps never converge and the inverse information has a negative
    # diagonal, which used to become NaN p-values with no error
    from aucal.data import AnnotatedRecord

    gen = np.random.default_rng(1)
    levels = np.repeat(np.arange(5), (3, 51, 113, 102, 30))
    au = gen.uniform(0, 5, (levels.size, 2))
    label = np.where(levels == 0, 0, gen.random(levels.size) < 0.4)
    recs = [AnnotatedRecord(id=f"r{i}", au_intensities={"AU6": a6, "AU12": a12},
                            label=int(lab), group={"age_group": f"g{lvl}"})
            for i, (lvl, (a6, a12), lab) in enumerate(zip(levels, au, label))]
    ds = binarize(make_dataset(recs, ["AU6", "AU12"]), {"AU6": 2.5, "AU12": 2.5})
    rep = conditional_bias_report(ds, ["AU6", "AU12"], "age_group")
    assert rep.logistic is None
    assert rep.logistic_error.startswith("SingularDesign")


def _two_group_dataset(n_pos_f, n_f, n_pos_m, n_m, au6=1, au12=1):
    recs = []
    i = 0
    for gender, n, n_pos in (("F", n_f, n_pos_f), ("M", n_m, n_pos_m)):
        for j in range(n):
            recs.append(record(i, 3.0 if au6 else 1.0, 3.0 if au12 else 1.0,
                               1 if j < n_pos else 0, gender))
            i += 1
    ds = make_dataset(recs, ["AU6", "AU12"])
    return binarize(ds, {"AU6": 2.0, "AU12": 2.0})


def test_conditional_report_proportions_and_delta():
    # ExpW-style (1,1) row: 0.870 F vs 0.801 M with thousands of samples
    ds = _two_group_dataset(n_pos_f=4350, n_f=5000, n_pos_m=4005, n_m=5000)
    rep = conditional_bias_report(ds, ["AU6", "AU12"], "gender",
                                  include_logistic=False)
    cell = [c for c in rep.cells if c.condition == "AU12=1,AU6=1"][0]
    assert cell.proportion_per_group["F"] == pytest.approx(0.870)
    assert cell.proportion_per_group["M"] == pytest.approx(0.801)
    # delta = second declared level (M) minus first (F)
    assert cell.delta == pytest.approx(-0.069)
    assert cell.status == "tested"
    assert cell.p_value < 0.001


def test_conditional_report_proportion_counts_are_integers():
    ds = _two_group_dataset(37, 100, 19, 50)
    rep = conditional_bias_report(ds, ["AU6", "AU12"], "gender",
                                  include_logistic=False)
    for cell in rep.cells:
        for lvl, prop in cell.proportion_per_group.items():
            n = cell.n_per_group[lvl]
            assert prop * n == pytest.approx(round(prop * n), abs=1e-9)


def test_conditional_report_insufficient_cell():
    ds = _two_group_dataset(2, 3, 1, 2)
    rep = conditional_bias_report(ds, ["AU6", "AU12"], "gender",
                                  include_logistic=False)
    cell = [c for c in rep.cells if c.condition == "AU12=1,AU6=1"][0]
    assert cell.status == "insufficient_data"
    assert cell.p_value is None


def test_conditional_report_requires_binarization():
    ds = make_dataset([record(0, 1.0, 1.0, 0, "F"),
                       record(1, 2.0, 2.0, 1, "M")], ["AU6", "AU12"])
    with pytest.raises(NotBinarized):
        conditional_bias_report(ds, ["AU6", "AU12"], "gender")


def test_conditional_report_marginal_mode():
    ds = _two_group_dataset(400, 500, 350, 500)
    rep = conditional_bias_report(ds, ["AU6", "AU12"], "gender",
                                  mode="marginal", include_logistic=False)
    assert [c.condition for c in rep.cells] == [
        "AU12=0", "AU12=1", "AU6=0", "AU6=1"
    ]


def test_conditional_report_order_invariance(biased_dataset):
    ds, _ = biased_dataset
    ds = ds.subset(range(4000))
    rep1 = conditional_bias_report(ds, ["AU6", "AU12"], "gender",
                                   include_logistic=False)
    perm = Rng(0, ("shuf",)).generator().permutation(len(ds))
    rep2 = conditional_bias_report(ds.subset(perm.tolist()),
                                   ["AU6", "AU12"], "gender",
                                   include_logistic=False)
    for a, b in zip(rep1.cells, rep2.cells):
        assert a.condition == b.condition
        assert a.p_value == b.p_value
        assert a.proportion_per_group == b.proportion_per_group


def test_group_is_significant_on_biased_data(biased_dataset):
    ds, _ = biased_dataset
    rep = conditional_bias_report(ds, ["AU6", "AU12"], "gender")
    assert rep.logistic is not None
    idx = rep.logistic.term_names.index("gender=M")
    assert rep.logistic.p_values[idx] < 0.001


def _multi_group_dataset(props, n_per_level=2000):
    from aucal.data import AnnotatedRecord

    recs = []
    i = 0
    for lvl, prop in props.items():
        n_pos = round(prop * n_per_level)
        for j in range(n_per_level):
            recs.append(AnnotatedRecord(
                id=f"m{i}",
                au_intensities={"AU6": 3.0, "AU12": 3.0},
                label=1 if j < n_pos else 0,
                group={"age_group": lvl},
            ))
            i += 1
    ds = make_dataset(recs, ["AU6", "AU12"])
    return binarize(ds, {"AU6": 2.0, "AU12": 2.0})


def test_multi_group_argmax_flag():
    # four age groups with the <=19 bin highest, large n: significant
    ds = _multi_group_dataset(
        {"a_le19": 0.838, "b_20_39": 0.832, "c_40_59": 0.765, "d_ge60": 0.806}
    )
    rep = multi_group_bias_report(ds, ["AU6", "AU12"], "age_group")
    cell = [c for c in rep.cells if c.condition == "AU12=1,AU6=1"][0]
    assert cell.status == "tested"
    assert cell.p_value < 0.001
    assert cell.argmax_level == "a_le19"


def test_multi_group_identical_levels():
    ds = _multi_group_dataset({"a": 0.5, "b": 0.5, "c": 0.5}, n_per_level=400)
    rep = multi_group_bias_report(ds, ["AU6", "AU12"], "age_group")
    cell = [c for c in rep.cells if c.condition == "AU12=1,AU6=1"][0]
    assert cell.chi_square == pytest.approx(0.0)
    assert cell.p_value == pytest.approx(1.0)


def test_multi_group_merge_policy():
    ds = _multi_group_dataset({"a": 0.5, "b": 0.6, "c": 0.4})
    # add a sliver level too small to test on its own
    extra = _multi_group_dataset({"tiny": 0.5}, n_per_level=4)
    merged_ds = make_dataset(ds.records + extra.records, ["AU6", "AU12"])
    insufficient = multi_group_bias_report(
        merged_ds, ["AU6", "AU12"], "age_group",
        small_level_policy="insufficient")
    merged = multi_group_bias_report(
        merged_ds, ["AU6", "AU12"], "age_group", small_level_policy="merge")
    cell_i = [c for c in insufficient.cells if c.condition == "AU12=1,AU6=1"][0]
    cell_m = [c for c in merged.cells if c.condition == "AU12=1,AU6=1"][0]
    assert cell_i.status == "insufficient_data"
    assert cell_m.status == "tested"
    assert "tiny" in cell_m.merged_levels


def test_bias_curves_identical_groups():
    gen = Rng(3, ("curves",)).generator()
    recs = []
    for i in range(2000):
        au6 = float(np.clip(gen.uniform(0, 5), 0, 5))
        au12 = float(np.clip(gen.uniform(0, 5), 0, 5))
        y = int(gen.random() < _sigmoid(-3 + 0.8 * au6 + 0.6 * au12))
        recs.append(record(i, au6, au12, y, "F" if i % 2 else "M"))
    ds = make_dataset(recs, ["AU6", "AU12"])
    grid = np.linspace(0, 5, 11)
    curves = bias_curves(ds, ["AU6", "AU12"], "gender", grid=grid)
    assert len(curves) == 4  # 2 groups x 2 AUs
    by = {(c.level, c.au_id): c for c in curves}
    # same generator for both groups: curves nearly coincide
    np.testing.assert_allclose(
        by[("F", "AU6")].probabilities, by[("M", "AU6")].probabilities,
        atol=0.08,
    )


def test_bias_curves_injected_shift_orders_curves():
    gen = Rng(4, ("curves2",)).generator()
    recs = []
    for i in range(6000):
        au6 = float(gen.uniform(0, 5))
        au12 = float(gen.uniform(0, 5))
        female = i % 2
        y = int(gen.random() < _sigmoid(-3 + 0.8 * au6 + 0.6 * au12
                                        + 0.6 * female))
        recs.append(record(i, au6, au12, y, "F" if female else "M"))
    ds = make_dataset(recs, ["AU6", "AU12"])
    grid = np.linspace(0.5, 4.5, 9)
    curves = {(c.level, c.au_id): c
              for c in bias_curves(ds, ["AU6", "AU12"], "gender", grid=grid)}
    assert np.all(curves[("F", "AU6")].probabilities
                  > curves[("M", "AU6")].probabilities)


def test_bias_curves_empty_grid():
    ds = _two_group_dataset(10, 20, 10, 20)
    assert bias_curves(ds, ["AU6"], "gender", grid=[]) == []


def test_null_false_positive_rate():
    # group-blind labels: tested cells flag at roughly the nominal rate
    sig = tot = 0
    for seed in range(60):
        cfg = biased_config(seed=seed, n=4000, beta_f=0.0)
        res = generate(cfg)
        ds = binarize(res.dataset, {"AU6": 2.2, "AU12": 2.2})
        rep = conditional_bias_report(ds, ["AU6", "AU12"], "gender",
                                      include_logistic=False)
        for c in rep.cells:
            if c.status == "tested":
                tot += 1
                sig += c.p_value < 0.05
    assert 0.01 <= sig / tot <= 0.10


def test_group_design_layout(biased_dataset):
    ds, _ = biased_dataset
    X, names = group_design(ds.subset(range(100)), ["AU6", "AU12"], "gender")
    assert names == ("intercept", "AU6", "AU12", "gender=M")
    assert np.all(X[:, 0] == 1.0)

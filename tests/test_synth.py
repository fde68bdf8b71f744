import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from aucal.data import AuCellKey
from aucal.errors import InvalidConfig
from aucal.rng import Rng
from aucal.stats import two_proportion_test
from aucal.synth import (
    AuModel,
    _ndtr,
    _ndtri,
    _truncnorm_draw,
    expected_cell_proportions,
    generate,
    with_fair_test_labels,
)
from conftest import biased_config, rows_of


def test_generate_deterministic():
    cfg = biased_config(seed=42, n=500, feature_dim=12, leak=4)
    a = generate(cfg)
    b = generate(cfg)
    assert [r.label for r in rows_of(a.dataset)] == [r.label for r in rows_of(b.dataset)]
    np.testing.assert_array_equal(a.fair_labels, b.fair_labels)
    np.testing.assert_array_equal(a.dataset.feature_matrix(),
                                  b.dataset.feature_matrix())


def test_generate_stream_separation():
    # feature noise draws come from their own stream: changing the noise
    # level leaves groups, intensities, and labels untouched
    base = biased_config(seed=7, n=800, feature_dim=12, leak=4)
    loud = replace(base, feature_noise_std=2.0)
    a, b = generate(base), generate(loud)
    assert [r.label for r in rows_of(a.dataset)] == [r.label for r in rows_of(b.dataset)]
    assert [r.group for r in rows_of(a.dataset)] == [r.group for r in rows_of(b.dataset)]
    np.testing.assert_array_equal(a.dataset.intensities("AU6"),
                                  b.dataset.intensities("AU6"))
    assert not np.array_equal(a.dataset.feature_matrix(),
                              b.dataset.feature_matrix())


def test_generate_no_features_stream_unchanged():
    # turning features on entirely must not perturb label draws
    plain = biased_config(seed=7, n=800)
    with_feats = biased_config(seed=7, n=800, feature_dim=12, leak=4)
    a, b = generate(plain), generate(with_feats)
    assert [r.label for r in rows_of(a.dataset)] == [r.label for r in rows_of(b.dataset)]


def test_generate_empty():
    res = generate(biased_config(seed=0, n=0))
    assert len(res.dataset) == 0
    assert res.fair_labels.size == 0


def test_intensities_within_bounds():
    res = generate(biased_config(seed=3, n=2000))
    for au in ("AU6", "AU12"):
        x = res.dataset.intensities(au)
        assert x.min() >= 0.0 and x.max() <= 5.0


def test_group_proportions_roughly_match():
    res = generate(biased_config(seed=9, n=20000))
    grp = np.array(res.dataset.group_values("gender"))
    assert abs((grp == "F").mean() - 0.5) < 0.02


def test_truncnorm_marginal_distribution():
    # AU6 negative-state draws follow the truncated normal CDF
    cfg = biased_config(seed=21, n=40000, beta_f=0.0)
    cfg = replace(cfg, latent_positive_prob=0.0)
    res = generate(cfg)
    x = res.dataset.intensities("AU6")
    m = cfg.au_models["AU6"]
    lo = ndtr((0.0 - m.mean_negative) / m.std_negative)
    hi = ndtr((5.0 - m.mean_negative) / m.std_negative)
    for q in (1.0, 2.0, 3.0):
        expected = (ndtr((q - m.mean_negative) / m.std_negative) - lo) / (hi - lo)
        assert abs((x < q).mean() - expected) < 0.01


def _ulps(got, ref):
    """|got - ref| in units of the spacing of doubles at ref."""
    return float(abs(got - ref) / np.spacing(abs(float(ref))))


def test_ndtr_against_mpmath():
    """0.5 * erfc(-x / sqrt(2)) rounds its argument once, which erfc's
    conditioning (x^2 in the lower tail) amplifies: within 2 (1 + x^2) ulp,
    down to the subnormal results at x = -38."""
    mp = pytest.importorskip("mpmath")
    mp.mp.prec = 120
    xs = np.concatenate([np.linspace(-38.4, 8.5, 400), -np.logspace(-300, 1, 40),
                         np.logspace(-300, 0.9, 40)])
    for x in xs:
        ref = mp.ncdf(mp.mpf(float(x)))
        assert _ulps(mp.mpf(float(_ndtr(x))), ref) <= 2 * (1 + x * x), x


def test_ndtri_against_mpmath():
    """Wichura's AS241 is within 6 ulp of the true quantile, from the
    smallest subnormal p to 1 - 2^-53."""
    mp = pytest.importorskip("mpmath")
    mp.mp.prec = 120
    ps = np.concatenate([np.logspace(-323, -1, 150), np.linspace(0.01, 0.99, 150),
                         1 - np.logspace(-15.9, -1, 100),
                         [5e-324, 0.5 - 2**-54, 0.5, 0.5 + 2**-53, 1 - 2**-53]])
    for p in ps:
        got = float(_ndtri(p))
        ref = mp.mpf(got)  # Newton's method from the result to the true quantile
        for _ in range(4):
            ref -= (mp.ncdf(ref) - mp.mpf(float(p))) / mp.npdf(ref)
        assert _ulps(mp.mpf(got), ref) <= 6, p


def test_ndtr_and_ndtri_edges_are_scipys():
    """Where inv_cdf would raise (p = 0 or 1) or a bound is beyond float
    range, the draws get scipy.special's infinities and NaNs."""
    xs = np.array([-np.inf, -1e308, -40.0, 0.0, 40.0, 1e308, np.inf, np.nan])
    np.testing.assert_array_equal(_ndtr(xs), ndtr(xs))
    ps = np.array([0.0, 0.5, 1.0, -0.5, 1.5, np.nan])
    np.testing.assert_array_equal(_ndtri(ps), ndtri(ps))


def test_a_lower_bound_far_above_the_mean_draws_from_the_mirrored_tail():
    """With the lower bound 7.5 sd above the mean, a + u (b - a) rounded to
    1 for some draws, whose intensity was then inf, and generate refused
    the config. The mirrored draw takes the tail probabilities near 0, so
    every intensity is in [0, 5] and distinct."""
    cfg = replace(biased_config(seed=3, n=2000, feature_dim=2), latent_positive_prob=0.0,
                  au_models={"AU6": AuModel(-7.5, 1.0, 1.0, 1.0)},
                  annotator_weights={}, thresholds={})
    x = generate(cfg).dataset.intensity[:, 0]
    assert ((x >= 0.0) & (x <= 5.0)).all() and np.unique(x).size == x.size


@pytest.mark.parametrize("mean", [-8.5, -9.0, -30.0])
def test_a_mean_far_below_0_validates_from_the_mirrored_mass(mean):
    """validate read the mass in [0, 5] as ndtr(5 - mean) - ndtr(-mean),
    two values that round to 1, and refused these models as putting no
    intensity there; the mirrored side keeps the mass, as the draw does.
    With latent_positive_prob 0 every row draws from the far-below model,
    and the annotator weighs AU6."""
    cfg = replace(biased_config(seed=3, n=10_000), latent_positive_prob=0.0,
                  au_models={"AU6": AuModel(mean, 3.0, 1.0, 1.0)},
                  annotator_weights={"AU6": 0.9}, thresholds={"AU6": 2.2})
    cfg.validate()
    x = generate(cfg).dataset.intensity[:, 0]
    assert ((x >= 0.0) & (x <= 5.0)).all() and np.unique(x).size == x.size
    props = expected_cell_proportions(cfg, AuCellKey((("AU6", 0),)))
    assert all(np.isfinite(p) and 0.0 < p < 1.0 for p in props.values())


def test_the_mirrored_mass_matches_scipy():
    """At mean -8 the unmirrored difference read 6.66e-16 (true 6.2e-16)."""
    from aucal.synth import _truncnorm_norm

    for mean in (-8.0, -9.0, -30.0, -0.5, 1.0):
        want = ndtr(mean) - ndtr(mean - 5.0) if mean < 0 else ndtr(5.0 - mean) - ndtr(-mean)
        assert _truncnorm_norm(mean, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)


@st.composite
def tail_models(draw):
    """(mean, std): mean in [-30, 10], std in [0.5, 2], [0, 5] within 30 sd."""
    std = draw(st.floats(0.5, 2.0))
    return draw(st.floats(max(-30.0, -30.0 * std), 10.0)), std


@settings(max_examples=60, deadline=None)
@given(tail_models(), st.integers(0, 2**32 - 1))
def test_truncated_draws_stay_in_range_and_keep_their_precision(model, seed):
    """10,000 draws lie in [0, 5], and at least 99.9% of them are distinct,
    however far [0, 5] lies in either tail."""
    mean, std = model
    x = _truncnorm_draw(np.random.default_rng(seed), mean, std, 10_000)
    assert ((x >= 0.0) & (x <= 5.0)).all()
    assert np.unique(x).size >= 9_990


def test_leak_dims_carry_group_signal():
    cfg = biased_config(seed=5, n=5000, feature_dim=12, leak=4)
    res = generate(cfg)
    X = res.dataset.feature_matrix()
    grp = np.array(res.dataset.group_values("gender"))
    # columns 2..5 are the leak dims (after the two AU dims)
    leak_col = X[:, 2]
    assert leak_col[grp == "M"].mean() - leak_col[grp == "F"].mean() > 0.9
    # a non-leak noise column shows no group offset
    noise_col = X[:, 8]
    assert abs(noise_col[grp == "M"].mean() - noise_col[grp == "F"].mean()) < 0.05


def test_test_fraction_split():
    cfg = biased_config(seed=4, n=10000, test_fraction=0.3)
    res = generate(cfg)
    frac = np.mean([r.split == "test" for r in rows_of(res.dataset)])
    assert abs(frac - 0.3) < 0.02


def test_invalid_configs():
    good = biased_config()
    with pytest.raises(InvalidConfig):
        generate(replace(good, n=-1))
    with pytest.raises(InvalidConfig):
        generate(replace(good, group_probs={"F": 0.6, "M": 0.6}))
    with pytest.raises(InvalidConfig):
        generate(replace(good, latent_positive_prob=1.5))
    with pytest.raises(InvalidConfig):
        generate(replace(good, group_bias={"X": 1.0}))
    with pytest.raises(InvalidConfig):
        generate(replace(good, annotator_weights={"AU99": 1.0}))
    with pytest.raises(InvalidConfig):
        generate(replace(good, feature_dim=1, group_leak_dims=4))
    with pytest.raises(InvalidConfig):
        generate(replace(good, test_fraction=1.0))
    with pytest.raises(InvalidConfig):
        generate(replace(
            good, au_models={"AU6": AuModel(1.0, 3.0, 0.0, 0.8),
                             "AU12": AuModel(1.0, 3.0)}))


@pytest.mark.parametrize("change", [
    {"n": "10"},
    {"n": 10.5},
    {"n": True},
    {"group_probs": [1]},
    {"group_probs": {1: 1.0}, "group_bias": {}},
    {"annotator_intercept": float("nan")},
    {"thresholds": {"AU6": float("inf")}},
    {"group_attr": 3},
    {"seed": 1e300},
    {"au_models": {"AU6": AuModel("1", 3.0), "AU12": AuModel(1.0, 3.0)}},
    {"au_models": {"AU6": {"mean_negative": 1.0, "mean_positive": 3.0},
                   "AU12": AuModel(1.0, 3.0)}},
])
def test_config_values_of_the_wrong_type_are_invalid(change):
    # checked in validate, so library callers get InvalidConfig, not a
    # TypeError or a numpy error from deep inside generate
    with pytest.raises(InvalidConfig, match="must (be|map)"):
        generate(replace(biased_config(n=10), **change))


def test_fair_labels_group_blind():
    # with the bias zeroed the fair column and label column coincide in
    # distribution; the fair column itself shows no group gap
    cfg = biased_config(seed=13, n=30000)
    res = generate(cfg)
    grp = np.array(res.dataset.group_values("gender"))
    k_f = int(res.fair_labels[grp == "F"].sum())
    k_m = int(res.fair_labels[grp == "M"].sum())
    p = two_proportion_test(k_f, int((grp == "F").sum()),
                            k_m, int((grp == "M").sum()))
    assert p > 0.01
    # whereas the biased labels show a large gap
    y = res.dataset.labels()
    p_biased = two_proportion_test(int(y[grp == "F"].sum()),
                                   int((grp == "F").sum()),
                                   int(y[grp == "M"].sum()),
                                   int((grp == "M").sum()))
    assert p_biased < 1e-10


def test_with_fair_test_labels_swaps_only_test_split():
    cfg = biased_config(seed=2, n=4000, test_fraction=0.4)
    res = generate(cfg)
    swapped = with_fair_test_labels(res)
    for i, (old, new) in enumerate(zip(rows_of(res.dataset), rows_of(swapped))):
        if old.split == "train":
            assert new.label == old.label
        else:
            assert new.label == res.fair_labels[i]


def test_expected_proportions_symmetric_when_unbiased():
    cfg = biased_config(beta_f=0.0)
    cell = AuCellKey((("AU6", 1), ("AU12", 1)))
    props = expected_cell_proportions(cfg, cell)
    assert props["F"] == pytest.approx(props["M"], abs=1e-12)


def test_expected_proportions_bias_direction():
    cfg = biased_config(beta_f=1.0)
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        cell = AuCellKey((("AU6", bits[0]), ("AU12", bits[1])))
        props = expected_cell_proportions(cfg, cell)
        assert props["F"] > props["M"]


def test_expected_proportions_monotone_in_presence():
    cfg = biased_config(beta_f=0.0)
    p00 = expected_cell_proportions(cfg, AuCellKey((("AU6", 0), ("AU12", 0))))
    p11 = expected_cell_proportions(cfg, AuCellKey((("AU6", 1), ("AU12", 1))))
    assert p11["M"] > p00["M"]


def test_expected_proportions_match_monte_carlo():
    # quadrature oracle vs a direct vectorized simulation of the
    # generative process, within 3 Monte Carlo standard errors per cell
    cfg = biased_config(beta_f=1.0)
    gen = Rng(17, ("mc",)).generator()
    n = 400000
    for level, beta in (("F", 1.0), ("M", 0.0)):
        latent = (gen.random(n) < cfg.latent_positive_prob).astype(int)
        xs = {}
        for au, m in cfg.au_models.items():
            mean = np.where(latent == 1, m.mean_positive, m.mean_negative)
            std = np.where(latent == 1, m.std_positive, m.std_negative)
            a = ndtr((0.0 - mean) / std)
            b = ndtr((5.0 - mean) / std)
            xs[au] = mean + std * ndtri(a + gen.random(n) * (b - a))
        eta = cfg.annotator_intercept + beta
        for au, w in cfg.annotator_weights.items():
            eta = eta + w * xs[au]
        y = (gen.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
        bits = {au: (xs[au] > cfg.threshold_for(au)).astype(int)
                for au in cfg.au_models}
        for b6 in (0, 1):
            for b12 in (0, 1):
                mask = (bits["AU6"] == b6) & (bits["AU12"] == b12)
                m = int(mask.sum())
                p_hat = float(y[mask].mean())
                se = np.sqrt(p_hat * (1 - p_hat) / m)
                cell = AuCellKey((("AU6", b6), ("AU12", b12)))
                oracle = expected_cell_proportions(cfg, cell)[level]
                assert abs(p_hat - oracle) <= 3 * se


def test_empirical_cells_match_oracle(biased_dataset):
    ds, cfg = biased_dataset
    grp = np.array(ds.group_values("gender"))
    y = ds.labels()
    keys = [k.describe() for k in ds.cell_keys(["AU6", "AU12"])]
    for b6 in (0, 1):
        for b12 in (0, 1):
            cell = AuCellKey((("AU6", b6), ("AU12", b12)))
            oracle = expected_cell_proportions(cfg, cell)
            tag = cell.describe()
            for level in ("F", "M"):
                mask = (np.array(keys) == tag) & (grp == level)
                m = int(mask.sum())
                p_hat = float(y[mask].mean())
                se = np.sqrt(max(p_hat * (1 - p_hat), 1e-12) / m)
                assert abs(p_hat - oracle[level]) <= 4 * se

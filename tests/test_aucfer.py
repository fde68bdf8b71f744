import numpy as np
import pytest

from aucal.aucfer import (
    Batch,
    ModelParams,
    TrainConfig,
    TripletSet,
    cross_entropy,
    forward,
    init_params,
    mine_triplets,
    predict,
    stratified_order,
    total_loss,
    train,
    train_cross_entropy_only,
    triplet_loss,
)
from aucal.data import AuCellKey, CellKeys, binarize
from aucal.errors import (
    DimensionMismatch,
    EmptyTrainSplit,
    IndexOutOfRange,
    InvalidConfig,
    InvalidLabel,
    NoFeatures,
)
from aucal.rng import Rng
from aucal.synth import generate
from conftest import biased_config, rows_of


def _key(au6, au12):
    return AuCellKey(items=(("AU6", au6), ("AU12", au12)))


def _rng(seed=0):
    return Rng(seed, ("test-mine",))


def test_mine_full_enumeration():
    keys = [_key(1, 1), _key(1, 1), _key(0, 0)]
    t = mine_triplets(keys, cap=64, rng=_rng())
    got = {tuple(row) for row in t.triples.tolist()}
    assert got == {(0, 1, 2), (1, 0, 2)}


def test_mine_no_negatives():
    keys = [_key(1, 1)] * 4
    assert len(mine_triplets(keys, cap=64, rng=_rng())) == 0


def test_mine_two_keys_counts():
    # 2 members per key: each anchor has 1 positive x 2 negatives = 2
    # triples, 4 anchors -> 8 total
    keys = [_key(1, 1), _key(1, 1), _key(0, 0), _key(0, 0)]
    t = mine_triplets(keys, cap=10**9, rng=_rng())
    assert len(t) == 8
    for a, p, n in t.triples.tolist():
        assert keys[a] == keys[p] and keys[a] != keys[n] and a != p


def test_mine_cap_respected():
    keys = [_key(1, 1)] * 6 + [_key(0, 0)] * 6
    cap = 7
    t = mine_triplets(keys, cap=cap, rng=_rng())
    anchors, counts = np.unique(t.triples[:, 0], return_counts=True)
    assert len(anchors) == 12
    assert np.all(counts == cap)  # 5 * 6 = 30 valid pairs per anchor > cap
    for a, p, n in t.triples.tolist():
        assert keys[a] == keys[p] and keys[a] != keys[n] and a != p


def test_mine_deterministic():
    keys = [_key(i % 2, (i // 2) % 2) for i in range(20)]
    t1 = mine_triplets(keys, cap=5, rng=_rng(3))
    t2 = mine_triplets(keys, cap=5, rng=_rng(3))
    np.testing.assert_array_equal(t1.triples, t2.triples)


def test_triplet_loss_simple_value():
    # d_ap = 0, d_an = 1, margin 4 -> hinge = 0 - 1 + 4 = 3
    emb = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    t = TripletSet(np.array([[0, 1, 2]]))
    loss, grad = triplet_loss(emb, t, margin=4.0)
    assert loss == pytest.approx(3.0)
    # anchor grad = 2(n - p), positive grad = -2(a - p), negative = 2(a - n)
    np.testing.assert_allclose(grad[0], [2.0, 0.0])
    np.testing.assert_allclose(grad[1], [0.0, 0.0])
    np.testing.assert_allclose(grad[2], [-2.0, 0.0])


def test_triplet_loss_inactive():
    emb = np.array([[0.0], [0.1], [5.0]])
    t = TripletSet(np.array([[0, 1, 2]]))
    loss, grad = triplet_loss(emb, t, margin=0.2)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_triplet_loss_mean_reduction():
    emb = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    t = TripletSet(np.array([[0, 1, 2], [1, 0, 2]]))
    loss_sum, grad_sum = triplet_loss(emb, t, margin=4.0, reduction="sum")
    loss_mean, grad_mean = triplet_loss(emb, t, margin=4.0, reduction="mean")
    assert loss_mean == pytest.approx(loss_sum / 2)
    np.testing.assert_allclose(grad_mean, grad_sum / 2)


def test_triplet_loss_out_of_range():
    emb = np.zeros((3, 2))
    with pytest.raises(IndexOutOfRange):
        triplet_loss(emb, TripletSet(np.array([[0, 1, 3]])), margin=0.2)


def test_triplet_gradient_finite_difference():
    gen = Rng(7, ("fd-trip",)).generator()
    emb = gen.normal(0, 1, (8, 4))
    keys = [_key(i % 2, 0) for i in range(8)]
    t = mine_triplets(keys, cap=64, rng=_rng(1))
    _, grad = triplet_loss(emb, t, margin=0.5)
    eps = 1e-6
    for _ in range(20):
        i = gen.integers(0, emb.shape[0])
        j = gen.integers(0, emb.shape[1])
        up, down = emb.copy(), emb.copy()
        up[i, j] += eps
        down[i, j] -= eps
        num = (triplet_loss(up, t, 0.5)[0] - triplet_loss(down, t, 0.5)[0]) / (2 * eps)
        assert num == pytest.approx(grad[i, j], abs=1e-5)


def test_cross_entropy_uniform_logits():
    loss, _ = cross_entropy(np.zeros((4, 2)), [0, 1, 0, 1])
    assert loss == pytest.approx(np.log(2.0))


def test_cross_entropy_large_logit_stability():
    loss, grad = cross_entropy(np.array([[1000.0, 0.0]]), [0])
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))


def test_cross_entropy_invalid_label():
    with pytest.raises(InvalidLabel):
        cross_entropy(np.zeros((2, 2)), [0, 2])


def test_cross_entropy_gradient_finite_difference():
    gen = Rng(8, ("fd-ce",)).generator()
    z = gen.normal(0, 2, (6, 3))
    y = gen.integers(0, 3, 6)
    _, grad = cross_entropy(z, y)
    eps = 1e-6
    for i in range(6):
        for j in range(3):
            up, down = z.copy(), z.copy()
            up[i, j] += eps
            down[i, j] -= eps
            num = (cross_entropy(up, y)[0] - cross_entropy(down, y)[0]) / (2 * eps)
            assert num == pytest.approx(grad[i, j], abs=1e-6)


def _random_batch(seed, n=24, d=6, two_keys=True):
    gen = Rng(seed, ("batch",)).generator()
    keys = [_key(i % 2 if two_keys else 0, 0) for i in range(n)]
    return Batch(
        features=gen.normal(0, 1, (n, d)),
        labels=gen.integers(0, 2, n),
        au_keys=keys,
    )


def test_total_loss_lambda_arithmetic():
    batch = _random_batch(1)
    rng = Rng(0, ("loss",))
    cfg0 = TrainConfig(lam=0.0, epochs=1)
    cfg10 = TrainConfig(lam=10.0, epochs=1)
    params = init_params(6, 4, 2, Rng(2, ("p",)))
    b0, _ = total_loss(params, batch, cfg0, rng.child("a"))
    b10, _ = total_loss(params, batch, cfg10, rng.child("b"))
    assert b0.total == pytest.approx(b0.cross_entropy)
    assert b0.triplet == 0.0 and b0.n_triplets == 0
    assert b10.total == pytest.approx(b10.cross_entropy + 10.0 * b10.triplet)
    assert b10.n_triplets > 0


def test_total_loss_full_parameter_finite_difference():
    # check every parameter block against central differences at 1e-4
    batch = _random_batch(3, n=16, d=5)
    cfg = TrainConfig(lam=2.0, margin=0.4, epochs=1)
    params = init_params(5, 4, 2, Rng(4, ("p",)))
    rng = Rng(5, ("m",))
    _, grads = total_loss(params, batch, cfg, rng)
    eps = 1e-6
    gen = Rng(6, ("pick",)).generator()
    for name in ("W1", "b1", "W2", "b2"):
        arr = getattr(params, name)
        g = getattr(grads, name)
        flat = arr.reshape(-1)
        for pos in gen.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[pos]
            flat[pos] = orig + eps
            up = total_loss(params, batch, cfg, rng)[0].total
            flat[pos] = orig - eps
            down = total_loss(params, batch, cfg, rng)[0].total
            flat[pos] = orig
            num = (up - down) / (2 * eps)
            denom = max(abs(num), abs(g.reshape(-1)[pos]), 1e-8)
            assert abs(num - g.reshape(-1)[pos]) / denom < 1e-4


def test_total_loss_dimension_mismatch():
    batch = _random_batch(1, d=6)
    params = init_params(7, 4, 2, Rng(0, ("p",)))
    with pytest.raises(DimensionMismatch):
        total_loss(batch=batch, params=params, config=TrainConfig(),
                   rng=Rng(0, ("m",)))


@pytest.mark.parametrize("features", [np.zeros(7), np.zeros((1, 1, 7))])
def test_predict_refuses_features_that_are_not_a_matrix(features):
    params = init_params(7, 4, 2, Rng(0, ("p",)))
    with pytest.raises(DimensionMismatch, match="2-d matrix"):
        predict(params, features)


def test_stratified_order_interleaves():
    keys = [_key(0, 0)] * 4 + [_key(1, 1)] * 4
    order = stratified_order(keys, Rng(0, ("s",)))
    assert sorted(order.tolist()) == list(range(8))
    # round-robin: consecutive positions alternate between the two keys
    first_four = [keys[i] for i in order[:4]]
    assert first_four[0] != first_four[1]
    assert first_four[2] != first_four[3]


def test_stratified_order_deterministic():
    keys = [_key(i % 2, (i // 2) % 2) for i in range(40)]
    o1 = stratified_order(keys, Rng(5, ("s",)))
    o2 = stratified_order(keys, Rng(5, ("s",)))
    np.testing.assert_array_equal(o1, o2)


def test_stratified_order_repeats_its_key_sequence_every_epoch():
    """The order within each key moves from epoch to epoch, but the pools'
    sizes do not, so the round-robin's key-code sequence, and with it each
    batch's key pattern, is the same in every epoch."""
    gen = np.random.default_rng(3)
    codes = np.repeat(np.arange(16), gen.integers(5, 300, 16))
    keys = CellKeys(("AU1", "AU2", "AU4", "AU5"), gen.permutation(codes))
    orders = [stratified_order(keys, Rng(3, ("train", f"shuffle-{epoch}")))
              for epoch in range(4)]
    assert not np.array_equal(orders[0], orders[1])
    for order in orders[1:]:
        np.testing.assert_array_equal(keys.codes[order], keys.codes[orders[0]])


def _feature_dataset(seed=0, n=4000, leak=0):
    cfg = biased_config(seed=seed, n=n, feature_dim=12, leak=leak)
    res = generate(cfg)
    return binarize(res.dataset, {"AU6": 2.2, "AU12": 2.2})


def test_train_deterministic():
    ds = _feature_dataset(seed=2, n=1500)
    cfg = TrainConfig(lam=1.0, epochs=2, seed=9, triplet_reduction="mean")
    r1 = train(ds, cfg, ["AU6", "AU12"])
    r2 = train(ds, cfg, ["AU6", "AU12"])
    np.testing.assert_array_equal(r1.params.W1, r2.params.W1)
    np.testing.assert_array_equal(r1.params.W2, r2.params.W2)
    assert r1.triplet_count_trace == r2.triplet_count_trace


def test_lambda_zero_matches_baseline_trainer_bitwise():
    ds = _feature_dataset(seed=3, n=1500)
    cfg = TrainConfig(lam=0.0, epochs=3, seed=4)
    a = train(ds, cfg, ["AU6", "AU12"])
    b = train_cross_entropy_only(ds, cfg, ["AU6", "AU12"])
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(a.params, name), getattr(b.params, name))
    assert [t.cross_entropy for t in a.loss_trace] == [
        t.cross_entropy for t in b.loss_trace
    ]


def test_train_beats_chance_baseline():
    ds = _feature_dataset(seed=5, n=3000)
    cfg = TrainConfig(lam=0.0, epochs=15, seed=0)
    res = train(ds, cfg, ["AU6", "AU12"])
    scores, _ = predict(res.params, ds.feature_matrix())
    acc = np.mean((scores > 0.5).astype(int) == ds.labels())
    # labels carry annotator noise, so perfect accuracy is unreachable
    assert acc > 0.78
    assert res.loss_trace[-1].cross_entropy < res.loss_trace[0].cross_entropy


def test_train_triplet_loss_decreases():
    ds = _feature_dataset(seed=6, n=2000)
    cfg = TrainConfig(lam=10.0, epochs=10, seed=0, triplet_reduction="mean")
    res = train(ds, cfg, ["AU6", "AU12"])
    assert res.loss_trace[-1].triplet < res.loss_trace[0].triplet


def test_train_requires_features():
    cfg_ds = biased_config(seed=1, n=200)
    ds = binarize(generate(cfg_ds).dataset, {"AU6": 2.2, "AU12": 2.2})
    with pytest.raises(NoFeatures):
        train(ds, TrainConfig(epochs=1), ["AU6", "AU12"])


def test_train_requires_train_split():
    cfg_ds = biased_config(seed=1, n=400, feature_dim=4, test_fraction=0.5)
    ds = binarize(generate(cfg_ds).dataset, {"AU6": 2.2, "AU12": 2.2})
    only_test = ds.subset(
        [i for i, r in enumerate(rows_of(ds)) if r.split == "test"]
    )
    with pytest.raises(EmptyTrainSplit):
        train(only_test, TrainConfig(epochs=1), ["AU6", "AU12"])


def test_config_validation():
    with pytest.raises(InvalidConfig):
        TrainConfig(batch_size=1)
    with pytest.raises(InvalidConfig):
        TrainConfig(lam=-1.0)
    with pytest.raises(InvalidConfig):
        TrainConfig(margin=-0.1)


def test_predict_zero_weights_is_half():
    params = ModelParams(
        W1=np.zeros((4, 3)), b1=np.zeros(3),
        W2=np.zeros((3, 2)), b2=np.zeros(2),
    )
    scores, emb = predict(params, np.ones((5, 4)))
    np.testing.assert_allclose(scores, 0.5)
    assert emb.shape == (5, 3)


def test_forward_relu():
    params = ModelParams(
        W1=np.array([[1.0, -1.0]]), b1=np.zeros(2),
        W2=np.eye(2), b2=np.zeros(2),
    )
    emb, logits = forward(params, np.array([[2.0]]))
    np.testing.assert_allclose(emb, [[2.0, 0.0]])
    np.testing.assert_allclose(logits, [[2.0, 0.0]])

"""The batch-level triplet term against the per-anchor reference.

`_reference_mine` and `_reference_loss` are the per-anchor miner and the
three-scatter loss that the batch-level code replaced. The batch-level
`mine_triplets` must return the same triples in the same order from the
same random stream, and `triplet_loss` must return the same loss and the
same gradient, bit for bit: the trained models, and so the golden
digests, depend on every bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aucal.aucfer import TripletSet, mine_triplets, triplet_loss
from aucal.data import AuCellKey, CellKeys, strata
from aucal.rng import Rng

AUS = ("AU1", "AU4", "AU6", "AU12")
CAPS = (1, 7, 64, 10**9)


def _reference_mine(batch_au_keys, cap, rng):
    codes = CellKeys.of(batch_au_keys).codes
    gen = rng.generator()
    triples = []
    for code, members in strata(codes):
        if members.size < 2:
            continue
        negatives = np.flatnonzero(codes != code)
        if negatives.size == 0:
            continue
        for anchor in members.tolist():
            positives = members[members != anchor]
            count = positives.size * negatives.size
            if count <= cap:
                pj, nk = np.meshgrid(positives, negatives, indexing="ij")
                pj, nk = pj.ravel(), nk.ravel()
            else:
                flat = gen.choice(count, size=cap, replace=False)
                pj = positives[flat // negatives.size]
                nk = negatives[flat % negatives.size]
            triples.append(np.column_stack((np.full(pj.size, anchor), pj, nk)))
    if not triples:
        return TripletSet(np.zeros((0, 3), dtype=np.int64))
    return TripletSet(np.concatenate(triples, axis=0))


def _reference_loss(embeddings, triplets, margin, reduction="sum"):
    emb = np.asarray(embeddings, dtype=float)
    grad = np.zeros_like(emb)
    t = triplets.triples
    if t.size == 0:
        return 0.0, grad
    a, p, nn = emb[t[:, 0]], emb[t[:, 1]], emb[t[:, 2]]
    d_ap = ((a - p) ** 2).sum(axis=1)
    d_an = ((a - nn) ** 2).sum(axis=1)
    hinge = d_ap - d_an + margin
    active = hinge > 0
    loss = float(hinge[active].sum())
    scale = 1.0
    if reduction == "mean":
        scale = 1.0 / len(t)
        loss *= scale
    if active.any():
        ta = t[active]
        ga = 2.0 * (emb[ta[:, 2]] - emb[ta[:, 1]]) * scale
        gp = -2.0 * (emb[ta[:, 0]] - emb[ta[:, 1]]) * scale
        gn = 2.0 * (emb[ta[:, 0]] - emb[ta[:, 2]]) * scale
        np.add.at(grad, ta[:, 0], ga)
        np.add.at(grad, ta[:, 1], gp)
        np.add.at(grad, ta[:, 2], gn)
    return loss, grad


def _key(code):
    return AuCellKey(tuple((au, (code >> i) & 1) for i, au in enumerate(AUS)))


@st.composite
def batches(draw):
    """A batch's AU keys (1 to 16 distinct codes, possibly one key for the
    whole batch) and a seed for its embeddings and mining stream."""
    b = draw(st.integers(2, 128))
    n_keys = draw(st.integers(1, 16))
    pool = draw(st.lists(st.integers(0, 15), min_size=n_keys, max_size=n_keys,
                         unique=True))
    rows = draw(st.lists(st.sampled_from(pool), min_size=b, max_size=b))
    return [_key(code) for code in rows], draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(
    batch=batches(),
    cap=st.sampled_from(CAPS),
    reduction=st.sampled_from(("sum", "mean")),
    margin=st.sampled_from((0.0, 0.2, 1.0, 4.0)),
    d=st.sampled_from((1, 3, 16)),
)
def test_batch_level_triplet_term_matches_reference(batch, cap, reduction,
                                                    margin, d):
    keys, seed = batch
    got = mine_triplets(keys, cap, Rng(seed, ("mine",)))
    want = _reference_mine(keys, cap, Rng(seed, ("mine",)))
    assert got.triples.dtype == np.int64
    assert np.array_equal(got.triples, want.triples)

    gen = np.random.default_rng(seed)
    emb = gen.normal(0.0, 1.0, (len(keys), d))
    # repeated rows give exact distance ties, so some hinges sit on the margin
    emb[gen.integers(0, len(keys), len(keys) // 4)] = emb[0]
    loss, grad = triplet_loss(emb, got, margin, reduction)
    ref_loss, ref_grad = _reference_loss(emb, want, margin, reduction)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


def test_single_key_and_singleton_batches_mine_nothing():
    empty = mine_triplets([_key(3)] * 5, 64, Rng(0, ("mine",)))
    assert empty.triples.shape == (0, 3)
    loss, grad = triplet_loss(np.ones((5, 2)), empty, 0.2)
    assert loss == 0.0 and np.array_equal(grad, np.zeros((5, 2)))
    lone = mine_triplets([_key(1), _key(2)], 64, Rng(0, ("mine",)))
    assert lone.triples.shape == (0, 3)


def test_distance_blocks_match_reference():
    # wide enough that the distance matrix is built in row blocks of 3,
    # the last one short
    gen = np.random.default_rng(5)
    keys = [_key(code) for code in gen.integers(0, 16, 301)]
    emb = gen.normal(0.0, 1.0, (301, 1000))
    triplets = mine_triplets(keys, 7, Rng(5, ("mine",)))
    loss, grad = triplet_loss(emb, triplets, 50.0)
    ref_loss, ref_grad = _reference_loss(emb, triplets, 50.0)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)

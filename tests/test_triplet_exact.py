"""The batch-level triplet term against per-anchor and per-triple references.

`_reference_mine` walks anchors one at a time; a capped AU key makes one
integers(0, count, (m, cap)) draw and anchor i takes row i of it. The
batch-level `mine_triplets` must return the same triples in the same
order from the same random stream: the trained models, and so the golden
digests, depend on every draw.

`triplet_loss` takes its gradient as 2 * scale * C @ embeddings, with C
the B x B coefficient matrix of the active triples. `_reference_coef`
builds C one triple at a time, so the gradient must match it bit for
bit. `_reference_scatter` is the per-triple three-scatter gradient; the
two sum the same terms in another order, so they agree to within float64
rounding: per entry, eps * k * (the sum of the absolute terms of both
computations), with k the largest number of terms one entry can sum.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aucal.aucfer import TripletSet, mine_triplets, triplet_loss
from aucal.data import AuCellKey, CellKeys, strata
from aucal.rng import Rng

AUS = ("AU1", "AU4", "AU6", "AU12")
CAPS = (1, 7, 64, 10**9)
EPS = np.finfo(float).eps


def _reference_mine(batch_au_keys, cap, rng):
    codes = CellKeys.of(batch_au_keys).codes
    gen = rng.generator()
    triples = []
    for code, members in strata(codes):
        negatives = np.flatnonzero(codes != code)
        count = (members.size - 1) * negatives.size
        if count == 0:
            continue
        draws = gen.integers(0, count, (members.size, cap)) if count > cap else None
        for i, anchor in enumerate(members.tolist()):
            positives = members[members != anchor]
            if draws is None:
                pj, nk = np.meshgrid(positives, negatives, indexing="ij")
                pj, nk = pj.ravel(), nk.ravel()
            else:
                pj = positives[draws[i] // negatives.size]
                nk = negatives[draws[i] % negatives.size]
            triples.append(np.column_stack((np.full(pj.size, anchor), pj, nk)))
    if not triples:
        return TripletSet(np.zeros((0, 3), dtype=np.int64))
    return TripletSet(np.concatenate(triples, axis=0))


def _active(emb, t, margin):
    a, p, n = emb[t[:, 0]], emb[t[:, 1]], emb[t[:, 2]]
    hinge = ((a - p) ** 2).sum(axis=1) - ((a - n) ** 2).sum(axis=1) + margin
    return t[hinge > 0], float(hinge[hinge > 0].sum())


def _reference_coef(emb, t, margin):
    b = len(emb)
    coef = np.zeros((b, b))
    for a, p, n in _active(emb, t, margin)[0].tolist():
        for row, col, sign in ((a, n, 1), (p, p, 1), (n, a, 1),
                               (a, p, -1), (p, a, -1), (n, n, -1)):
            coef[row, col] += sign
    return coef


def _reference_scatter(emb, t, margin, scale):
    """The three-scatter gradient and, per entry, the sum of the absolute
    values of the terms it added up."""
    ta = _active(emb, t, margin)[0]
    grad, absolute = np.zeros_like(emb), np.zeros_like(emb)
    for rows, terms in ((ta[:, 0], 2.0 * (emb[ta[:, 2]] - emb[ta[:, 1]]) * scale),
                        (ta[:, 1], -2.0 * (emb[ta[:, 0]] - emb[ta[:, 1]]) * scale),
                        (ta[:, 2], 2.0 * (emb[ta[:, 0]] - emb[ta[:, 2]]) * scale)):
        np.add.at(grad, rows, terms)
        np.add.at(absolute, rows, np.abs(terms))
    return grad, absolute, len(ta)


def _check_loss(emb, triplets, margin, reduction):
    t = triplets.triples
    loss, grad = triplet_loss(emb, triplets, margin, reduction)
    scale = 1.0 / len(t) if reduction == "mean" and len(t) else 1.0
    assert loss == _active(emb, t, margin)[1] * scale

    coef = _reference_coef(emb, t, margin)
    assert np.array_equal(grad, (2.0 * scale) * (coef @ emb))

    ref, absolute, n_active = _reference_scatter(emb, t, margin, scale)
    k = 3 * n_active + len(emb)
    bound = EPS * k * (absolute + (2.0 * scale) * (np.abs(coef) @ np.abs(emb)))
    assert np.all(np.abs(grad - ref) <= bound)


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
    _check_loss(emb, got, margin, reduction)


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
    _check_loss(emb, triplets, 50.0, "sum")

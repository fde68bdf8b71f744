"""The batch-level triplet term against per-anchor and per-triple references.

`_reference_mine` walks anchors one at a time; a capped AU key makes one
integers(0, count, (m, cap)) draw and anchor i takes row i of it. The
batch-level `mine_triplets` must return the same triples in the same
order from the same random stream: the trained models, and so the golden
digests, depend on every draw. It numbers every key's pairs in one grid,
a capped key's draw beside an uncapped key's constant rows 0..W-1 cut at
its pair count, so batches that mix the two are checked as well. A run of
neighbouring capped keys with equal pair counts shares one draw, so
batches where a key of another size splits such a run are checked too. It
plans everything but the draws once per batch key pattern and cap, so the
same must hold on every later visit of a pattern, whatever the caller did
to the flat indices it was given.

`triplet_loss` reads its hinges from one Gram-form squared-distance
matrix, |a|^2 + |b|^2 - 2 a.b, and takes its gradient as
2 * scale * C @ embeddings, with C the B x B coefficient matrix of the
active triples. `_gram_hinges` reads the same matrix one triple at a time
and `_reference_coef` builds C one triple at a time, so the loss and the
gradient must match them bit for bit.

Against the difference form, |a - p|^2 - |a - n|^2 + margin, a Gram hinge
differs by float64 rounding alone: to first order in eps, at most
(4 d + 15) * eps * (|a|^2 + |p|^2 + |n|^2) + eps * margin over both
computations, with d the embedding width. `_gap_bound` states this with
c = 4 d + 16. Where a difference-form hinge lies within that bound of 0,
the two forms may disagree on whether the triple is active; that happens
at exact ties, such as margin 0 with a repeated row. On every other batch
the active triples are the same, and the gradient is checked against
`_reference_scatter`, the per-triple three-scatter gradient. The two sum
the same terms in another order, so they agree to within float64
rounding: per entry, eps * k * (the sum of the absolute terms of both
computations), with k the largest number of terms one entry can sum.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aucal import aucfer
from aucal.aucfer import TripletSet, mine_triplets, triplet_loss
from aucal.data import AuCellKey, CellKeys, strata
from aucal.rng import Rng

AUS = ("AU1", "AU12", "AU15", "AU4", "AU6")  # in AuCellKey order, sorted as strings
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
        return TripletSet.of(np.zeros((0, 3), dtype=np.int64), codes.size)
    return TripletSet.of(np.concatenate(triples, axis=0), codes.size)


def _gram_hinges(emb, t, margin):
    """Each triple's hinge, read one at a time from the Gram-form matrix."""
    sq = (emb * emb).sum(axis=1)
    dist = sq[:, None] + sq[None] - 2.0 * (emb @ emb.T)
    return np.array([dist[a, p] - dist[a, n] + margin for a, p, n in t.tolist()])


def _difference_hinges(emb, t, margin):
    a, p, n = emb[t[:, 0]], emb[t[:, 1]], emb[t[:, 2]]
    return ((a - p) ** 2).sum(axis=1) - ((a - n) ** 2).sum(axis=1) + margin


def _gap_bound(emb, t, margin):
    """Per triple, c * eps * (|a|^2 + |p|^2 + |n|^2 + margin) with
    c = 4 d + 16: the first-order worst case of |Gram - difference hinge|."""
    sq = (emb * emb).sum(axis=1)
    c = 4 * emb.shape[1] + 16
    return c * EPS * (sq[t[:, 0]] + sq[t[:, 1]] + sq[t[:, 2]] + margin)


def _reference_coef(active, b):
    coef = np.zeros((b, b))
    for a, p, n in active.tolist():
        for row, col, sign in ((a, n, 1), (p, p, 1), (n, a, 1),
                               (a, p, -1), (p, a, -1), (n, n, -1)):
            coef[row, col] += sign
    return coef


def _reference_scatter(emb, ta, scale):
    """The three-scatter gradient of the active triples ta and, per entry,
    the sum of the absolute values of the terms it added up."""
    grad, absolute = np.zeros_like(emb), np.zeros_like(emb)
    for rows, terms in ((ta[:, 0], 2.0 * (emb[ta[:, 2]] - emb[ta[:, 1]]) * scale),
                        (ta[:, 1], -2.0 * (emb[ta[:, 0]] - emb[ta[:, 1]]) * scale),
                        (ta[:, 2], 2.0 * (emb[ta[:, 0]] - emb[ta[:, 2]]) * scale)):
        np.add.at(grad, rows, terms)
        np.add.at(absolute, rows, np.abs(terms))
    return grad, absolute


def _check_loss(emb, triplets, margin, reduction):
    """Check triplet_loss against the references; True when the batch has
    no near-tie, so the three-scatter gradient was checked too."""
    t = triplets.triples
    loss, grad = triplet_loss(emb, triplets, margin, reduction)
    scale = 1.0 / len(t) if reduction == "mean" and len(t) else 1.0
    hinge = _gram_hinges(emb, t, margin)
    assert loss == float(hinge[hinge > 0].sum()) * scale

    coef = _reference_coef(t[hinge > 0], len(emb))
    assert np.array_equal(grad, (2.0 * scale) * (coef @ emb))

    diff, bound = _difference_hinges(emb, t, margin), _gap_bound(emb, t, margin)
    assert np.all(np.abs(hinge - diff) <= bound)
    if np.any(np.abs(diff) <= bound):
        return False  # an exact tie may put a triple on either side
    ref, absolute = _reference_scatter(emb, t[diff > 0], scale)
    k = 3 * int((diff > 0).sum()) + len(emb)
    bound = EPS * k * (absolute + (2.0 * scale) * (np.abs(coef) @ np.abs(emb)))
    assert np.all(np.abs(grad - ref) <= bound)
    return True


def _key(code):
    """The key whose packed code is code, so strata visit keys in code order."""
    return AuCellKey(tuple((au, (code >> (len(AUS) - 1 - i)) & 1) for i, au in enumerate(AUS)))


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


# keys of 3, 3, 2 and 3 rows, all capped at 7: the first two keys' pair
# counts are equal and they share one draw, but the last key's equal count
# must take a draw of its own after the 2-row key's
SPLIT_RUN = [_key(code) for code in (3, 0, 1, 2, 0, 1, 3, 0, 1, 2, 3)]


@settings(max_examples=80, deadline=None)
@example(batch=(SPLIT_RUN, 7), cap=7, reduction="sum", margin=0.2, d=3)
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
    assert got.flat.dtype == np.int64 and got.batch == len(keys)
    assert np.array_equal(got.flat, want.flat)
    assert np.array_equal(got.triples, want.triples)

    gen = np.random.default_rng(seed)
    emb = gen.normal(0.0, 1.0, (len(keys), d))
    # repeated rows give exact distance ties, so some hinges sit on the margin
    emb[gen.integers(0, len(keys), len(keys) // 4)] = emb[0]
    _check_loss(emb, got, margin, reduction)


@st.composite
def pattern_visits(draw):
    """1 to 4 batch key patterns, each 2 to 40 rows of 1 to 16 codes, and
    2 to 12 visits to them, each with its own cap and seed: patterns come
    back, interleave and repeat in a row."""
    patterns = draw(st.lists(st.lists(st.integers(0, 15), min_size=2, max_size=40),
                             min_size=1, max_size=4))
    visits = draw(st.lists(st.tuples(st.integers(0, len(patterns) - 1),
                                     st.sampled_from(CAPS), st.integers(0, 2**32 - 1)),
                           min_size=2, max_size=12))
    return [[_key(code) for code in pattern] for pattern in patterns], visits


@settings(max_examples=60, deadline=None)
@given(pattern_visits())
# at cap 10**9 both keys keep every pair, 3 and 4 per anchor, so the plan
# holds two constant blocks and a mask; at cap 1 both draw
@example(([[_key(0)] * 2 + [_key(1)] * 3], [(0, 10**9, 1), (0, 1, 2), (0, 10**9, 3)]))
def test_planned_mining_matches_reference_on_every_visit(case):
    """A plan is built on a pattern's first visit and reused on the later
    ones. Every visit must still give the reference's triples, however the
    caller has since written over the triples it was given, and the plan's
    arrays, those in its tuples too, must refuse writes."""
    patterns, visits = case
    aucfer._mining_plan.cache_clear()
    for which, cap, seed in visits:
        keys = patterns[which]
        got = mine_triplets(keys, cap, Rng(seed, ("mine",)))
        want = _reference_mine(keys, cap, Rng(seed, ("mine",)))
        assert np.array_equal(got.flat, want.flat) and got.batch == want.batch
        assert got.flat.flags.c_contiguous and got.flat.flags.writeable
        got.flat[...] = -1
        plan = aucfer._mining_plan(CellKeys.of(keys).codes.tobytes(), cap)
        for array in (item for field in plan
                      for item in (field if isinstance(field, tuple) else (field,))):
            if isinstance(array, np.ndarray):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array.flat[:1] = 0
    assert aucfer._mining_plan.cache_info().currsize <= aucfer._PLANS


def test_runs_of_equal_count_capped_keys_share_one_draw():
    plan = aucfer._mining_plan(CellKeys.of(SPLIT_RUN).codes.tobytes(), 7)
    assert plan.blocks == ((16, (6, 7)), (9, (2, 7)), (16, (3, 7)))


def test_single_key_and_singleton_batches_mine_nothing():
    empty = mine_triplets([_key(3)] * 5, 64, Rng(0, ("mine",)))
    assert empty.flat.shape == (2, 0) and empty.triples.shape == (0, 3)
    loss, grad = triplet_loss(np.ones((5, 2)), empty, 0.2)
    assert loss == 0.0 and np.array_equal(grad, np.zeros((5, 2)))
    lone = mine_triplets([_key(1), _key(2)], 64, Rng(0, ("mine",)))
    assert lone.triples.shape == (0, 3)


def test_wide_batch_matches_difference_form():
    # 1000 columns: the bound grows with d, and no hinge comes near a tie
    gen = np.random.default_rng(5)
    keys = [_key(code) for code in gen.integers(0, 16, 301)]
    emb = gen.normal(0.0, 1.0, (301, 1000))
    triplets = mine_triplets(keys, 7, Rng(5, ("mine",)))
    assert _check_loss(emb, triplets, 50.0, "sum")


# triple sets no miner makes: indices may repeat within a triple or across
# triples, and the batch may be a single row
HAND_BUILT = {
    "repeated": [(0, 1, 2), (0, 1, 2), (2, 1, 0), (0, 1, 2), (3, 0, 1)],
    "a_is_p": [(0, 0, 1), (1, 1, 2), (2, 0, 1), (2, 2, 2)],
    "p_is_n": [(0, 1, 1), (1, 2, 2), (0, 2, 1), (3, 3, 0)],
    "a_is_n": [(0, 1, 0), (2, 0, 2), (1, 3, 1), (0, 1, 2)],
    "one_row": [(0, 0, 0), (0, 0, 0)],
}


@pytest.mark.parametrize("reduction", ("sum", "mean"))
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_triplet_sets_match_reference(name, reduction):
    t = np.array(HAND_BUILT[name], dtype=np.int64)
    emb = np.random.default_rng(len(name)).normal(0.0, 1.0, (int(t.max()) + 1, 3))
    for margin in (0.0, 0.5, 4.0):
        _check_loss(emb, TripletSet.of(t, len(emb)), margin, reduction)


# batch codes by key count, mined at the trainer's cap of 64: its default
# 128-row batch; 50 rows of 20 keys alternating 3 and 2 rows, where a
# 3-row key has 2 * 47 = 94 pairs per anchor and is capped, and a 2-row key
# has 1 * 48 = 48 and is not, so capped and uncapped blocks alternate; and
# 2 rows of one key beside 64 of another, whose 1 * 64 pairs per anchor are
# exactly the cap, so it keeps them all and draws nothing
BATCH_CODES = {2: np.repeat([0, 1], (2, 64)), 4: np.arange(128) % 4,
               16: np.arange(128) % 16, 20: np.repeat(np.arange(20), (3, 2) * 10)}


@pytest.mark.parametrize("reduction", ("sum", "mean"))
@pytest.mark.parametrize("n_keys", sorted(BATCH_CODES))
def test_benchmark_shaped_batches_match_reference(n_keys, reduction):
    gen = np.random.default_rng(n_keys)
    keys = [_key(code) for code in gen.permutation(BATCH_CODES[n_keys])]
    got = mine_triplets(keys, 64, Rng(n_keys, ("mine",)))
    assert np.array_equal(got.flat, _reference_mine(keys, 64, Rng(n_keys, ("mine",))).flat)
    emb = np.maximum(gen.normal(0.0, 1.0, (len(keys), 16)), 0.0)  # 16-wide, relu
    _check_loss(emb, got, 0.2, reduction)

"""Prefix-node scoring: ``HatModel.score_sequences`` builds each distinct
(utterance, prefix) once and gathers every sequence's lattice from that
block. It must equal the padded-grid scorer it replaced, the per-sequence
local grids summed over every path, and leave the exhaustive search's argmax
where it was."""

import numpy as np
import pytest

from hatfusion import decode as D
from hatfusion import tensor as T
from hatfusion.hat import HatConfig, HatModel, Utterance, _prefix_nodes

from conftest import padded_score_sequences
from test_lattice_property import enumerated_full_sums

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _model(seed, v=4, width=4):
    cfg = HatConfig(vocab_size=v, acoustic_size=5, embed_dim=3, hidden_dim=5, joint_dim=width)
    return HatModel(cfg, seed=seed)


def shared_list(rng, v, k, u_max):
    """K sequences grown from a few common stems, as an N-best list's are:
    duplicates, the empty sequence and prefixes of one another among them."""
    stems = [rng.integers(0, v, size=rng.integers(0, u_max + 1)).tolist() for _ in range(2)]
    seqs = []
    for _ in range(k):
        stem = stems[rng.integers(0, len(stems))]
        cut = int(rng.integers(0, len(stem) + 1))
        tail = rng.integers(0, v, size=rng.integers(0, u_max - cut + 1)).tolist()
        seqs.append(stem[:cut] + tail)
    return seqs


def _taped(model, build):
    """Full sums, ILM totals and every parameter gradient of a random
    weighting of both, taken on one tape."""
    model.params.clear_grads()
    with T.Tape() as tape:
        sums, ilm = build()
        w = np.random.default_rng(9).normal(size=(2, sums.shape[0]))
        loss = T.add(T.matmul(sums, T.constant(w[0])), T.matmul(ilm, T.constant(w[1])))
    tape.backward(loss)
    return sums.data, ilm.data, {n: p.grad for n, p in model.params.items()}


def _assert_close_grads(got, want):
    for name, g in got.items():
        if want[name] is None:
            assert g is None or not np.any(g), name
        else:
            np.testing.assert_allclose(g, want[name], rtol=1e-10, atol=1e-13, err_msg=name)


@pytest.mark.parametrize("width", [4, 16])
@pytest.mark.parametrize("seed", range(4))
def test_shared_encoder_equals_padded_grid(seed, width):
    # one list against one utterance: the ILM and every gradient to rounding
    # (a shared node's gradient is pre-summed). The forward full sums are
    # bit for bit at joint width 4; at 16 the blank head's matrix-vector
    # product rounds by a row's place in its stack, which the node block
    # moves, so the sums agree to rounding
    rng = np.random.default_rng(500 + seed)
    model = _model(seed, width=width)
    seqs = shared_list(rng, 4, 9, 5) + [[]]
    enc_ids = rng.integers(0, 5, size=rng.integers(1, 7)).tolist()
    got = _taped(model, lambda: model.score_sequences(model.encode(enc_ids), seqs))
    want = _taped(model, lambda: padded_score_sequences(model, model.encode(enc_ids), seqs))
    if width == 4:
        np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)
    _assert_close_grads(got[2], want[2])


@pytest.mark.parametrize("seed", range(4))
def test_block_rows_equal_per_utterance_padded_grids(seed):
    # lists of different K, T and U against their rows of one padded block
    rng = np.random.default_rng(600 + seed)
    model = _model(seed)
    acoustics = [rng.integers(0, 5, size=t).tolist() for t in (3, 7, 1, 5)]
    lists = [shared_list(rng, 4, k, u) for k, u in ((4, 3), (7, 6), (2, 2), (5, 4))]
    seqs = [s for lst in lists for s in lst]
    rows = np.repeat(np.arange(len(lists)), [len(lst) for lst in lists])

    def block():
        enc, frames = model.encode_batch(acoustics)
        return model.score_sequences(enc, seqs, frames=frames, rows=rows)

    def per_utterance():
        parts = [padded_score_sequences(model, model.encode(a), lst)
                 for a, lst in zip(acoustics, lists)]
        return (T.concat([p[0] for p in parts]), T.concat([p[1] for p in parts]))

    got, want = _taped(model, block), _taped(model, per_utterance)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)
    _assert_close_grads(got[2], want[2])


def test_mle_batch_equals_padded_grid():
    # every sequence its own utterance: the per-row form of an MLE batch
    rng = np.random.default_rng(700)
    model = _model(3)
    acoustics = [rng.integers(0, 5, size=t).tolist() for t in (4, 1, 6, 2)]
    seqs = [rng.integers(0, 4, size=u).tolist() for u in (3, 0, 5, 2)]

    def run(score):
        enc, frames = model.encode_batch(acoustics)
        return score(enc, seqs, frames=frames)

    got = _taped(model, lambda: run(model.score_sequences))
    want = _taped(model, lambda: run(lambda *a, **kw: padded_score_sequences(model, *a, **kw)))
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)
    _assert_close_grads(got[2], want[2])


def test_one_node_per_distinct_prefix(monkeypatch):
    # a list whose sequences share everything builds one node per prefix
    # of its utterance, and the call is one lattice sweep over all of them
    seqs = [[1, 2, 3], [1, 2], [1, 2, 3], [1], []]
    table, src = _prefix_nodes(seqs, np.zeros(5, dtype=np.int64), 1, 3)
    assert table.tolist() == [[0, 1, 2, 3], [0, 1, 2, 2], [0, 1, 2, 3], [0, 1, 1, 1],
                              [0, 0, 0, 0]]
    assert src.tolist() == [[0, 1, 2, 3]]  # first seen in sequence 0's grid row
    model = _model(1)
    sweeps = []
    orig = T.transducer_full_sum

    def counted(lb, le, lens, frames=None):
        sweeps.append(lb.shape)
        return orig(lb, le, lens, frames)

    monkeypatch.setattr(T, "transducer_full_sum", counted)
    model.score_sequences(model.encode([0, 1, 2]), seqs)
    assert sweeps == [(5, 3, 4)]


def test_rows_must_name_block_rows():
    model = _model(0)
    enc, frames = model.encode_batch([[0, 1], [2]])
    for rows in ([0, 2], [0], [-1, 0]):
        with pytest.raises(ValueError, match="block"):
            model.score_sequences(enc, [[1], [2]], frames=frames, rows=rows)


@hypothesis.settings(max_examples=30, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), b=st.integers(1, 3), k=st.integers(1, 6),
                  u_max=st.integers(0, 4))
def test_shared_prefixes_match_path_enumeration(seed, b, k, u_max):
    # heavily shared lists of B utterances of unequal frames in one block:
    # each full sum is the path sum over its own utterance's frames, from
    # local grids built for that sequence alone; the block's cells past an
    # utterance's frames are junk its lattices never reach
    rng = np.random.default_rng(seed)
    model = _model(seed % 7, v=3)
    acoustics = [rng.integers(0, 5, size=rng.integers(1, 5)).tolist() for _ in range(b)]
    lists = [shared_list(rng, 3, int(rng.integers(1, k + 1)), u_max) for _ in range(b)]
    seqs = [s for lst in lists for s in lst]
    rows = np.repeat(np.arange(b), [len(lst) for lst in lists])
    enc, frames = model.encode_batch(acoustics)
    got, ilm = model.score_sequences(enc, seqs, frames=frames, rows=rows)
    lens = [len(s) for s in seqs]
    t_max, width = int(frames.max()), max(lens) + 1
    lb = np.zeros((len(seqs), t_max, width))
    le = np.zeros((len(seqs), t_max, width - 1))
    for i, (s, r) in enumerate(zip(seqs, rows)):
        locs = model.joint_locals(model.encode(acoustics[r]), s)
        logit = locs.blank_logit.data
        n, t = len(s), frames[r]
        lb[i, :t, :n + 1] = -np.logaddexp(0.0, -logit)
        le[i, :t, :n] = (-np.logaddexp(0.0, logit[:, :n])
                         + locs.label_logprob.data[:, np.arange(n), s])
    want = enumerated_full_sums(lb, le, lens, frames[rows])
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-10)
    want_ilm = [float(np.sum(model.internal_lm_log_prob([s])[0])) if s else 0.0 for s in seqs]
    np.testing.assert_allclose(ilm.data, want_ilm, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("seed", range(3))
def test_exhaustive_argmax_unmoved(seed, monkeypatch):
    # criterion 04's reference search ranks the same with the padded grid
    rng = np.random.default_rng(800 + seed)
    model = _model(seed, v=3)
    utts = [Utterance(f"x{i}", rng.integers(0, 5, size=rng.integers(2, 6)).tolist(), [])
            for i in range(3)]
    got = [D.exhaustive_search(u, model, None, 0.3, 0.0, 4) for u in utts]
    monkeypatch.setattr(HatModel, "score_sequences", padded_score_sequences)
    assert got == [D.exhaustive_search(u, model, None, 0.3, 0.0, 4) for u in utts]


def test_padding_tokens_are_checked():
    model = _model(0)
    with pytest.raises(ValueError, match="out of range"):
        model.score_sequences(model.encode([0, 1]), [[1], [4]])

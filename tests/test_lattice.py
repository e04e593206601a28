"""The full-sum lattice primitive: bit-identity with the op-by-op recursion,
one tape entry per sweep, and input checks."""

import zlib

import numpy as np
import pytest

from hatfusion import tensor as T
from hatfusion.hat import HatConfig, HatModel, Utterance

from conftest import op_by_op_full_sum

# (T, lens): mixed lengths with empty sequences, U > T, T = 1, K = 1, U = 0
SHAPES = [
    (4, [3, 0, 1, 2]),
    (2, [5, 3, 0]),
    (1, [2, 0, 1]),
    (1, [0]),
    (3, [2]),
    (5, [1]),
    (3, [0, 0]),
    (6, [4, 4, 2, 0, 1]),
]


def _grids(rng, t_len, lens):
    k, u_max = len(lens), max(lens)
    lb = T.Tensor(-np.logaddexp(0.0, -rng.normal(size=(k, t_len, u_max + 1))), trainable=True)
    le = T.Tensor(-np.logaddexp(0.0, rng.normal(size=(k, t_len, u_max))) - 1.0, trainable=True)
    return lb, le


def _taped(score, lb, le, lens, w):
    lb.grad = le.grad = None
    with T.Tape() as tape:
        sums = score(lb, le, lens)
        loss = T.matmul(sums, T.constant(w))
    tape.backward(loss)
    return sums.data, lb.grad, le.grad, len(tape)


@pytest.mark.parametrize("t_len,lens", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_bit_identical_to_op_by_op_recursion(t_len, lens, seed):
    rng = np.random.default_rng(seed * 1000 + zlib.crc32(repr(lens).encode()) % 1000)
    lb, le = _grids(rng, t_len, lens)
    w = rng.normal(size=len(lens))
    sums, g_lb, g_le, entries = _taped(T.transducer_full_sum, lb, le, lens, w)
    want_sums, want_lb, want_le, _ = _taped(op_by_op_full_sum, lb, le, lens, w)
    np.testing.assert_array_equal(sums, want_sums)
    np.testing.assert_array_equal(g_lb, want_lb)
    np.testing.assert_array_equal(g_le, want_le)
    assert entries == 2  # the primitive and the weighting


# (T, frames, lens): unequal frame counts in one call, with T = 1 rows, a
# row shorter than its labels, and a grid no row fills
FRAMED = [
    (4, [4, 1, 3, 2], [3, 0, 1, 2]),
    (5, [2, 5, 1], [5, 3, 0]),
    (2, [1, 2], [2, 0]),
    (6, [3, 2], [1, 4]),
]


@pytest.mark.parametrize("t_len,frames,lens", FRAMED)
@pytest.mark.parametrize("seed", range(3))
def test_unequal_frames_bit_identical_to_op_by_op_and_to_unpadded(t_len, frames, lens, seed):
    rng = np.random.default_rng(seed * 1000 + zlib.crc32(repr(frames).encode()) % 1000)
    lb, le = _grids(rng, t_len, lens)
    w = rng.normal(size=len(lens))
    sums, g_lb, g_le, entries = _taped(
        lambda *a: T.transducer_full_sum(*a, frames), lb, le, lens, w)
    want = _taped(lambda *a: op_by_op_full_sum(*a, frames), lb, le, lens, w)
    for got_part, want_part in zip((sums, g_lb, g_le), want):
        np.testing.assert_array_equal(got_part, want_part)
    assert entries == 2
    # each row equals its own sweep over its own frames and labels, and
    # the cells past them take exact zeros
    for k, (f, n) in enumerate(zip(frames, lens)):
        one_lb = T.Tensor(lb.data[k:k + 1, :f, :n + 1], trainable=True)
        one_le = T.Tensor(le.data[k:k + 1, :f, :n], trainable=True)
        s, glb, gle, _ = _taped(T.transducer_full_sum, one_lb, one_le, [n], w[k:k + 1])
        assert s[0] == sums[k]
        np.testing.assert_array_equal(g_lb[k, :f, :n + 1], glb[0])
        np.testing.assert_array_equal(g_le[k, :f, :n], gle[0])
        assert not g_lb[k, f:].any() and not g_le[k, f:].any()
        assert not g_lb[k, :, n + 1:].any() and not g_le[k, :, n:].any()


def _model(seed):
    cfg = HatConfig(vocab_size=4, acoustic_size=5, embed_dim=3, hidden_dim=5, joint_dim=4)
    return HatModel(cfg, seed=seed)


def _param_grads(model, build):
    model.params.clear_grads()
    with T.Tape() as tape:
        loss = build()
    tape.backward(loss)
    return loss.data, {n: p.grad for n, p in model.params.items()}


@pytest.mark.parametrize("seed", range(3))
def test_model_gradients_bit_identical_to_op_by_op_recursion(seed, monkeypatch):
    # an MLE batch and an ILM-weighted list with an empty sequence: every
    # parameter gradient equals the op-by-op recording's, bit for bit
    rng = np.random.default_rng(100 + seed)
    model = _model(seed)
    batch = [Utterance(f"u{i}", rng.integers(0, 5, size=rng.integers(1, 7)).tolist(),
                       rng.integers(0, 4, size=rng.integers(0, 5)).tolist()) for i in range(4)]
    seqs = [rng.integers(0, 4, size=rng.integers(0, 6)).tolist() for _ in range(8)] + [[]]
    acoustics = rng.integers(0, 5, size=4).tolist()
    w = rng.normal(size=len(seqs))

    def ilm_loss():
        sums, ilm = model.score_sequences(model.encode(acoustics), seqs)
        return T.matmul(T.add(sums, T.scale(ilm, -0.3)), T.constant(w))

    got = [_param_grads(model, lambda: model.mle_loss(batch)), _param_grads(model, ilm_loss)]
    frames = []

    def recorded(lb, le, lens, f):
        frames.append(None if f is None else list(f))
        return op_by_op_full_sum(lb, le, lens, f)

    monkeypatch.setattr(T, "transducer_full_sum", recorded)
    want = [_param_grads(model, lambda: model.mle_loss(batch)), _param_grads(model, ilm_loss)]
    # one sweep per loss: the MLE batch's with each utterance's frame count
    assert frames == [[len(u.acoustics) for u in batch], None]
    for (loss, grads), (want_loss, want_grads) in zip(got, want):
        np.testing.assert_array_equal(loss, want_loss)
        for name, g in grads.items():
            if want_grads[name] is None:
                assert g is None, name
            else:
                np.testing.assert_array_equal(g, want_grads[name], err_msg=name)


def test_tape_length_does_not_grow_with_frames():
    # one sweep is one tape entry, not one per diagonal: at fixed U the
    # tape of a sweep over constant encoder states is as long at T = 12 as
    # at T = 2
    model = _model(0)
    rng = np.random.default_rng(5)
    lengths = []
    for t_len in (2, 12):
        enc = T.constant(rng.normal(size=(t_len, model.config.hidden_dim)))
        with T.Tape() as tape:
            model.score_sequences(enc, [[0, 1, 2], [3], []])
        lengths.append(len(tape))
    assert lengths[0] == lengths[1]


class TestInputChecks:
    def test_length_beyond_grid_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            T.transducer_full_sum(T.constant(np.zeros((2, 3, 3))),
                                  T.constant(np.zeros((2, 3, 2))), [1, 3])

    def test_mismatched_emit_grid_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 3, 2\)"):
            T.transducer_full_sum(T.constant(np.zeros((2, 3, 3))),
                                  T.constant(np.zeros((2, 2, 2))), [1, 2])

    @pytest.mark.parametrize("frames", [[0, 2], [1, 4], [3]])
    def test_frame_count_off_grid_rejected(self, frames):
        with pytest.raises(ValueError, match="frame"):
            T.transducer_full_sum(T.constant(np.zeros((2, 3, 3))),
                                  T.constant(np.zeros((2, 3, 2))), [1, 2], frames)

    def test_empty_frame_axis_rejected(self):
        with pytest.raises(ValueError, match="T>=1"):
            T.transducer_full_sum(T.constant(np.zeros((1, 0, 1))),
                                  T.constant(np.zeros((1, 0, 0))), [0])

"""The recurrence primitive: bit-identity of the encoder and the prediction
network with their op-by-op recordings, one tape entry per recurrence, the
list-of-contributions rule of ``Tape.backward``, and input checks."""

import numpy as np
import pytest

from hatfusion import tensor as T
from hatfusion.hat import HatConfig, HatModel, Utterance, pad_ids

from conftest import (op_by_op_encode, op_by_op_encode_batch, op_by_op_predict_states,
                      weighted_scalar)


def _model(seed):
    cfg = HatConfig(vocab_size=5, acoustic_size=6, embed_dim=3, hidden_dim=7, joint_dim=4)
    return HatModel(cfg, seed=seed)


def _taped(model, build):
    """The output of ``build()`` and every parameter gradient of a random
    weighting of it, taken on one tape."""
    model.params.clear_grads()
    with T.Tape() as tape:
        out = build()
        w = np.random.default_rng(7).normal(size=out.shape)
        loss = weighted_scalar(out, w)
    tape.backward(loss)
    return out.data, {n: p.grad for n, p in model.params.items()}


def _assert_same(got, want):
    (out, grads), (want_out, want_grads) = got, want
    np.testing.assert_array_equal(out, want_out)
    for name, g in grads.items():
        if want_grads[name] is None:
            assert g is None, name
        else:
            np.testing.assert_array_equal(g, want_grads[name], err_msg=name)


@pytest.mark.parametrize("t_len", [1, 2, 9])
@pytest.mark.parametrize("seed", range(3))
def test_encode_bit_identical_to_op_by_op(t_len, seed):
    model = _model(seed)
    acoustics = np.random.default_rng(seed).integers(0, 6, size=t_len).tolist()
    _assert_same(_taped(model, lambda: model.encode(acoustics)),
                 _taped(model, lambda: op_by_op_encode(model, acoustics)))


@pytest.mark.parametrize("seed", range(3))
def test_mle_batch_bit_identical_to_op_by_op(seed, monkeypatch):
    # four utterances of unequal frames as one padded graph: each recurrence
    # gives its weights per-step gradients, and the padded encoder states
    # past an utterance's frames take exact zeros from its lattice
    rng = np.random.default_rng(200 + seed)
    model = _model(seed)
    batch = [Utterance(f"u{i}", rng.integers(0, 6, size=rng.integers(1, 9)).tolist(),
                       rng.integers(0, 5, size=rng.integers(0, 5)).tolist()) for i in range(4)]
    got = _taped(model, lambda: model.mle_loss(batch))
    calls = []

    def recorded(oracle):
        def run(*args):
            calls.append(oracle.__name__)
            return oracle(*args)
        return run

    monkeypatch.setattr(HatModel, "encode_batch", recorded(op_by_op_encode_batch))
    monkeypatch.setattr(HatModel, "predict_states", recorded(op_by_op_predict_states))
    _assert_same(got, _taped(model, lambda: model.mle_loss(batch)))
    # the recordings stood in for the loss's one batched graph
    assert calls == ["op_by_op_encode_batch", "op_by_op_predict_states"]


@pytest.mark.parametrize("seed", range(3))
def test_prediction_batch_bit_identical_to_op_by_op(seed):
    # K > 1 sequences of unequal lengths, an empty one among them
    rng = np.random.default_rng(300 + seed)
    model = _model(seed)
    seqs = [rng.integers(0, 5, size=n).tolist() for n in (3, 0, 5, 1, 5)]
    _assert_same(_taped(model, lambda: model.predict_states(pad_ids(seqs))),
                 _taped(model, lambda: op_by_op_predict_states(model, pad_ids(seqs))))


def test_search_steps_match_the_tape():
    # the search's one-row prediction steps give the tape's states bit for bit
    model = _model(4)
    states = model.predict_states(pad_ids([[3, 1, 4]])).data[0]
    h = model.pred_start_np()
    np.testing.assert_array_equal(h, states[0])
    for u, tok in enumerate([3, 1, 4], 1):
        h = model.pred_step_np(h, tok)
        np.testing.assert_array_equal(h, states[u])


def test_encode_np_records_nothing_under_a_tape():
    model = _model(0)
    with T.Tape() as tape:
        model.encode_np([1, 2, 3])
    assert len(tape) == 0


def test_encode_tape_length_does_not_grow_with_frames():
    # a lookup, the recurrence and the batch-of-one slice, at any T
    model = _model(0)
    lengths = []
    for t_len in (2, 12):
        with T.Tape() as tape:
            model.encode([1] * t_len)
        lengths.append(len(tape))
    assert lengths == [3, 3]


def test_mle_tape_length_does_not_grow_with_batch():
    # one padded graph per batch, not one per utterance: at fixed frames and
    # labels, an MLE step records as many entries at B = 8 as at B = 1
    model = _model(0)
    lengths = []
    for b in (1, 4, 8):
        batch = [Utterance(f"u{i}", [i % 6, 2, 5], [i % 5, 3]) for i in range(b)]
        model.params.zero_grads()
        with T.Tape() as tape:
            tape.backward(model.mle_loss(batch))
        lengths.append(len(tape))
    assert lengths == [lengths[0]] * 3


class TestContributionLists:
    def _backward(self, parts):
        x = T.Tensor(np.zeros(1), trainable=True)
        with T.Tape() as tape:
            out = T._record(T.Tensor(np.zeros(1)), (x,), lambda g: ([np.array([p]) for p in parts],))
        tape.backward(out)
        return x.grad

    def test_added_one_by_one_in_order(self):
        # ((0 + 1e16) + 1) + 1 rounds each 1 away; a pre-summed 1e16 + 2 would not
        assert self._backward([1e16, 1.0, 1.0])[0] == 1e16
        assert 1e16 + (1.0 + 1.0) != 1e16

    def test_first_write_turns_negative_zero_positive(self):
        g = self._backward([-0.0])
        assert g[0] == 0.0 and not np.signbit(g[0])

    def test_empty_list_leaves_no_gradient(self):
        assert self._backward([]) is None


class TestInputChecks:
    def _weights(self, e=2, h=3):
        return T.constant(np.zeros((e, h))), T.constant(np.zeros((h, h))), T.constant(np.zeros(h))

    def test_step_axis_must_be_nonempty(self):
        with pytest.raises(ValueError, match="S>=1"):
            T.tanh_recurrence(T.constant(np.zeros((0, 1, 2))), *self._weights())

    def test_input_width_must_match(self):
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            T.tanh_recurrence(T.constant(np.zeros((4, 1, 3))), *self._weights())

    def test_state_weights_must_be_square(self):
        wx, _, b = self._weights()
        with pytest.raises(ValueError, match="wh"):
            T.tanh_recurrence(T.constant(np.zeros((4, 1, 2))), wx, T.constant(np.zeros((3, 2))), b)

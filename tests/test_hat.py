"""Transducer tests: lattice oracles, normalization, ILM, losses, checkpoints."""

import itertools
import math
from dataclasses import field, make_dataclass

import numpy as np
import pytest

from hatfusion import tensor as T
from hatfusion.hat import (
    HatConfig,
    HatModel,
    Utterance,
    check_field_types,
    load_checkpoint,
    save_checkpoint,
)

from conftest import check_gradients


def tiny_model(v=3, a=4, seed=0, **kw):
    cfg = HatConfig(vocab_size=v, acoustic_size=a, embed_dim=3, hidden_dim=4, joint_dim=4, **kw)
    return HatModel(cfg, seed=seed)


def local_grids(model, acoustics, labels):
    """Numpy (log b, log(1-b), label log-probs) grids for one pair."""
    enc = model.encode(list(acoustics))
    locs = model.joint_locals(enc, list(labels))
    logit = locs.blank_logit.data
    lb = -np.logaddexp(0.0, -logit)
    l1mb = -np.logaddexp(0.0, logit)
    return lb, l1mb, locs.label_logprob.data


def enumerated_full_sum(lb, l1mb, lab, labels):
    """Sum over every monotonic alignment, walked recursively.

    Independent of the production DP: explores blank (consume a frame)
    and label (emit the next token) moves from each node.
    """
    t_len = lb.shape[0]
    u_len = len(labels)
    done = []

    def walk(t, u, w):
        wb = w + lb[t, u]
        if t == t_len - 1:
            if u == u_len:
                done.append(wb)
        else:
            walk(t + 1, u, wb)
        if u < u_len:
            walk(t, u + 1, w + l1mb[t, u] + lab[t, u, labels[u]])

    walk(0, 0, 0.0)
    if not done:
        return -np.inf
    m = max(done)
    return m + math.log(sum(math.exp(x - m) for x in done))


class TestConfig:
    @pytest.mark.parametrize("field", ["vocab_size", "acoustic_size", "embed_dim",
                                       "hidden_dim", "joint_dim"])
    @pytest.mark.parametrize("value", [0, -2, 2.5, True])
    def test_dimensions_must_be_positive_integers(self, field, value):
        kw = dict(vocab_size=3, acoustic_size=4)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            HatConfig(**kw)

    def test_numpy_integers_accepted(self):
        assert HatConfig(vocab_size=np.int64(3), acoustic_size=4).vocab_size == 3

    def test_one_type_rule_for_every_config_field(self):
        # string annotations, as under ``from __future__ import annotations``
        Probe = make_dataclass("Probe", [("n", "int", field(default=1)),
                                         ("x", "float", field(default=0.5)),
                                         ("on", "bool", field(default=False)),
                                         ("name", "str", field(default="a"))])
        check_field_types(Probe(n=np.int64(2), x=3, on=True))  # an int is a finite float
        for key, value in (("n", True), ("n", 2.0), ("x", False), ("x", math.nan),
                           ("x", -math.inf), ("x", 10**400), ("on", 1), ("name", 3)):
            with pytest.raises(ValueError, match=f"{key} must be"):
                check_field_types(Probe(**{key: value}))


class TestStackedHeads:
    def test_rows_equal_one_row_stacks(self):
        # the search ranks by exact bits, so a row of a stacked call must
        # equal the same row scored alone, at the benchmark's sizes
        cfg = HatConfig(vocab_size=12, acoustic_size=8, embed_dim=8, hidden_dim=16, joint_dim=16)
        m = HatModel(cfg, seed=4)
        rng = np.random.default_rng(4)
        states = np.tanh(rng.normal(size=(9, 16)))
        eproj_t = m.eproj_np(m.encode_np([1, 5]))[1]
        dproj = m.dproj_np(states)
        blank, label = m.joint_np(eproj_t, dproj)
        ilm = m.ilm_logprobs_np(dproj)
        assert blank.shape == (9,) and label.shape == ilm.shape == (9, 12)
        for i in range(9):
            one = dproj[i][None]
            np.testing.assert_array_equal(m.dproj_np(states[i][None])[0], dproj[i])
            b, lab = m.joint_np(eproj_t, one)
            assert b[0] == blank[i]
            np.testing.assert_array_equal(lab[0], label[i])
            np.testing.assert_array_equal(m.ilm_logprobs_np(one)[0], ilm[i])


class TestEncoder:
    def test_single_frame_single_state(self):
        m = tiny_model()
        assert m.encode([2]).shape == (1, m.config.hidden_dim)

    def test_deterministic(self):
        m = tiny_model()
        a = m.encode([0, 1, 2, 3]).data
        b = m.encode([0, 1, 2, 3]).data
        np.testing.assert_array_equal(a, b)

    def test_frame_order_matters_when_recurrent(self):
        m = tiny_model(seed=5)
        fwd = m.encode([0, 1, 2]).data
        rev = m.encode([2, 1, 0]).data
        assert not np.allclose(fwd, rev)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty acoustic"):
            tiny_model().encode([])

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            tiny_model(a=4).encode([0, 4])

    def test_numpy_path_matches_tensor_path(self):
        for seed in range(3):
            m = tiny_model(seed=seed)
            ids = [0, 3, 1, 2, 2]
            np.testing.assert_array_equal(m.encode(ids).data, m.encode_np(ids))


class TestJointLocals:
    def test_grid_shape(self):
        m = tiny_model()
        enc = m.encode([0, 1, 2])
        locs = m.joint_locals(enc, [1, 0])
        assert locs.blank_logit.shape == (3, 3)
        assert locs.label_logprob.shape == (3, 3, m.config.vocab_size)

    def test_zeroed_label_head_uniform(self):
        m = tiny_model(v=3)
        m.params["label_w"].data[...] = 0.0
        m.params["label_b"].data[...] = 0.0
        locs = m.joint_locals(m.encode([0, 1]), [2])
        np.testing.assert_allclose(locs.label_logprob.data, -math.log(3), atol=1e-15)

    def test_zeroed_blank_head_gives_half(self):
        m = tiny_model()
        m.params["blank_w"].data[...] = 0.0
        m.params["blank_b"].data[...] = 0.0
        locs = m.joint_locals(m.encode([0, 1]), [])
        np.testing.assert_allclose(locs.blank_prob, 0.5, atol=1e-15)

    def test_blank_prob_in_open_interval(self):
        m = tiny_model(seed=3)
        locs = m.joint_locals(m.encode([0, 1, 2, 3]), [0, 1, 2])
        assert np.all(locs.blank_prob > 0) and np.all(locs.blank_prob < 1)

    def test_label_rows_normalize(self):
        m = tiny_model(seed=4)
        locs = m.joint_locals(m.encode([1, 2]), [0, 2])
        sums = np.exp(locs.label_logprob.data).sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_prefix_token_outside_vocab_rejected(self):
        m = tiny_model(v=3)
        with pytest.raises(ValueError, match="out of range"):
            m.joint_locals(m.encode([0]), [3])


class TestFullSum:
    def test_single_frame_empty_label(self):
        m = tiny_model(seed=1)
        lb, _, _ = local_grids(m, [2], [])
        got = m.full_sum_log_prob(Utterance("u", [2], []), [])
        assert got.item() == pytest.approx(lb[0, 0], abs=1e-14)

    def test_two_frames_one_label_two_paths(self):
        m = tiny_model(seed=2)
        y = [1]
        lb, l1mb, lab = local_grids(m, [0, 3], y)
        p1 = l1mb[0, 0] + lab[0, 0, 1] + lb[0, 1] + lb[1, 1]
        p2 = lb[0, 0] + l1mb[1, 0] + lab[1, 0, 1] + lb[1, 1]
        want = np.logaddexp(p1, p2)
        got = m.full_sum_log_prob(Utterance("u", [0, 3], y), y)
        assert got.item() == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_path_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        m = tiny_model(v=3, seed=seed + 10)
        for t_len, u_len in itertools.product([1, 2, 3, 4], [0, 1, 2, 3]):
            ac = rng.integers(0, 4, size=t_len).tolist()
            y = rng.integers(0, 3, size=u_len).tolist()
            lb, l1mb, lab = local_grids(m, ac, y)
            want = enumerated_full_sum(lb, l1mb, lab, y)
            got = m.full_sum_log_prob(Utterance("u", ac, y), y).item()
            assert got == pytest.approx(want, abs=1e-10)

    def test_batched_matches_single(self):
        m = tiny_model(v=3, seed=7)
        enc = m.encode([0, 1, 2, 3, 0])
        seqs = [[], [1], [2, 0], [1, 1, 2], [0]]
        batched = m.full_sum_log_probs(enc, seqs).data
        for s, b in zip(seqs, batched):
            single = m.full_sum_log_prob(Utterance("u", [0, 1, 2, 3, 0], s), s).item()
            assert b == pytest.approx(single, abs=1e-12)

    def test_geometric_constant_blank(self):
        # Single frame, |V| = 1, constant blank prob: P(len n) = (1-b)^n b.
        m = tiny_model(v=1, seed=0)
        m.params["blank_w"].data[...] = 0.0
        m.params["blank_b"].data[...] = 1.1
        b = 1.0 / (1.0 + math.exp(-1.1))
        for n in range(6):
            got = m.full_sum_log_prob(Utterance("u", [0], [0] * n), [0] * n).item()
            assert math.exp(got) == pytest.approx((1 - b) ** n * b, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        m = tiny_model(v=3, seed=11)
        utt = Utterance("u", [0, 2, 1], [1, 2])

        def build():
            return m.full_sum_log_prob(utt, utt.reference)

        check_gradients(build, m.params, rtol=1e-4)

    def test_probability_normalizes_small_case(self):
        # T = 2, |V| = 2, blank-biased so the tail is provably negligible.
        m = tiny_model(v=2, seed=3)
        m.params["blank_w"].data[...] *= 0.1
        m.params["blank_b"].data[...] = 2.5
        utt = Utterance("u", [1, 2], [])
        enc = m.encode(utt.acoustics)
        t_len = len(utt.acoustics)
        mass = 0.0
        partials = []
        for n in range(11):
            seqs = [list(y) for y in itertools.product(range(2), repeat=n)]
            mass += float(np.exp(m.full_sum_log_probs(enc, seqs).data).sum())
            partials.append(mass)
        assert all(b >= a for a, b in zip(partials, partials[1:]))
        assert partials[-1] <= 1 + 1e-9
        # Worst case over every node: blank logit >= bias - |w|_1 since the
        # joint activation lies in (-1, 1)^J. Summing the label distribution
        # out telescopes to 1, so length-n mass <= C(T-1+n, n) q^n.
        q = 1 - 1 / (1 + math.exp(-(2.5 - float(np.abs(m.params["blank_w"].data).sum()))))
        tail = sum(math.comb(t_len - 1 + n, n) * q**n for n in range(11, 600))
        assert tail < 1e-7
        assert partials[-1] == pytest.approx(1.0, abs=1e-6)


class TestInternalLm:
    def test_empty_sequence(self):
        s = tiny_model().internal_lm_log_prob([[]])[0]
        assert s.size == 0 and float(np.sum(s)) == 0.0

    def test_zeroed_label_head_uniform(self):
        m = tiny_model(v=3)
        m.params["label_w"].data[...] = 0.0
        m.params["label_b"].data[...] = 0.0
        s = m.internal_lm_log_prob([[0, 2, 1]])[0]
        np.testing.assert_allclose(s, -math.log(3), atol=1e-15)

    def test_incremental_prefix_oracle(self):
        m = tiny_model(seed=8)
        y = [2, 0, 1, 1]
        s = m.internal_lm_log_prob([y])[0]
        for l in range(1, len(y) + 1):
            prefix_total = float(np.sum(m.internal_lm_log_prob([y[:l]])[0]))
            assert prefix_total == pytest.approx(float(np.sum(s[:l])), abs=1e-12)

    def test_ignores_acoustics_by_construction(self):
        m = tiny_model(seed=9)
        before = m.internal_lm_log_prob([[1, 0, 2]])[0]
        m.params["aemb"].data[...] = 0.12345
        m.params["enc_wx"].data[...] *= -3.0
        after = m.internal_lm_log_prob([[1, 0, 2]])[0]
        np.testing.assert_array_equal(before, after)

    def test_records_nothing_under_a_tape(self):
        m = tiny_model(seed=13)
        with T.Tape() as tape:
            s = m.internal_lm_log_prob([[2, 0, 1]])[0]
        assert len(tape) == 0 and s.shape == (3,)

    def test_batched_ilm_matches_single(self):
        m = tiny_model(v=3, seed=12)
        enc = m.encode([0, 1])
        seqs = [[1, 2], [0], [2, 2, 1]]
        _, totals = m.score_sequences(enc, seqs)
        for s, tot in zip(seqs, totals.data):
            assert tot == pytest.approx(float(np.sum(m.internal_lm_log_prob([s])[0])), abs=1e-12)


class TestMleLoss:
    def test_single_utterance_is_negative_log_prob(self):
        m = tiny_model(seed=2)
        utt = Utterance("u", [0, 1, 2], [1])
        loss = m.mle_loss([utt]).item()
        direct = m.full_sum_log_prob(utt, utt.reference).item()
        assert loss == pytest.approx(-direct, abs=1e-14)

    def test_strictly_positive(self):
        m = tiny_model(seed=4)
        batch = [Utterance("a", [0, 1], [2]), Utterance("b", [3], [])]
        assert m.mle_loss(batch).item() > 0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            tiny_model().mle_loss([])

    def test_empty_acoustics_in_batch_rejected(self):
        batch = [Utterance("a", [0, 1], [2]), Utterance("b", [], [1])]
        with pytest.raises(ValueError, match="empty acoustic"):
            tiny_model().mle_loss(batch)

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_is_mean_of_utterances(self, seed):
        # the padded graph against one graph per utterance: unequal frames
        # and labels, an empty reference among them
        rng = np.random.default_rng(40 + seed)
        m = tiny_model(v=4, a=5, seed=seed)
        batch = [Utterance(f"u{i}", rng.integers(0, 5, size=rng.integers(1, 8)).tolist(),
                           rng.integers(0, 4, size=n).tolist()) for i, n in enumerate([3, 0, 5, 1, 2])]

        def taped(build):
            m.params.clear_grads()
            with T.Tape() as tape:
                loss = build()
            tape.backward(loss)
            return loss.item(), [p.grad for p in m.params.tensors()]

        loss, grads = taped(lambda: m.mle_loss(batch))
        want, want_grads = taped(lambda: T.scale(T.mean_vec(T.concat(
            [m.full_sum_log_prob(u, u.reference)[None] for u in batch])), -1.0))
        assert loss == pytest.approx(want, rel=0, abs=1e-12)
        for g, w in zip(grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        m = tiny_model(v=3, seed=13)
        batch = [Utterance("a", [0, 2], [1, 0]), Utterance("b", [3, 1, 2], [2])]
        check_gradients(lambda: m.mle_loss(batch), m.params, rtol=1e-4)

    def test_one_descent_step_lowers_loss(self):
        m = tiny_model(seed=14)
        batch = [Utterance("a", [0, 1, 2, 3], [1, 2]), Utterance("b", [2, 2], [0])]
        with T.Tape() as tape:
            loss0 = m.mle_loss(batch)
        tape.backward(loss0)
        T.Sgd(0.05).step(m.params)
        assert m.mle_loss(batch).item() < loss0.item()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        m = tiny_model(v=5, a=6, seed=21)
        save_checkpoint(m, tmp_path / "ck")
        again = load_checkpoint(tmp_path / "ck")
        assert again.config == m.config
        for (_, a), (_, b) in zip(m.params.items(), again.params.items()):
            np.testing.assert_array_equal(a.data, b.data)
        utt = Utterance("u", [0, 1], [2, 3])
        assert again.full_sum_log_prob(utt, utt.reference).item() == pytest.approx(
            m.full_sum_log_prob(utt, utt.reference).item(), abs=0
        )

    # a header as older versions wrote it, when the encoder kind was a setting
    LEGACY_HEADER = """{
  "kind": "hat",
  "config": {
    "vocab_size": 5,
    "acoustic_size": 6,
    "embed_dim": 3,
    "hidden_dim": 4,
    "joint_dim": 4,
    "recurrent_encoder": %s
  }
}
"""

    def test_legacy_recurrent_header_loads(self, tmp_path):
        m = tiny_model(v=5, a=6, seed=22)
        save_checkpoint(m, tmp_path / "ck")
        (tmp_path / "ck.json").write_text(self.LEGACY_HEADER % "true")
        again = load_checkpoint(tmp_path / "ck")
        assert again.config == m.config
        utt = Utterance("u", [0, 5, 1], [2, 4])
        assert again.full_sum_log_prob(utt, utt.reference).item() == \
            m.full_sum_log_prob(utt, utt.reference).item()
        np.testing.assert_array_equal(again.encode_np(utt.acoustics),
                                      m.encode_np(utt.acoustics))

    def test_legacy_feedforward_header_rejected(self, tmp_path):
        save_checkpoint(tiny_model(v=5, a=6), tmp_path / "ck")
        (tmp_path / "ck.json").write_text(self.LEGACY_HEADER % "false")
        with pytest.raises(ValueError, match="ck.json"):
            load_checkpoint(tmp_path / "ck")

    def test_wrong_kind_rejected(self, tmp_path):
        m = tiny_model()
        save_checkpoint(m, tmp_path / "ck")
        header = (tmp_path / "ck.json").read_text().replace("hat", "other")
        (tmp_path / "ck.json").write_text(header)
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(tmp_path / "ck")

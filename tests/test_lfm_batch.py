"""The fusion module over padded blocks: a whole N-best list as one (K, L)
block against its utterance's states, and a whole batch of lists as one
(N, L_max) block against per-row states with frame counts."""

from dataclasses import replace

import numpy as np
import pytest

from hatfusion import decode as D
from hatfusion import lfm as F
from hatfusion import mwer as M
from hatfusion import tensor as T
from hatfusion.hat import pad_ids

from conftest import check_gradients
from test_lfm import HID, V, prepared_list, tiny_elm, tiny_hat, tiny_lfm


def padded_block(rng, rows: int, width: int):
    lengths = rng.integers(1, width + 1, size=rows)
    ids = rng.integers(0, V, size=(rows, width))
    return ids, lengths


def empty_hyp(e2e):
    return D.Hypothesis(tokens=(), e2e_search=e2e, ilm_scores=np.zeros(0),
                        elm_scores=np.zeros(0), combined=e2e, e2e_fullsum=e2e)


class TestBlockForward:
    def test_rows_match_single_sequence_forwards(self):
        rng = np.random.default_rng(40)
        for seed in range(6):
            lfm = tiny_lfm(60 + seed)
            enc = rng.normal(size=(int(rng.integers(1, 6)), HID))
            ids, lengths = padded_block(rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)))
            w = lfm.forward(enc, ids).data
            assert w.shape == ids.shape + (2,)
            for row, n, wr in zip(ids, lengths, w):
                np.testing.assert_allclose(wr[:n], lfm.forward(enc, row[:n]).data,
                                           rtol=1e-12, atol=0)

    def test_valid_positions_ignore_padding_and_other_rows(self):
        rng = np.random.default_rng(41)
        for seed in range(6):
            lfm = tiny_lfm(70 + seed)
            enc = rng.normal(size=(4, HID))
            ids, lengths = padded_block(rng, 4, 6)
            w = lfm.forward(enc, ids).data
            other = rng.integers(0, V, size=ids.shape)
            keep = np.arange(ids.shape[1])[None, :] < lengths[:, None]
            for i, n in enumerate(lengths):
                # row i keeps its tokens; its padding and every other row change
                alt = other.copy()
                alt[i, :n] = ids[i, :n]
                np.testing.assert_array_equal(lfm.forward(enc, alt).data[i, :n], w[i, :n])
            repadded = np.where(keep, ids, other)
            np.testing.assert_array_equal(lfm.forward(enc, repadded).data[keep], w[keep])


class TestEmptyHypotheses:
    def lists(self, rng, hat, elm):
        utt, nb = prepared_list(rng, hat, elm, uid="mixed", k=4)
        real = [h for h in nb.hyps if h.tokens]
        assert len(real) >= 2
        mixed = replace(nb, hyps=real[:1] + [empty_hyp(-2.5)] + real[1:])
        utt2, nb2 = prepared_list(rng, hat, elm, uid="bare")
        bare = replace(nb2, hyps=[empty_hyp(-1.0), empty_hyp(-3.0)])
        return [(utt, mixed), (utt2, bare)]

    def test_loss_and_step_accept_empty_hypotheses(self):
        rng = np.random.default_rng(42)
        hat, lfm = tiny_hat(80), tiny_lfm(81)
        elm = tiny_elm(rng)
        batch = self.lists(rng, hat, elm)
        utt = batch[1][0]
        # no tokens, no weights: the loss is the expectation under the full sums
        p = np.exp([-1.0, -3.0] - np.logaddexp(-1.0, -3.0))
        errors = [M.nwe((), utt.reference)] * 2
        assert float(F.lfm_loss([batch[1]], hat, lfm).data) == pytest.approx(
            float(np.dot(p, errors)), rel=1e-12)
        assert np.isfinite(float(F.lfm_loss(batch, hat, lfm).data))
        before = lfm.params.to_bytes()
        assert np.isfinite(F.train_lfm_step(batch, hat, lfm, T.Adam(1e-3)))
        assert lfm.params.to_bytes() != before

    def test_constant_head_ranking_equals_scalar_rescoring(self):
        rng = np.random.default_rng(43)
        hat, lfm = tiny_hat(82), tiny_lfm(83)
        elm = tiny_elm(rng)
        c_mu, c_nu = lfm.set_constant_head(0.35, 0.25)
        for utt, nb in self.lists(rng, hat, elm):
            via_lfm = F.rescore_with_lfm(utt, nb, hat, elm, lfm)
            via_scalar = F.rescore_scalar(nb, c_mu, c_nu)
            assert [(h.tokens, h.combined) for h in via_lfm.hyps] == \
                [(h.tokens, h.combined) for h in via_scalar.hyps]

    def test_weight_stats_count_only_real_tokens(self):
        rng = np.random.default_rng(44)
        hat, lfm = tiny_hat(84), tiny_lfm(85)
        elm = tiny_elm(rng)
        dataset = self.lists(rng, hat, elm)
        stats = F.weight_stats(dataset, lfm, hat)
        assert stats.token_count == sum(len(h.tokens) for _, nb in dataset for h in nb.hyps)
        with pytest.raises(ValueError, match="no tokens"):
            F.weight_stats(dataset[1:], lfm, hat)


def test_loss_tape_length_does_not_grow_with_list_size():
    rng = np.random.default_rng(45)
    hat, lfm = tiny_hat(86), tiny_lfm(87)
    elm = tiny_elm(rng)
    utt, nb = prepared_list(rng, hat, elm, k=8)
    assert len(nb.hyps) >= 6
    lengths = set()
    for k in (1, 3, 6):
        with T.Tape() as tape:
            F.lfm_loss([(utt, replace(nb, hyps=nb.hyps[:k]))], hat, lfm)
        lengths.add(len(tape))
    assert len(lengths) == 1


def mixed_batch(rng, hat, elm):
    """Lists that differ in hypothesis count K, token length L and frames T."""
    batch = [prepared_list(rng, hat, elm, t=t, uid=f"m{i}", k=k)
             for i, (t, k) in enumerate(((3, 2), (7, 5), (5, 1), (4, 4)))]
    assert len({len(nb.hyps) for _, nb in batch}) > 1
    assert len({max(len(h.tokens) for h in nb.hyps) for _, nb in batch}) > 1
    return batch


def one_list_loss(utt, nb, hat, lfm):
    """A list's expected word errors from its own 2-D forward, the
    one-list graph that a batch block must reproduce."""
    w = lfm.forward(hat.encode_np(utt.acoustics), pad_ids(nb.token_lists()))
    pairs = np.zeros(w.shape)
    for row, h in zip(pairs, nb.hyps):
        row[:len(h.tokens), 0] = np.negative(h.ilm_scores)
        row[:len(h.tokens), 1] = h.elm_scores
    per_token = T.matmul(T.multiply(w, T.constant(pairs)), T.constant(np.ones(2)))
    contrib = T.matmul(per_token, T.constant(np.ones(w.shape[1])))
    raw = T.add(T.constant([h.e2e_fullsum for h in nb.hyps]), contrib)
    return M.renormalized_expectation(raw, [M.nwe(h.tokens, utt.reference) for h in nb.hyps])


class TestBatchBlock:
    def test_rows_match_each_lists_own_forward(self):
        rng = np.random.default_rng(50)
        for seed in range(4):
            hat, lfm = tiny_hat(90 + seed), tiny_lfm(95 + seed)
            batch = mixed_batch(rng, hat, tiny_elm(rng))
            states, frames, ids = F._stack_lists(batch, hat)
            assert len(set(frames.tolist())) > 1
            w = lfm.forward(states, ids, frames).data
            start = 0
            for utt, nb in batch:
                own = lfm.forward(hat.encode_np(utt.acoustics), pad_ids(nb.token_lists())).data
                for k, h in enumerate(nb.hyps):
                    n = len(h.tokens)
                    np.testing.assert_allclose(w[start + k, :n], own[k, :n], rtol=1e-12, atol=0)
                start += len(nb.hyps)
            assert start == len(ids)

    def test_single_unpadded_list_equals_shared_states_bit_for_bit(self):
        rng = np.random.default_rng(51)
        for seed in range(6):
            hat, lfm = tiny_hat(100 + seed), tiny_lfm(110 + seed)
            utt, nb = prepared_list(rng, hat, tiny_elm(rng), t=int(rng.integers(1, 7)), k=4)
            states, frames, ids = F._stack_lists([(utt, nb)], hat)
            enc = hat.encode_np(utt.acoustics)
            np.testing.assert_array_equal(frames, len(enc))
            np.testing.assert_array_equal(lfm.forward(states, ids, frames).data,
                                          lfm.forward(enc, ids).data)
            # frames=None reads every row's states in full
            np.testing.assert_array_equal(lfm.forward(states, ids).data,
                                          lfm.forward(enc, ids).data)

    def test_loss_is_the_mean_of_one_list_losses(self):
        rng = np.random.default_rng(52)
        for seed in range(4):
            hat, lfm = tiny_hat(120 + seed), tiny_lfm(125 + seed)
            batch = mixed_batch(rng, hat, tiny_elm(rng))
            got = float(F.lfm_loss(batch, hat, lfm).data)
            want = np.mean([float(one_list_loss(u, nb, hat, lfm).data) for u, nb in batch])
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_batch_gradients_match_one_list_graphs(self):
        rng = np.random.default_rng(53)
        hat, lfm = tiny_hat(130), tiny_lfm(131)
        batch = mixed_batch(rng, hat, tiny_elm(rng))
        grads = []
        for build in (lambda: F.lfm_loss(batch, hat, lfm),
                      lambda: T.mean_vec(T.concat([one_list_loss(u, nb, hat, lfm)[None]
                                                   for u, nb in batch]))):
            lfm.params.zero_grads()
            with T.Tape() as tape:
                loss = build()
            tape.backward(loss)
            grads.append(np.concatenate([p.grad.ravel() for p in lfm.params.tensors()]))
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-9, atol=1e-14)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(54)
        hat, lfm = tiny_hat(132), tiny_lfm(133)
        batch = mixed_batch(rng, hat, tiny_elm(rng))
        subset = [lfm.params[n] for n in ("head_w", "head_b", "emb", "enc_in", "l0_ck", "l1_cv",
                                          "l1_cq", "l0_sq", "ln_f_g")]
        check_gradients(lambda: F.lfm_loss(batch, hat, lfm), subset)

    def test_padded_hypotheses_get_exactly_zero_gradient(self):
        rng = np.random.default_rng(55)
        hat, lfm = tiny_hat(134), tiny_lfm(135)
        batch = mixed_batch(rng, hat, tiny_elm(rng))
        counts = np.array([len(nb.hyps) for _, nb in batch])
        padded = np.arange(counts.max())[None, :] >= counts[:, None]
        assert padded.any()
        with T.Tape() as tape:
            loss = F.lfm_loss(batch, hat, lfm)
        tape.backward(loss)
        # the (B, K_max) nodes of the expectation tail, from the gathered
        # contributions to the probabilities, the last of them
        blocks = [out for out, _, _ in tape._entries if out.shape == padded.shape]
        np.testing.assert_allclose(blocks[-1].data.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(blocks[-1].data[padded] == 0)
        for out in blocks:
            assert np.all(out.grad[padded] == 0)

    def test_one_graph_whatever_the_batch_size(self):
        rng = np.random.default_rng(56)
        hat, lfm = tiny_hat(136), tiny_lfm(137)
        batch = mixed_batch(rng, hat, tiny_elm(rng))
        lengths = set()
        for b in range(1, len(batch) + 1):
            with T.Tape() as tape:
                F.lfm_loss(batch[:b], hat, lfm)
            lengths.add(len(tape))
        assert len(lengths) == 1

    def test_weight_stats_equal_per_list_statistics(self):
        rng = np.random.default_rng(57)
        hat, lfm = tiny_hat(138), tiny_lfm(139)
        dataset = mixed_batch(rng, hat, tiny_elm(rng))
        utt, nb = dataset[0]
        dataset.append((utt, replace(nb, hyps=[])))  # adds nothing
        mus, nus = [], []
        for utt, nb in dataset:
            if not nb.hyps:
                continue
            w = lfm.forward(hat.encode_np(utt.acoustics), pad_ids(nb.token_lists())).data
            for h, wh in zip(nb.hyps, w):
                mus.append(wh[:len(h.tokens), 0])
                nus.append(wh[:len(h.tokens), 1])
        mu, nu = np.concatenate(mus), np.concatenate(nus)
        stats = F.weight_stats(dataset, lfm, hat)
        assert stats.token_count == mu.size
        for got, want in ((stats.mean_mu, np.mean(mu)), (stats.std_mu, np.std(mu)),
                          (stats.mean_nu, np.mean(nu)), (stats.std_nu, np.std(nu))):
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_empty_list_in_a_batch_is_refused(self):
        rng = np.random.default_rng(58)
        hat, lfm = tiny_hat(140), tiny_lfm(141)
        batch = mixed_batch(rng, hat, tiny_elm(rng))
        utt, nb = batch[2]
        batch[2] = (utt, replace(nb, hyps=[]))
        with pytest.raises(ValueError, match="empty hypothesis list"):
            F.lfm_loss(batch, hat, lfm)

    def test_per_row_states_are_checked(self):
        rng = np.random.default_rng(59)
        lfm = tiny_lfm(142)
        ids = rng.integers(0, V, size=(3, 2))
        states = rng.normal(size=(3, 4, HID))
        # a row short, the wrong state width, and shared states with counts
        for bad_states, frames in ((states[:2], [4, 4]), (states[..., :-1], [4, 4, 4]),
                                   (states[0], [4, 4, 4])):
            with pytest.raises(ValueError, match="encoder states"):
                lfm.forward(bad_states, ids, frames)
        for frames in ([0, 1, 4], [1, 5, 2], [1, 2]):
            with pytest.raises(ValueError, match="frame"):
                lfm.forward(states, ids, frames)

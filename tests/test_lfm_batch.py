"""The fusion module over a whole N-best list: one padded (K, L) block."""

from dataclasses import replace

import numpy as np
import pytest

from hatfusion import decode as D
from hatfusion import lfm as F
from hatfusion import mwer as M
from hatfusion import tensor as T

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

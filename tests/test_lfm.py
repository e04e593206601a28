import numpy as np
import pytest

from hatfusion import decode as D
from hatfusion import hat as H
from hatfusion import lfm as F
from hatfusion import lm as L
from hatfusion import mwer as M
from hatfusion import tensor as T

from conftest import check_gradients

V, A, HID = 3, 4, 4


def tiny_hat(seed):
    cfg = H.HatConfig(vocab_size=V, acoustic_size=A, embed_dim=3, hidden_dim=HID, joint_dim=4)
    return H.HatModel(cfg, seed=seed)


def tiny_lfm(seed=0, **kw):
    cfg = F.LfmConfig(vocab_size=V, enc_dim=HID, model_dim=8, num_heads=2,
                      num_layers=2, ffn_dim=8, **kw)
    return F.LfmModel(cfg, seed=seed)


def tiny_elm(rng, smoothing=0.5):
    corpus = [list(rng.integers(0, V, size=rng.integers(1, 5))) for _ in range(25)]
    return L.train_ngram(corpus, order=2, smoothing=smoothing, vocab=list(range(V)))


def make_utt(rng, t=4, uid="u"):
    return H.Utterance(uid, list(rng.integers(0, A, size=t)), list(rng.integers(0, V, size=2)))


def prepared_list(rng, hat, elm, t=4, uid="u", k=3):
    utt = make_utt(rng, t=t, uid=uid)
    nb = D.beam_search_plain(utt, hat, D.BeamConfig(beam_size=k, max_tokens=3, frame_cap=2))
    return utt, F.prepare_rescoring(utt, nb, hat, elm)


class TestForward:
    def test_shape_contract(self):
        rng = np.random.default_rng(0)
        lfm = tiny_lfm(1)
        enc = rng.normal(size=(5, HID))
        w = lfm.forward(enc, [0, 1, 2, 1, 0]).data
        assert w.shape == (5, 2)
        empty = lfm.forward(enc, []).data
        assert empty.shape == (0, 2)

    def test_nonnegative_outputs(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            lfm = tiny_lfm(seed)
            enc = rng.normal(size=(4, HID)) * 3
            toks = list(rng.integers(0, V, size=6))
            w = lfm.forward(enc, toks).data
            assert np.all(w >= 0)

    def test_causal_prefix_weights_are_bit_stable(self):
        rng = np.random.default_rng(3)
        lfm = tiny_lfm(4)
        for _ in range(10):
            enc = rng.normal(size=(4, HID))
            n = int(rng.integers(2, 7))
            toks = list(rng.integers(0, V, size=n))
            cut = int(rng.integers(1, n))
            alt = list(toks)
            alt[cut] = (alt[cut] + 1) % V
            a = lfm.forward(enc, toks).data
            b = lfm.forward(enc, alt).data
            np.testing.assert_array_equal(a[:cut], b[:cut])
            assert not np.array_equal(a[cut:], b[cut:])

    def test_constant_head_emits_constants(self):
        rng = np.random.default_rng(4)
        lfm = tiny_lfm(5)
        c_mu, c_nu = lfm.set_constant_head(0.4, 0.7)
        assert abs(c_mu - 0.4) < 1e-12 and abs(c_nu - 0.7) < 1e-12
        w = lfm.forward(rng.normal(size=(3, HID)), [0, 1, 2, 0]).data
        assert np.all(w[:, 0] == c_mu) and np.all(w[:, 1] == c_nu)

    def test_zero_constant_head_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        lfm = tiny_lfm(6)
        assert lfm.set_constant_head(0.0, 0.0) == (0.0, 0.0)
        w = lfm.forward(rng.normal(size=(3, HID)), [1, 2]).data
        assert np.all(w == 0.0)

    def test_input_validation(self):
        rng = np.random.default_rng(6)
        lfm = tiny_lfm(7)
        with pytest.raises(ValueError):
            lfm.forward(rng.normal(size=(3, HID)), [0, V])
        with pytest.raises(ValueError):
            lfm.forward(rng.normal(size=(3, HID + 1)), [0])
        with pytest.raises(ValueError):
            F.LfmConfig(vocab_size=V, enc_dim=HID, model_dim=9, num_heads=2)
        for field, value in (("num_heads", True), ("ffn_dim", 32.0)):
            with pytest.raises(ValueError, match=field):  # both used to pass
                F.LfmConfig(vocab_size=V, enc_dim=HID, **{field: value})
        # these divided by zero, or passed and failed later
        for field, value in (("num_heads", 0), ("num_heads", -2), ("ffn_dim", 0)):
            with pytest.raises(ValueError, match=field):
                F.LfmConfig(vocab_size=V, enc_dim=HID, **{field: value})


class TestWeightedContribution:
    def test_hand_example(self):
        assert F.weighted_contribution([0.5, 1.0], [-1.0, -2.0]) == -2.5

    def test_zero_weights(self):
        assert F.weighted_contribution(np.zeros(4), [-1, -2, -3, -4]) == 0.0

    def test_constant_weights_reduce_to_scalar_fusion(self):
        rng = np.random.default_rng(7)
        s = rng.normal(size=6)
        got = F.weighted_contribution(np.full(6, 0.37), s)
        assert abs(got - 0.37 * np.sum(s)) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            F.weighted_contribution([0.5], [-1.0, -2.0])


class TestRescoring:
    def test_prepare_attaches_all_components(self):
        rng = np.random.default_rng(8)
        hat = tiny_hat(10)
        elm = tiny_elm(rng)
        utt, nb = prepared_list(rng, hat, elm)
        for h in nb.hyps:
            assert h.e2e_fullsum is not None
            np.testing.assert_array_equal(
                h.ilm_scores, hat.internal_lm_log_prob([list(h.tokens)])[0]
            )
            np.testing.assert_array_equal(
                h.elm_scores, L.score_tokens(elm, list(h.tokens))
            )

    def test_prepared_fused_list_keeps_its_combined_score(self):
        # attaching scores to a fused list must not change what its stored
        # combined score is made of
        rng = np.random.default_rng(31)
        hat = tiny_hat(32)
        elm = tiny_elm(rng)
        lam, gam = 0.2, 0.3
        utt = make_utt(rng)
        cfg = D.BeamConfig(beam_size=4, ilm_weight=lam, elm_weight=gam, max_tokens=3)
        nb = F.prepare_rescoring(utt, D.beam_search(utt, hat, elm, cfg), hat, elm)
        assert nb.hyps
        for h in nb.hyps:
            assert h.recombined(lam, gam) == h.combined

    def test_prepare_keeps_the_fused_search_ilm_scores(self):
        # rescoring reads the very ILM numbers the fused search ranked with
        rng = np.random.default_rng(34)
        cfg = H.HatConfig(vocab_size=V, acoustic_size=A, embed_dim=8, hidden_dim=16, joint_dim=16)
        hat = H.HatModel(cfg, seed=35)
        elm = tiny_elm(rng)
        beam = D.BeamConfig(beam_size=8, ilm_weight=0.2, elm_weight=0.3, max_tokens=6)
        for i in range(8):
            utt = make_utt(rng, t=5, uid=f"f{i}")
            nb = D.beam_search(utt, hat, elm, beam)
            prepared = F.prepare_rescoring(utt, nb, hat, elm)
            assert [h.tokens for h in prepared.hyps] == [h.tokens for h in nb.hyps]
            for h, g in zip(nb.hyps, prepared.hyps):
                np.testing.assert_array_equal(g.ilm_scores, h.ilm_scores)

    def test_zero_weights_rank_by_full_sum(self):
        rng = np.random.default_rng(9)
        hat = tiny_hat(11)
        elm = tiny_elm(rng)
        _, nb = prepared_list(rng, hat, elm)
        out = F.rescore_scalar(nb, 0.0, 0.0)
        for h in out.hyps:
            assert h.combined == h.e2e_fullsum
        order = [h.e2e_fullsum for h in out.hyps]
        assert order == sorted(order, reverse=True)

    def test_constant_head_matches_scalar_rescoring_bitwise(self):
        rng = np.random.default_rng(10)
        for i in range(8):
            hat = tiny_hat(40 + i)
            elm = tiny_elm(rng)
            lfm = tiny_lfm(50 + i)
            c_mu, c_nu = lfm.set_constant_head(0.1 + 0.1 * (i % 4), 0.05 * i)
            utt, nb = prepared_list(rng, hat, elm, uid=f"c{i}")
            via_lfm = F.rescore_with_lfm(utt, nb, hat, elm, lfm)
            via_scalar = F.rescore_scalar(nb, c_mu, c_nu)
            assert [h.tokens for h in via_lfm.hyps] == [h.tokens for h in via_scalar.hyps]
            for a, b in zip(via_lfm.hyps, via_scalar.hyps):
                assert a.combined == b.combined

    def test_zero_output_module_keeps_e2e_ranking(self):
        rng = np.random.default_rng(11)
        hat = tiny_hat(12)
        elm = tiny_elm(rng)
        lfm = tiny_lfm(13)
        lfm.set_constant_head(0.0, 0.0)
        utt, nb = prepared_list(rng, hat, elm)
        out = F.rescore_with_lfm(utt, nb, hat, elm, lfm)
        by_e2e = sorted(nb.hyps, key=lambda h: (-h.e2e_fullsum, h.tokens))
        assert [h.tokens for h in out.hyps] == [h.tokens for h in by_e2e]

    def test_elm_preference_flips_ranking_past_threshold(self):
        hyps = [
            D.Hypothesis(tokens=(0,), e2e_search=-1.0, ilm_scores=np.zeros(1),
                         elm_scores=np.array([-3.0]), combined=-1.0,
                         e2e_fullsum=-1.0),
            D.Hypothesis(tokens=(1,), e2e_search=-1.5, ilm_scores=np.zeros(1),
                         elm_scores=np.array([-0.1]), combined=-1.5,
                         e2e_fullsum=-1.5),
        ]
        nb = D.NBestList("u", [1], hyps)
        # flip threshold: nu > (e2e_1 - e2e_2) / (r_2 - r_1) = 0.5 / 2.9
        below = F.rescore_scalar(nb, 0.0, 0.1)
        above = F.rescore_scalar(nb, 0.0, 0.25)
        assert below.hyps[0].tokens == (0,)
        assert above.hyps[0].tokens == (1,)

    def test_rejects_fused_or_unrescored_lists(self):
        rng = np.random.default_rng(12)
        hat = tiny_hat(14)
        elm = tiny_elm(rng)
        utt = make_utt(rng)
        fused = D.beam_search(utt, hat, elm, D.BeamConfig(beam_size=2, elm_weight=0.2))
        with pytest.raises(ValueError):
            F.rescore_scalar(fused, 0.1, 0.1)
        plain = D.beam_search_plain(utt, hat, D.BeamConfig(beam_size=2))
        with pytest.raises(ValueError):
            F.rescore_scalar(plain, 0.1, 0.1)

    @pytest.mark.parametrize("mu,nu", [(-0.1, 0.0), (0.0, -0.1)])
    def test_negative_weight_refused(self, mu, nu):
        rng = np.random.default_rng(17)
        hat = tiny_hat(18)
        _, nb = prepared_list(rng, hat, tiny_elm(rng))
        with pytest.raises(ValueError, match="nonnegative"):
            F.rescore_scalar(nb, mu, nu)

    @pytest.mark.parametrize("mu,nu", [(np.nan, 0.0), (0.1, np.nan), (np.inf, 0.0), (0.0, np.inf)])
    def test_non_finite_weight_refused(self, mu, nu):
        rng = np.random.default_rng(17)
        _, nb = prepared_list(rng, tiny_hat(18), tiny_elm(rng))
        with pytest.raises(ValueError, match="finite"):
            F.rescore_scalar(nb, mu, nu)

    @pytest.mark.parametrize("ranker", ["rescore_scalar", "rescore_with_lfm", "lfm_loss"])
    def test_list_without_lm_scores_refused(self, ranker):
        # rescore_components alone attaches the full sum but no per-token LM
        # scores; ranking such a list would make every weight do nothing
        rng = np.random.default_rng(13)
        hat = tiny_hat(15)
        lfm = tiny_lfm(16)
        utt = make_utt(rng)
        cfg = D.BeamConfig(beam_size=3, max_tokens=3, frame_cap=2)
        nb = D.rescore_components(D.beam_search_plain(utt, hat, cfg), hat, utt)
        assert any(h.tokens for h in nb.hyps)
        calls = {
            "rescore_scalar": lambda: F.rescore_scalar(nb, 0.5, 0.5),
            "rescore_with_lfm": lambda: F.rescore_with_lfm(utt, nb, hat, None, lfm),
            "lfm_loss": lambda: F.lfm_loss([(utt, nb)], hat, lfm),
        }
        with pytest.raises(ValueError, match="prepare_rescoring"):
            calls[ranker]()


class TestTraining:
    def build_batch(self, rng, hat, elm, n=2):
        return [prepared_list(rng, hat, elm, uid=f"t{i}") for i in range(n)]

    def test_loss_matches_numpy_oracle(self):
        rng = np.random.default_rng(13)
        hat = tiny_hat(15)
        elm = tiny_elm(rng)
        lfm = tiny_lfm(16)
        batch = self.build_batch(rng, hat, elm)
        loss = float(F.lfm_loss(batch, hat, lfm).data)
        per_utt = []
        for utt, nb in batch:
            enc = hat.encode_np(utt.acoustics)
            raw, errors = [], []
            for h in nb.hyps:
                toks = list(h.tokens)
                w = lfm.forward(enc, toks).data
                s = hat.internal_lm_log_prob([toks])[0]
                r = L.score_tokens(elm, toks)
                raw.append((h.e2e_fullsum - np.dot(w[:, 0], s)) + np.dot(w[:, 1], r))
                errors.append(M.nwe(h.tokens, utt.reference))
            raw = np.array(raw)
            p = np.exp(raw - np.max(raw))
            p /= p.sum()
            per_utt.append(float(np.dot(p, errors)))
        assert abs(loss - np.mean(per_utt)) < 1e-10

    def test_step_updates_lfm_and_freezes_hat(self):
        rng = np.random.default_rng(14)
        hat = tiny_hat(17)
        elm = tiny_elm(rng)
        lfm = tiny_lfm(18)
        batch = self.build_batch(rng, hat, elm)
        hat_before = hat.params.to_bytes()
        lfm_before = lfm.params.to_bytes()
        loss = F.train_lfm_step(batch, hat, lfm, T.Adam(1e-4))
        assert np.isfinite(loss)
        assert hat.params.to_bytes() == hat_before
        assert lfm.params.to_bytes() != lfm_before

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        hat = tiny_hat(19)
        elm = tiny_elm(rng)
        lfm = tiny_lfm(20)
        batch = self.build_batch(rng, hat, elm, n=1)
        subset = [lfm.params[n] for n in
                  ("head_w", "head_b", "emb", "enc_in", "l0_sq", "l1_cq",
                   "l0_ffn_w1", "ln_f_g", "l1_ln2_b")]
        check_gradients(lambda: F.lfm_loss(batch, hat, lfm), subset)

    def test_constant_head_loss_equals_scalar_composite(self):
        rng = np.random.default_rng(16)
        hat = tiny_hat(21)
        elm = tiny_elm(rng)
        lfm = tiny_lfm(22)
        c_mu, c_nu = lfm.set_constant_head(0.3, 0.2)
        batch = self.build_batch(rng, hat, elm)
        got = float(F.lfm_loss(batch, hat, lfm).data)
        cfg = M.MwerConfig(mu=c_mu, nu=c_nu, theta=0.0)
        want = np.mean([
            float(M.composite_loss(utt, nb, hat, cfg).data) for utt, nb in batch
        ])
        assert abs(got - want) < 1e-9

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(17)
        hat = tiny_hat(23)
        elm = tiny_elm(rng)
        with pytest.raises(ValueError):
            F.lfm_loss([], hat, tiny_lfm(24))

    def test_empty_list_rejected(self):
        rng = np.random.default_rng(18)
        hat = tiny_hat(25)
        [(utt, nb)] = self.build_batch(rng, hat, tiny_elm(rng), n=1)
        empty = D.NBestList(nb.uid, list(nb.reference), [])
        with pytest.raises(ValueError, match="empty hypothesis list"):
            F.lfm_loss([(utt, nb), (utt, empty)], hat, tiny_lfm(26))

    def test_reads_attached_scores_without_recomputing(self, monkeypatch):
        rng = np.random.default_rng(22)
        hat = tiny_hat(34)
        elm = tiny_elm(rng)
        lfm = tiny_lfm(35)
        batch = self.build_batch(rng, hat, elm)

        def recomputed(*args, **kwargs):
            raise AssertionError("a prepared list's scores were recomputed")

        monkeypatch.setattr(H.HatModel, "internal_lm_log_prob", recomputed)
        monkeypatch.setattr(F, "score_tokens", recomputed)
        loss = float(F.lfm_loss(batch, hat, lfm).data)
        assert np.isfinite(loss)
        assert np.isfinite(F.train_lfm_step(batch, hat, lfm,
                                            T.Adam(1e-4)))
        for utt, nb in batch:
            ranked = F.rescore_with_lfm(utt, nb, hat, elm, lfm)
            assert sorted(h.tokens for h in ranked.hyps) == sorted(h.tokens for h in nb.hyps)


class TestWeightStats:
    def test_aggregates_all_tokens(self):
        rng = np.random.default_rng(18)
        hat = tiny_hat(25)
        elm = tiny_elm(rng)
        lfm = tiny_lfm(26)
        dataset = [prepared_list(rng, hat, elm, uid=f"s{i}") for i in range(3)]
        stats = F.weight_stats(dataset, lfm, hat)
        mus, nus = [], []
        for utt, nb in dataset:
            enc = hat.encode_np(utt.acoustics)
            for h in nb.hyps:
                if h.tokens:
                    w = lfm.forward(enc, list(h.tokens)).data
                    mus.append(w[:, 0])
                    nus.append(w[:, 1])
        mu, nu = np.concatenate(mus), np.concatenate(nus)
        assert stats.token_count == mu.size
        assert abs(stats.mean_mu - np.mean(mu)) < 1e-12
        assert abs(stats.std_mu - np.std(mu)) < 1e-12
        assert abs(stats.mean_nu - np.mean(nu)) < 1e-12
        assert abs(stats.std_nu - np.std(nu)) < 1e-12

    def test_constant_head_stats(self):
        rng = np.random.default_rng(19)
        hat = tiny_hat(27)
        elm = tiny_elm(rng)
        lfm = tiny_lfm(28)
        c_mu, c_nu = lfm.set_constant_head(0.45, 0.15)
        dataset = [prepared_list(rng, hat, elm)]
        stats = F.weight_stats(dataset, lfm, hat)
        assert stats.mean_mu == c_mu and stats.std_mu == 0.0
        assert stats.mean_nu == c_nu and stats.std_nu == 0.0

    def test_single_token_single_hypothesis(self):
        rng = np.random.default_rng(20)
        hat = tiny_hat(29)
        lfm = tiny_lfm(30)
        utt = make_utt(rng)
        enc = hat.encode_np(utt.acoustics)
        w = lfm.forward(enc, [1]).data
        hyp = D.Hypothesis(tokens=(1,), e2e_search=-1.0, ilm_scores=np.zeros(1),
                           elm_scores=np.zeros(1), combined=-1.0,
                           e2e_fullsum=-1.0)
        stats = F.weight_stats([(utt, D.NBestList("u", [1], [hyp]))], lfm, hat)
        assert stats.mean_mu == w[0, 0] and stats.std_mu == 0.0
        assert stats.token_count == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            F.weight_stats([], tiny_lfm(31), tiny_hat(32))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        lfm = tiny_lfm(33)
        F.save_lfm(lfm, tmp_path / "fusion")
        back = F.load_lfm(tmp_path / "fusion")
        assert back.config == lfm.config
        assert back.params.to_bytes() == lfm.params.to_bytes()
        enc = rng.normal(size=(3, HID))
        np.testing.assert_array_equal(
            back.forward(enc, [0, 1]).data, lfm.forward(enc, [0, 1]).data
        )

    # a header as older versions wrote it, when the head kind was a setting
    LEGACY_HEADER = """{
  "kind": "lfm",
  "config": {
    "vocab_size": 3,
    "enc_dim": 4,
    "model_dim": 8,
    "num_heads": 2,
    "num_layers": 2,
    "ffn_dim": 8,
    "nonnegative": %s
  }
}"""

    def test_legacy_nonnegative_header_loads(self, tmp_path):
        rng = np.random.default_rng(22)
        lfm = tiny_lfm(35)
        F.save_lfm(lfm, tmp_path / "fusion")
        (tmp_path / "fusion.json").write_text(self.LEGACY_HEADER % "true")
        back = F.load_lfm(tmp_path / "fusion")
        assert back.config == lfm.config
        enc = rng.normal(size=(3, HID))
        np.testing.assert_array_equal(
            back.forward(enc, [2, 0, 1]).data, lfm.forward(enc, [2, 0, 1]).data
        )

    def test_legacy_signed_header_rejected(self, tmp_path):
        F.save_lfm(tiny_lfm(36), tmp_path / "fusion")
        (tmp_path / "fusion.json").write_text(self.LEGACY_HEADER % "false")
        with pytest.raises(ValueError, match="fusion.json"):
            F.load_lfm(tmp_path / "fusion")

    def test_wrong_kind_rejected(self, tmp_path):
        hat = tiny_hat(34)
        H.save_checkpoint(hat, tmp_path / "model")
        with pytest.raises(ValueError):
            F.load_lfm(tmp_path / "model")

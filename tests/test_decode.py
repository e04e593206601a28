import json

import numpy as np
import pytest

from hatfusion import decode as D
from hatfusion import hat as H
from hatfusion import lfm as F
from hatfusion import lm as L
from hatfusion import tensor as T


def tiny_model(seed, v=3, a=4):
    cfg = H.HatConfig(vocab_size=v, acoustic_size=a, embed_dim=3, hidden_dim=4, joint_dim=4)
    return H.HatModel(cfg, seed=seed)


def tiny_elm(rng, v=3, order=2, smoothing=0.5, n=30):
    corpus = [list(rng.integers(0, v, size=rng.integers(1, 5))) for _ in range(n)]
    return L.train_ngram(corpus, order=order, smoothing=smoothing, vocab=list(range(v)))


def random_utt(rng, a=4, t=3, uid="u0"):
    return H.Utterance(uid=uid, acoustics=list(rng.integers(0, a, size=t)), reference=[0, 1])


def log_sigmoid(x):
    return -np.logaddexp(0.0, -np.asarray(x, dtype=float))


class TestBeamBasics:
    def test_output_sorted_unique_and_tagged(self):
        rng = np.random.default_rng(0)
        model = tiny_model(3)
        elm = tiny_elm(rng)
        utt = random_utt(rng, t=4, uid="utt-7")
        nb = D.beam_search(utt, model, elm, D.BeamConfig(beam_size=5, ilm_weight=0.1, elm_weight=0.2))
        assert nb.uid == "utt-7"
        assert nb.reference == utt.reference
        assert 1 <= len(nb.hyps) <= 5
        seqs = [h.tokens for h in nb.hyps]
        assert len(set(seqs)) == len(seqs)
        scores = [h.combined for h in nb.hyps]
        assert scores == sorted(scores, reverse=True)

    def test_beam_size_one(self):
        rng = np.random.default_rng(1)
        nb = D.beam_search_plain(random_utt(rng), tiny_model(5), D.BeamConfig(beam_size=1))
        assert len(nb.hyps) == 1

    def test_blocked_emission_gives_blank_only_path(self):
        # with max_tokens=0 the single hypothesis walks blanks across every
        # frame, so its score is the sum of blank log-probs at u=0
        rng = np.random.default_rng(2)
        model = tiny_model(11)
        utt = random_utt(rng, t=5)
        nb = D.beam_search_plain(utt, model, D.BeamConfig(beam_size=4, max_tokens=0))
        assert len(nb.hyps) == 1 and nb.hyps[0].tokens == ()
        locals_ = model.joint_locals(model.encode(utt.acoustics), [])
        expect = float(np.sum(log_sigmoid(locals_.blank_logit.data[:, 0])))
        assert abs(nb.hyps[0].e2e_search - expect) < 1e-12

    def test_truncation_flag(self):
        rng = np.random.default_rng(3)
        nb = D.beam_search_plain(random_utt(rng, t=4), tiny_model(7),
                                 D.BeamConfig(beam_size=6, max_tokens=1))
        assert any(len(h.tokens) == 1 for h in nb.hyps)
        for h in nb.hyps:
            assert len(h.tokens) <= 1
            assert h.truncated == (len(h.tokens) == 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            D.BeamConfig(beam_size=0)
        with pytest.raises(ValueError):
            D.BeamConfig(ilm_weight=-0.1)
        with pytest.raises(ValueError):
            D.BeamConfig(frame_cap=0)

    def test_elm_required_when_weighted(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            D.beam_search(random_utt(rng), tiny_model(1), None, D.BeamConfig(elm_weight=0.3))

    def test_elm_vocab_must_match_label_ids(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            L.train_ngram([[0, 1]], order=1, vocab=[1, 0, 2])
        with pytest.raises(ValueError):
            L.train_ngram([[0, 3]], order=1, vocab=[0, 1, 2])
        elm = L.train_ngram([[0, 1]], order=1, vocab=[0, 1])
        with pytest.raises(ValueError):
            D.beam_search(random_utt(rng), tiny_model(1), elm, D.BeamConfig(elm_weight=0.3))

    def test_call_counter_increments(self):
        rng = np.random.default_rng(6)
        model = tiny_model(2)
        before = D.beam_call_count()
        for _ in range(3):
            D.beam_search_plain(random_utt(rng), model, D.BeamConfig(beam_size=2))
        assert D.beam_call_count() == before + 3


class TestUnsmoothedElm:
    def test_fusion_and_rescoring_refuse_it(self):
        # add-k with k = 0 scores an unseen token -inf, and a zero fusion
        # weight times -inf is NaN: a lambda = gamma = 0 search would rank
        # NaN hypotheses and part from the plain search
        elm = L.train_ngram([[0, 1], [1, 0], [0, 0, 1]], order=2, smoothing=0.0,
                            vocab=[0, 1, 2])
        assert np.isneginf(L.score_tokens(elm, [2]).per_token[0])
        rng = np.random.default_rng(41)
        model = tiny_model(42)
        utt = random_utt(rng)
        with pytest.raises(ValueError, match="smoothing"):
            D.beam_search(utt, model, elm, D.BeamConfig())
        with pytest.raises(ValueError, match="smoothing"):
            D.exhaustive_search(utt, model, elm, 0.0, 0.0, max_len=2)
        nb = D.beam_search_plain(utt, model, D.BeamConfig())
        with pytest.raises(ValueError, match="smoothing"):
            F.prepare_rescoring(utt, nb, model, elm)


class TestCombinedScore:
    def test_hand_example(self):
        h = D.Hypothesis(tokens=(1, 2), e2e_search=-2.0, ilm_scores=np.array([-0.4, -0.6]),
                         elm_scores=np.array([-0.5]), combined=0.0)
        assert abs(h.recombined(0.2, 0.3) - (-1.95)) < 1e-12

    def test_stored_combined_is_recomputable(self):
        rng = np.random.default_rng(7)
        model = tiny_model(9)
        elm = tiny_elm(rng)
        for lam, gam in [(0.0, 0.0), (0.3, 0.0), (0.2, 0.5)]:
            cfg = D.BeamConfig(beam_size=5, ilm_weight=lam, elm_weight=gam)
            nb = D.beam_search(random_utt(rng), model, elm, cfg)
            for h in nb.hyps:
                assert h.combined == h.recombined(lam, gam)
                assert len(h.ilm_scores) == len(h.tokens)
                assert len(h.elm_scores) == len(h.tokens)


class TestFusionFreeEquivalence:
    def test_zero_weights_bit_identical_to_plain(self):
        rng = np.random.default_rng(9)
        for seed in range(4):
            model = tiny_model(20 + seed)
            elm = tiny_elm(rng)
            utt = random_utt(rng, t=int(rng.integers(2, 6)), uid=f"u{seed}")
            cfg = D.BeamConfig(beam_size=4, ilm_weight=0.0, elm_weight=0.0,
                               max_tokens=4, frame_cap=2)
            fused = D.beam_search(utt, model, elm, cfg)
            plain = D.beam_search_plain(utt, model, cfg)
            assert [h.tokens for h in fused.hyps] == [h.tokens for h in plain.hyps]
            for a, b in zip(fused.hyps, plain.hyps):
                assert a.e2e_search == b.e2e_search
                assert a.combined == b.combined == b.e2e_search

    def test_plain_never_scores_lms(self):
        rng = np.random.default_rng(10)
        nb = D.beam_search_plain(random_utt(rng), tiny_model(4), D.BeamConfig(beam_size=3))
        for h in nb.hyps:
            assert np.all(h.ilm_scores == 0.0) and np.all(h.elm_scores == 0.0)


class TestExhaustiveAgreement:
    def test_fat_beam_matches_enumeration(self):
        rng = np.random.default_rng(11)
        grids = [(0.0, 0.0), (0.3, 0.0), (0.2, 0.4), (0.8, 0.8)]
        for i in range(12):
            model = tiny_model(100 + i)
            elm = tiny_elm(rng, smoothing=0.3)
            utt = random_utt(rng, t=int(rng.integers(2, 4)), uid=f"x{i}")
            lam, gam = grids[i % len(grids)]
            cfg = D.BeamConfig(beam_size=64, ilm_weight=lam, elm_weight=gam,
                               max_tokens=3, frame_cap=3)
            nb = D.beam_search(utt, model, elm, cfg)
            want = D.exhaustive_search(utt, model, elm, lam, gam, max_len=3)
            assert list(nb.hyps[0].tokens) == want

    def test_unpruned_search_score_is_exact_full_sum(self):
        rng = np.random.default_rng(12)
        for i in range(4):
            model = tiny_model(200 + i)
            utt = random_utt(rng, t=3, uid=f"y{i}")
            cfg = D.BeamConfig(beam_size=64, max_tokens=3, frame_cap=3)
            nb = D.rescore_components(D.beam_search_plain(utt, model, cfg), model, utt)
            for h in nb.hyps:
                assert abs(h.e2e_search - h.e2e_fullsum) < 1e-10

    def test_two_path_merge_equals_logaddexp(self):
        rng = np.random.default_rng(13)
        model = tiny_model(42)
        utt = random_utt(rng, t=2)
        cfg = D.BeamConfig(beam_size=8, max_tokens=1, frame_cap=1)
        nb = D.beam_search_plain(utt, model, cfg)
        enc = model.encode(utt.acoustics)
        for y in range(model.config.vocab_size):
            locals_ = model.joint_locals(enc, [y])
            bl = locals_.blank_logit.data
            lab = locals_.label_logprob.data
            lb, l1mb = log_sigmoid(bl), log_sigmoid(-bl)
            p1 = l1mb[0, 0] + lab[0, 0, y] + lb[0, 1] + lb[1, 1]
            p2 = lb[0, 0] + l1mb[1, 0] + lab[1, 0, y] + lb[1, 1]
            got = [h.e2e_search for h in nb.hyps if h.tokens == (y,)]
            assert len(got) == 1
            assert abs(got[0] - np.logaddexp(p1, p2)) < 1e-12

    def test_enumeration_guard(self):
        rng = np.random.default_rng(14)
        model = tiny_model(1, v=40)
        with pytest.raises(ValueError):
            D.exhaustive_search(random_utt(rng), model, None, 0.0, 0.0, max_len=4)


class TestRescoring:
    def test_search_estimate_never_exceeds_full_sum(self):
        rng = np.random.default_rng(15)
        for i in range(5):
            model = tiny_model(300 + i)
            utt = random_utt(rng, t=int(rng.integers(2, 6)), uid=f"z{i}")
            nb = D.beam_search_plain(utt, model, D.BeamConfig(beam_size=2, max_tokens=3))
            nb = D.rescore_components(nb, model, utt)
            for h in nb.hyps:
                assert h.e2e_search <= h.e2e_fullsum + 1e-9

    def test_rescore_keeps_search_fields_and_order(self):
        rng = np.random.default_rng(16)
        model = tiny_model(31)
        elm = tiny_elm(rng)
        utt = random_utt(rng, t=4)
        nb = D.beam_search(utt, model, elm, D.BeamConfig(beam_size=4, ilm_weight=0.1, elm_weight=0.2))
        out = D.rescore_components(nb, model, utt)
        assert [h.tokens for h in out.hyps] == [h.tokens for h in nb.hyps]
        for a, b in zip(out.hyps, nb.hyps):
            assert a.e2e_search == b.e2e_search
            assert a.combined == b.combined
            assert a.e2e_fullsum is not None

    def test_rescore_empty_rejected(self):
        rng = np.random.default_rng(17)
        model = tiny_model(1)
        utt = random_utt(rng)
        with pytest.raises(ValueError):
            D.rescore_components(D.NBestList("u", [], []), model, utt)

    def test_attach_elm_scores(self):
        rng = np.random.default_rng(18)
        model = tiny_model(8)
        elm = tiny_elm(rng)
        utt = random_utt(rng, t=4)
        nb = D.beam_search_plain(utt, model, D.BeamConfig(beam_size=4, max_tokens=3))
        out = F.prepare_rescoring(utt, nb, model, elm)
        for a, b in zip(out.hyps, nb.hyps):
            sc = L.score_tokens(elm, list(a.tokens))
            np.testing.assert_array_equal(a.elm_scores, sc.per_token)
            assert a.combined == b.combined


class TestNBestIO:
    def test_jsonl_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        model = tiny_model(77)
        elm = tiny_elm(rng)
        cfg = D.BeamConfig(beam_size=3, ilm_weight=0.1, elm_weight=0.3)
        lists = []
        for i in range(2):
            utt = random_utt(rng, t=3, uid=f"io{i}")
            nb = D.beam_search(utt, model, elm, cfg)
            if i == 0:
                nb = D.rescore_components(nb, model, utt)
            lists.append(nb)
        path = tmp_path / "nbest.jsonl"
        D.save_nbest(lists, path)
        back = D.load_nbest(path)
        assert len(back) == len(lists)
        for a, b in zip(back, lists):
            assert a.uid == b.uid and a.reference == b.reference
            assert a.ilm_weight == b.ilm_weight and a.elm_weight == b.elm_weight
            for ha, hb in zip(a.hyps, b.hyps):
                assert ha.tokens == hb.tokens
                assert ha.e2e_search == hb.e2e_search
                assert ha.e2e_fullsum == hb.e2e_fullsum
                assert ha.combined == hb.combined
                np.testing.assert_array_equal(ha.ilm_scores, hb.ilm_scores)
                np.testing.assert_array_equal(ha.elm_scores, hb.elm_scores)
                assert ha.truncated == hb.truncated

    def test_record_with_sentence_end_score_loads(self, tmp_path):
        # lists written before the sentence-end term was removed carry an
        # "elm_eos" entry per hypothesis; it is ignored
        hyp = {"tokens": [1], "e2e_search": -1.0, "e2e_fullsum": -0.9, "ilm": [-0.5],
               "elm": [-0.7], "elm_eos": -1.2, "combined": -1.0, "truncated": False}
        rec = {"uid": "u", "reference": [1], "ilm_weight": 0.0, "elm_weight": 0.0,
               "hyps": [hyp]}
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        [nb] = D.load_nbest(path)
        [h] = nb.hyps
        assert h.tokens == (1,) and h.e2e_fullsum == -0.9 and h.combined == -1.0
        np.testing.assert_array_equal(h.elm_scores, [-0.7])

import gc
import json
import math
import re
import weakref
from dataclasses import fields
from types import SimpleNamespace

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


def bench_scale_model(seed, v=12):
    # the benchmark's layer widths, where a stacked product rounds unlike a row's
    cfg = H.HatConfig(vocab_size=v, acoustic_size=8, embed_dim=8, hidden_dim=16, joint_dim=16)
    return H.HatModel(cfg, seed=seed)


def log_sigmoid(x):
    return -np.logaddexp(0.0, -np.asarray(x, dtype=float))


def fresh_copy(model):
    """A new model object holding ``model``'s current parameter values."""
    copy = H.HatModel(model.config, seed=0)
    copy.params.set_values(model.params.copy_values())
    return copy


def assert_same_list(got, want):
    """Two N-best lists equal bit for bit, LM arrays and their shapes included."""
    assert (got.uid, got.ilm_weight, got.elm_weight) == (want.uid, want.ilm_weight, want.elm_weight)
    assert len(got.hyps) == len(want.hyps)
    for g, w in zip(got.hyps, want.hyps):
        assert (g.tokens, g.e2e_search, g.combined, g.truncated) == (
            w.tokens, w.e2e_search, w.combined, w.truncated)
        for x, y in ((g.ilm_scores, w.ilm_scores), (g.elm_scores, w.elm_scores)):
            assert x.shape == y.shape
            np.testing.assert_array_equal(x, y)


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
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                D.BeamConfig(ilm_weight=bad)
            with pytest.raises(ValueError, match="finite"):
                D.BeamConfig(elm_weight=bad)
        with pytest.raises(ValueError):
            D.BeamConfig(frame_cap=0)

    @pytest.mark.parametrize("field,value", [("beam_size", 2.5), ("frame_cap", 1.5),
                                             ("max_tokens", True), ("ilm_weight", "0.1")])
    def test_config_field_of_the_wrong_type_rejected(self, field, value):
        # beam_size=2.5 used to pass and the search then failed in np.argpartition
        with pytest.raises(ValueError, match=field):
            D.BeamConfig(**{field: value})

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

    def test_nan_model_fails_with_a_named_error(self):
        # NaN scores tie nothing and beat nothing, so the shortlist of the
        # first stage comes out empty; the search names where, not np.stack
        rng = np.random.default_rng(8)
        model = tiny_model(8)
        for name in ("label_w", "blank_w", "joint_wd"):
            model.params[name].data[...] = np.nan
        utt = random_utt(rng, uid="nan-7")
        cfg = D.BeamConfig(beam_size=2, ilm_weight=0.2, elm_weight=0.3)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="'nan-7', frame 0: NaN"):
                D.beam_search_plain(utt, model, cfg)
            with pytest.raises(ValueError, match="'nan-7', frame 0: NaN"):
                D.beam_search(utt, model, tiny_elm(rng), cfg)

    @pytest.mark.parametrize("beam", [1, 2, 3, 8, 64])
    def test_nan_model_fails_at_every_beam_width(self, beam):
        # a beam at least as wide as the candidates cuts nothing, so a check
        # at the k-th score alone let every NaN hypothesis through
        rng = np.random.default_rng(8)
        model = tiny_model(8)
        for name in ("label_w", "blank_w", "joint_wd"):
            model.params[name].data[...] = np.nan
        utt = random_utt(rng, uid="nan-7")
        cfg = D.BeamConfig(beam_size=beam, frame_cap=1, ilm_weight=0.2, elm_weight=0.3)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="'nan-7', frame 0: NaN"):
                D.beam_search_plain(utt, model, cfg)
            with pytest.raises(ValueError, match="'nan-7', frame 0: NaN"):
                D.beam_search(utt, model, tiny_elm(rng), cfg)

    def test_call_counter_increments(self):
        rng = np.random.default_rng(6)
        model = tiny_model(2)
        before = D.beam_call_count()
        for _ in range(3):
            D.beam_search_plain(random_utt(rng), model, D.BeamConfig(beam_size=2))
        assert D.beam_call_count() == before + 3


class TestStackedSearch:
    def test_tied_labels_break_by_tokens(self, monkeypatch):
        # zeroed heads: every label scores log(1/5) and every blank log(1/2),
        # so candidates of one length tie exactly and only the token order
        # can rank them, in the shortlist and in the merged beam alike
        model = tiny_model(51, v=5)
        for name in ("label_w", "label_b", "blank_w"):
            model.params[name].data[...] = 0.0
        tokens = []
        step = H.HatModel.pred_steps_np
        monkeypatch.setattr(H.HatModel, "pred_steps_np",
                            lambda self, h, tok: tokens.extend(tok.tolist()) or step(self, h, tok))
        utt = H.Utterance("tie", [0, 1], [0])
        nb = D.beam_search_plain(utt, model, D.BeamConfig(beam_size=3, max_tokens=2, frame_cap=1))
        assert tokens[:3] == [0, 1, 2]
        # by hand: () blanks twice; (0,) and (1,) are emitted at either frame
        # (two paths each), (2,) only at the second frame, so it drops out
        b, lab = -math.log(2.0), -math.log(5.0)
        assert [h.tokens for h in nb.hyps] == [(), (0,), (1,)]
        want = [2 * b, 2 * b + lab, 2 * b + lab]
        np.testing.assert_allclose([h.e2e_search for h in nb.hyps], want, rtol=0, atol=1e-12)
        assert nb.hyps[1].e2e_search == nb.hyps[2].e2e_search

    def test_cut_tie_group_keeps_lowest_tokens(self):
        # a zeroed label head ties all children of one parent; where the
        # k-th candidate falls inside such a group, the lowest tokens stay
        model = tiny_model(51, v=5)
        model.params["label_w"].data[...] = 0.0
        model.params["label_b"].data[...] = 0.0
        utt = H.Utterance("cut", [0, 1], [0])
        nb = D.beam_search_plain(utt, model, D.BeamConfig(beam_size=8, max_tokens=2, frame_cap=1))
        children: dict = {}
        for h in nb.hyps:
            if len(h.tokens) == 2:
                children.setdefault(h.tokens[0], []).append(h.tokens[1])
        assert any(0 < len(c) < 5 for c in children.values())
        for c in children.values():
            assert sorted(c) == list(range(len(c)))

    def test_shortlist_breaks_ties_by_tokens_not_position(self):
        # the tied candidates sit in positions against their token order, so
        # only the (score, tokens) key ranks them as a full sort would
        tokens = [(3,), (2, 1), (0,), (2,), (1, 4)]
        neg = np.array([0.5, 0.5, 0.5, -1.0, 0.5])
        top = D._top(neg, 3, tokens.__getitem__, ("u", 0))
        assert [tokens[c] for c in top] == [(2,), (0,), (1, 4)]

    def test_each_prefix_state_is_computed_once(self, monkeypatch):
        rng = np.random.default_rng(52)
        model = tiny_model(53)
        elm = tiny_elm(rng)
        steps, dproj_rows = [], set()
        step, blank_head = H.HatModel.pred_steps_np, H.HatModel.joint_blank_np

        def counting_step(self, h, toks):
            steps.extend((row.tobytes(), int(tok)) for row, tok in zip(h, toks))
            return step(self, h, toks)

        def recording_blank_head(self, eproj_t, dproj):
            # every stage runs the blank head, alone or inside ``joint_np``
            dproj_rows.update(row.tobytes() for row in dproj)
            return blank_head(self, eproj_t, dproj)

        monkeypatch.setattr(H.HatModel, "pred_steps_np", counting_step)
        monkeypatch.setattr(H.HatModel, "joint_blank_np", recording_blank_head)
        cfg = D.BeamConfig(beam_size=4, ilm_weight=0.2, elm_weight=0.3, max_tokens=4, frame_cap=2)
        D.beam_search(random_utt(rng, t=5), model, elm, cfg)
        assert len(steps) == len(set(steps))
        # every expanded prefix reaches the joint at the next stage; the
        # root is the one prefix no step made
        assert len(steps) == len(dproj_rows) - 1

    @pytest.mark.parametrize("max_tokens", [2, 24])
    def test_no_frame_ends_on_the_label_head(self, monkeypatch, max_tokens):
        # a frame's last stage extends no prefix (it is stage ``frame_cap``,
        # or no row is under ``max_tokens``) and runs the blank head alone:
        # each frame is label-head stages, then one blank-only stage
        rng = np.random.default_rng(59)
        model, elm = tiny_model(60), tiny_elm(rng)
        heads = []
        joint, blank_head = H.HatModel.joint_np, H.HatModel.joint_blank_np

        def counting_joint(self, eproj_t, dproj):
            heads.append("L")
            return joint(self, eproj_t, dproj)  # runs the blank head inside

        def counting_blank_head(self, eproj_t, dproj):
            heads.append("B")
            return blank_head(self, eproj_t, dproj)

        monkeypatch.setattr(H.HatModel, "joint_np", counting_joint)
        monkeypatch.setattr(H.HatModel, "joint_blank_np", counting_blank_head)
        frames, cap = 5, 3
        utt = random_utt(rng, t=frames)
        cfg = D.BeamConfig(beam_size=4, ilm_weight=0.2, elm_weight=0.3, max_tokens=max_tokens,
                           frame_cap=cap)
        for search in (lambda: D.beam_search(utt, model, elm, cfg),
                       lambda: D.beam_search_plain(utt, model, cfg)):
            heads.clear()
            search()
            stages = "".join(heads).replace("LB", "L")  # one letter per stage
            assert stages.count("B") == frames
            assert re.fullmatch(f"(L{{0,{cap}}}B){{{frames}}}", stages)
            if max_tokens > frames * cap:  # every frame reaches frame_cap
                assert stages == ("L" * cap + "B") * frames
            else:  # the first frame ends once its rows hold max_tokens tokens
                assert stages.startswith("L" * max_tokens + "B")

    def test_lm_next_is_each_rows_sums_plus_its_lm_rows(self):
        # white box: a stage reads its candidates' (ILM, ELM) sums off their
        # parents' ``lm_next``, so it must hold the sums the pairwise fix left
        rng = np.random.default_rng(8)
        model, elm = bench_scale_model(58), tiny_elm(rng, v=12, n=80)
        # a low blank bias and peaked label rows make prefixes grow long
        model.params["blank_b"].data[...] = -3.0
        model.params["label_w"].data[...] *= 8.0
        for lam, gam in [(0.2, 0.3), (0.9, 0.1)]:
            cfg = D.BeamConfig(beam_size=8, ilm_weight=lam, elm_weight=gam, max_tokens=16)
            D.beam_search(random_utt(rng, a=8, t=6), model, elm, cfg)
        table = D._TABLES[model].tables[True, id(elm)]
        tb, n = table.rows, table.n
        np.testing.assert_array_equal(tb.lm_next[:n], tb.lm_sum[:n, :, None] + tb.lm_rows[:n])
        # pairwise sums that one-by-one sums would miss
        long = (tb.length[:n] >= D._PAIRWISE_FROM).nonzero()[0]
        one_by_one = tb.lm_sum[tb.parent[long]] + tb.lm_last[long]
        assert long.size >= 8 and (one_by_one != tb.lm_sum[long]).any()

    def test_extend_sums_lm_scores_as_np_sum_does(self):
        # white box: ``_extend`` keeps each prefix's (ILM, ELM) score sums as
        # np.sum of its chained per-token scores takes them, one by one below
        # ``_PAIRWISE_FROM`` tokens and pairwise from there; ranking reads them
        rng = np.random.default_rng(56)
        model, elm = bench_scale_model(57), tiny_elm(rng, v=12, n=80)
        v = model.config.vocab_size
        tb = SimpleNamespace(dstate=model.pred_start_np()[None], dproj=None,
                             lm_rows=np.zeros((1, 2, v)), lm_last=np.zeros((1, 2)),
                             lm_sum=np.zeros((1, 2)), lm_next=np.zeros((1, 2, v)),
                             parent=np.zeros(1, int), length=np.zeros(1, int))
        tb.dproj = model.dproj_np(tb.dstate)
        tb.lm_rows[0, 0] = model.ilm_logprobs_np(tb.dproj)[0]
        states = [L.initial_state(elm)]
        tb.lm_rows[0, 1] = L.next_token_logprobs(elm, states[0])
        tb.lm_next[0] = tb.lm_sum[0][:, None] + tb.lm_rows[0]
        tokens, n, frontier = [()], 1, np.zeros(1, int)
        for _ in range(11):  # three children of each of up to four prefixes
            par = np.repeat(frontier, 3)
            D._reserve(tb, n + par.size)
            n_new = D._extend(tb, model, elm, tokens, states, n, par,
                              rng.integers(0, v, size=par.size), True)
            frontier, n = np.arange(n, n_new)[:4], n_new
        orders_differ = 0
        for i in range(1, n):
            chained = D._chain(tb.lm_last, tb.parent, [i], tb.length[i])
            np.testing.assert_array_equal(tb.lm_sum[i], np.sum(chained, axis=2)[0])
            one_by_one = 0.0
            for j in range(tb.length[i]):
                one_by_one = one_by_one + chained[0, :, j]
            orders_differ += bool((one_by_one != tb.lm_sum[i]).any())
        assert set(tb.length[1:n]) == set(range(1, 12))
        assert orders_differ  # the scores tell the two summation orders apart

    def test_elm_is_queried_once_per_prefix(self, monkeypatch):
        # a new prefix reads its token's log-prob off the parent's ELM row,
        # so the ELM answers one query per prefix: the root's and one per step
        rng = np.random.default_rng(54)
        model = tiny_model(55)
        elm = tiny_elm(rng)
        steps, queries = [], []
        step, dist = H.HatModel.pred_steps_np, L.NGramLm.context_dist

        def counting_step(self, h, toks):
            steps.extend(int(tok) for tok in toks)
            return step(self, h, toks)

        def counting_dist(self, ctx):
            queries.append(ctx)
            return dist(self, ctx)

        monkeypatch.setattr(H.HatModel, "pred_steps_np", counting_step)
        monkeypatch.setattr(L.NGramLm, "context_dist", counting_dist)
        cfg = D.BeamConfig(beam_size=4, ilm_weight=0.2, elm_weight=0.3, max_tokens=4, frame_cap=2)
        D.beam_search(random_utt(rng, t=5), model, elm, cfg)
        assert steps
        assert len(queries) == len(steps) + 1


    def test_no_prefix_state_is_stepped_twice_across_searches(self, monkeypatch):
        # two utterances on one model share its prefix table
        rng = np.random.default_rng(52)
        model = tiny_model(53, v=4)
        elm = tiny_elm(rng, v=4)
        steps = []
        step = H.HatModel.pred_steps_np

        def counting_step(self, h, toks):
            steps.extend((row.tobytes(), int(tok)) for row, tok in zip(h, toks))
            return step(self, h, toks)

        monkeypatch.setattr(H.HatModel, "pred_steps_np", counting_step)
        cfg = D.BeamConfig(beam_size=4, ilm_weight=0.2, elm_weight=0.3, max_tokens=4, frame_cap=2)
        D.beam_search(random_utt(rng, t=5, uid="a"), model, elm, cfg)
        first = len(steps)
        utt = random_utt(rng, t=5, uid="b")
        D.beam_search(utt, model, elm, cfg)
        second = len(steps) - first
        assert len(steps) == len(set(steps))
        D.beam_search(utt, tiny_model(53, v=4), elm, cfg)
        assert 0 < second < len(steps) - first - second  # the first search's rows served

    def test_elm_is_queried_once_per_prefix_across_searches(self, monkeypatch):
        rng = np.random.default_rng(54)
        model = tiny_model(55)
        elm = tiny_elm(rng)
        steps, queries = [], []
        step, dist = H.HatModel.pred_steps_np, L.NGramLm.context_dist

        def counting_step(self, h, toks):
            steps.extend(int(tok) for tok in toks)
            return step(self, h, toks)

        def counting_dist(self, ctx):
            queries.append(ctx)
            return dist(self, ctx)

        monkeypatch.setattr(H.HatModel, "pred_steps_np", counting_step)
        monkeypatch.setattr(L.NGramLm, "context_dist", counting_dist)
        cfg = D.BeamConfig(beam_size=4, ilm_weight=0.2, elm_weight=0.3, max_tokens=4, frame_cap=2)
        seen: set = set()
        for uid in ("a", "b"):
            nb = D.beam_search(random_utt(rng, t=5, uid=uid), model, elm, cfg)
            seen.update(h.tokens[:n] for h in nb.hyps for n in range(1, len(h.tokens) + 1))
        prefixes = len(set(D._TABLES[model].tables[True, id(elm)].tokens)) - 1
        assert prefixes >= len(seen) > 0
        assert len(steps) == prefixes
        assert len(queries) == prefixes + 1


class TestSharedPrefixTable:
    """Searches of one model share prefix rows while its parameters hold."""

    CFG = D.BeamConfig(beam_size=4, ilm_weight=0.2, elm_weight=0.3, max_tokens=5, frame_cap=2)

    def test_repeated_search_makes_no_rows_and_asks_no_elm(self, monkeypatch):
        rng = np.random.default_rng(70)
        model, elm = tiny_model(71), tiny_elm(rng)
        utt = random_utt(rng, t=5)
        first = D.beam_search(utt, model, elm, self.CFG)
        calls = []
        monkeypatch.setattr(H.HatModel, "pred_steps_np", lambda *a: calls.append("step"))
        monkeypatch.setattr(H.HatModel, "ilm_logprobs_np", lambda *a: calls.append("ilm"))
        monkeypatch.setattr(L.NGramLm, "context_dist", lambda *a: calls.append("elm"))
        assert_same_list(D.beam_search(utt, model, elm, self.CFG), first)
        assert calls == []

    @pytest.mark.parametrize("name", tiny_model(0).params.names())
    def test_in_place_edit_of_any_parameter_starts_afresh(self, name):
        rng = np.random.default_rng(72)
        model, elm = tiny_model(73), tiny_elm(rng)
        utts = [random_utt(rng, t=4, uid=f"e{i}") for i in range(2)]
        plain = D.BeamConfig(beam_size=4, max_tokens=5, frame_cap=2)
        for utt in utts:
            D.beam_search(utt, model, elm, self.CFG)
            D.beam_search_plain(utt, model, plain)
        model.params[name].data += 0.25
        fresh = fresh_copy(model)
        for utt in utts:
            assert_same_list(D.beam_search(utt, model, elm, self.CFG),
                             D.beam_search(utt, fresh, elm, self.CFG))
            assert_same_list(D.beam_search_plain(utt, model, plain),
                             D.beam_search_plain(utt, fresh, plain))

    def test_set_values_and_adam_step_start_afresh(self):
        rng = np.random.default_rng(74)
        model, elm = tiny_model(75), tiny_elm(rng)
        utt = random_utt(rng, t=5)
        D.beam_search(utt, model, elm, self.CFG)
        model.params.set_values(tiny_model(76).params.copy_values())
        assert_same_list(D.beam_search(utt, model, elm, self.CFG),
                         D.beam_search(utt, tiny_model(76), elm, self.CFG))
        for t in model.params.tensors():
            t.grad = rng.standard_normal(t.shape)
        T.Adam(0.05).step(model.params)
        assert_same_list(D.beam_search(utt, model, elm, self.CFG),
                         D.beam_search(utt, fresh_copy(model), elm, self.CFG))

    def test_second_elm_gets_its_own_rows(self, monkeypatch):
        rng = np.random.default_rng(77)
        model, elm, other = tiny_model(78), tiny_elm(rng), tiny_elm(rng, order=3)
        utt = random_utt(rng, t=5)
        D.beam_search(utt, model, elm, self.CFG)
        queries = []
        dist = L.NGramLm.context_dist
        monkeypatch.setattr(L.NGramLm, "context_dist",
                            lambda lm, ctx: queries.append(lm) or dist(lm, ctx))
        got = D.beam_search(utt, model, other, self.CFG)
        assert queries and all(lm is other for lm in queries)
        assert_same_list(got, D.beam_search(utt, tiny_model(78), other, self.CFG))
        queries.clear()
        D.beam_search(utt, model, elm, self.CFG)
        assert queries == []

    def test_search_that_raises_leaves_later_searches_exact(self, monkeypatch):
        # the failing search has named the root's children before their rows
        # exist; a later search must not read those rows
        rng = np.random.default_rng(79)
        model, elm = tiny_model(80), tiny_elm(rng)
        utts = [random_utt(rng, t=5, uid=f"x{i}") for i in range(3)]
        step, raised = H.HatModel.pred_steps_np, []

        def failing_step(self, h, toks):
            if not raised:
                raised.append(True)
                raise RuntimeError("injected")
            return step(self, h, toks)

        monkeypatch.setattr(H.HatModel, "pred_steps_np", failing_step)
        with pytest.raises(RuntimeError, match="injected"):
            D.beam_search(utts[0], model, elm, self.CFG)
        fresh = tiny_model(80)
        for utt in utts:
            assert_same_list(D.beam_search(utt, model, elm, self.CFG),
                             D.beam_search(utt, fresh, elm, self.CFG))

    def test_plain_after_fused_makes_no_ilm_call(self, monkeypatch):
        rng = np.random.default_rng(81)
        model, elm = tiny_model(82), tiny_elm(rng)
        utt = random_utt(rng, t=5)
        D.beam_search(utt, model, elm, self.CFG)
        calls = []
        ilm = H.HatModel.ilm_logprobs_np
        monkeypatch.setattr(H.HatModel, "ilm_logprobs_np",
                            lambda self, d: calls.append(len(d)) or ilm(self, d))
        nb = D.beam_search_plain(utt, model, self.CFG)
        assert calls == []
        assert all(h.ilm_scores.shape == h.elm_scores.shape == (0,) for h in nb.hyps)

    def test_full_table_starts_afresh(self, monkeypatch):
        rng = np.random.default_rng(85)
        model, elm = tiny_model(86), tiny_elm(rng)
        utts = [random_utt(rng, t=5, uid=f"f{i}") for i in range(3)]
        monkeypatch.setattr(D, "_MAX_ROWS", 12)
        tables = {}  # holding each table keeps its id its own
        for utt in utts + utts:
            assert_same_list(D.beam_search(utt, model, elm, self.CFG),
                             D.beam_search(utt, tiny_model(86), elm, self.CFG))
            table = tables.setdefault(id(D._TABLES[model].tables[True, id(elm)]),
                                      D._TABLES[model].tables[True, id(elm)])
            assert table.n <= 12 + self.CFG.beam_size * self.CFG.frame_cap * 5
        assert len(tables) > 1

    def test_table_goes_with_the_model(self):
        rng = np.random.default_rng(83)
        model, elm = tiny_model(84), tiny_elm(rng)
        D.beam_search(random_utt(rng, t=5), model, elm, self.CFG)
        rows = weakref.ref(D._TABLES[model].tables[True, id(elm)].rows.parent)
        assert rows() is not None
        del model
        gc.collect()
        assert rows() is None


class TestIlmReplay:
    """Rescoring's per-token ILM is the fused search's, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_fused_search_ilm_scores(self, seed):
        rng = np.random.default_rng(60 + seed)
        model = bench_scale_model(seed)
        elm = tiny_elm(rng, v=12)
        cfg = D.BeamConfig(beam_size=8, ilm_weight=0.2, elm_weight=0.3, max_tokens=8)
        for i in range(6):
            nb = D.beam_search(random_utt(rng, a=8, t=6, uid=f"r{i}"), model, elm, cfg)
            for h in nb.hyps:
                np.testing.assert_array_equal(model.internal_lm_log_prob([h.tokens])[0],
                                              h.ilm_scores)


class TestUnsmoothedElm:
    def test_fusion_and_rescoring_refuse_it(self):
        # add-k with k = 0 scores an unseen token -inf, and a zero fusion
        # weight times -inf is NaN: a lambda = gamma = 0 search would rank
        # NaN hypotheses and part from the plain search
        elm = L.train_ngram([[0, 1], [1, 0], [0, 0, 1]], order=2, smoothing=0.0,
                            vocab=[0, 1, 2])
        assert np.isneginf(L.score_tokens(elm, [2])[0])
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

    def test_stored_combined_is_recomputable_from_pairwise_sums(self):
        # the search reads its LM sums off the prefix table; ``recombined``
        # takes np.sum, which adds pairwise from ``_PAIRWISE_FROM`` tokens on
        rng = np.random.default_rng(8)
        model, elm = bench_scale_model(58), tiny_elm(rng, v=12, n=80)
        # a low blank bias and peaked label rows make prefixes grow long
        model.params["blank_b"].data[...] = -3.0
        model.params["label_w"].data[...] *= 8.0
        long = 0
        for lam, gam in [(0.2, 0.3), (0.5, 0.0), (0.0, 0.7), (0.9, 0.1)]:
            cfg = D.BeamConfig(beam_size=8, ilm_weight=lam, elm_weight=gam, max_tokens=16)
            nb = D.beam_search(random_utt(rng, a=8, t=6), model, elm, cfg)
            for h in nb.hyps:
                assert h.combined == h.recombined(lam, gam)
                long += len(h.tokens) >= D._PAIRWISE_FROM
        assert long >= 8


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
            np.testing.assert_array_equal(a.elm_scores, L.score_tokens(elm, list(a.tokens)))
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

    def test_decoded_lists_reload_with_the_same_field_reprs(self, tmp_path):
        # a decoded hypothesis holds its scores as Python floats, as a loaded
        # one does, so a list repr()s the same before and after a round trip
        rng = np.random.default_rng(20)
        model, elm = tiny_model(78), tiny_elm(rng)
        utt = random_utt(rng, t=4, uid="r0")
        cfg = D.BeamConfig(beam_size=4, ilm_weight=0.2, elm_weight=0.3, max_tokens=4, frame_cap=2)
        lists = [D.beam_search(utt, model, elm, cfg), D.beam_search_plain(utt, model, cfg)]
        D.save_nbest(lists, tmp_path / "nbest.jsonl")
        back = D.load_nbest(tmp_path / "nbest.jsonl")
        for got, want in zip(back, lists):
            assert len(got.hyps) == len(want.hyps) > 1
            for g, w in zip(got.hyps, want.hyps):
                for f in fields(w):
                    assert repr(getattr(g, f.name)) == repr(getattr(w, f.name)), f.name
                assert type(w.combined) is float and type(w.e2e_search) is float

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

    @pytest.mark.parametrize("edit", [
        lambda rec: rec.pop("hyps"),
        lambda rec: rec.update(hyps="x"),
        lambda rec: rec["hyps"][0].pop("tokens"),
        lambda rec: rec["hyps"][0].update(ilm=["a"]),
        lambda rec: rec["hyps"][0].update(truncated=1),
        lambda rec: rec.update(reference=[True]),
    ], ids=["no-hyps", "string-hyps", "hyp-without-tokens", "string-score", "int-flag",
            "bool-word"])
    def test_record_off_schema_names_file_and_line(self, tmp_path, edit):
        hyp = {"tokens": [1], "e2e_search": -1.0, "e2e_fullsum": None, "ilm": [-0.5],
               "elm": [-0.7], "combined": -1.0, "truncated": False}
        good = {"uid": "u", "reference": [1], "ilm_weight": 0.0, "elm_weight": 0.0,
                "hyps": [hyp]}
        bad = json.loads(json.dumps(good))
        edit(bad)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match="bad.jsonl:2: "):
            D.load_nbest(path)

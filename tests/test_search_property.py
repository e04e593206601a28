"""Property tests: an unpruned beam is the exhaustive search, its ILM scores
are ``internal_lm_log_prob``'s, no search returns an empty list, and every
list equals the prefix-object reference search's bit for bit, also when
searches share one model's prefix table between parameter edits."""

import numpy as np
import pytest

from hatfusion import decode as D

from conftest import reference_search
from test_decode import (assert_same_list, bench_scale_model, fresh_copy, random_utt,
                         tiny_elm, tiny_model)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=25, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), v=st.integers(2, 3), max_tokens=st.integers(1, 3),
                  extra_cap=st.integers(0, 1), frames=st.integers(1, 3),
                  weights=st.sampled_from([(0.0, 0.0), (0.3, 0.0), (0.2, 0.4), (0.8, 0.8)]))
def test_unpruned_beam_matches_exhaustive_search(seed, v, max_tokens, extra_cap, frames, weights):
    # frame_cap >= max_tokens reaches every sequence in one frame, and a beam
    # as wide as the number of sequences prunes none, so the beam's best is
    # the enumerated argmax and every search score is the exact full sum
    rng = np.random.default_rng(seed)
    model = tiny_model(seed, v=v)
    elm = tiny_elm(rng, v=v, smoothing=0.3)
    utt = random_utt(rng, t=frames, uid=f"p{seed}")
    lam, gam = weights
    cfg = D.BeamConfig(beam_size=sum(v**n for n in range(max_tokens + 1)), ilm_weight=lam,
                       elm_weight=gam, max_tokens=max_tokens, frame_cap=max_tokens + extra_cap)
    nb = D.beam_search(utt, model, elm, cfg)
    want = D.exhaustive_search(utt, model, elm, lam, gam, max_len=max_tokens)
    assert list(nb.hyps[0].tokens) == want
    for h in D.rescore_components(nb, model, utt).hyps:
        assert abs(h.e2e_search - h.e2e_fullsum) < 1e-10


@hypothesis.settings(max_examples=25, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), v=st.integers(2, 4), max_tokens=st.integers(1, 3),
                  frames=st.integers(1, 3), weights=st.sampled_from([(0.2, 0.3), (0.8, 0.0)]))
def test_unpruned_beam_ilm_scores_are_the_replay(seed, v, max_tokens, frames, weights):
    # every sequence up to max_tokens is a hypothesis, so every prefix the
    # search stepped is checked against the one-hypothesis replay
    rng = np.random.default_rng(seed)
    model = bench_scale_model(seed, v=v)
    lam, gam = weights
    cfg = D.BeamConfig(beam_size=sum(v**n for n in range(max_tokens + 1)), ilm_weight=lam,
                       elm_weight=gam, max_tokens=max_tokens, frame_cap=max_tokens)
    nb = D.beam_search(random_utt(rng, a=8, t=frames), model, tiny_elm(rng, v=v), cfg)
    assert len(nb.hyps) == cfg.beam_size
    for h in nb.hyps:
        np.testing.assert_array_equal(model.internal_lm_log_prob([h.tokens])[0], h.ilm_scores)


@hypothesis.settings(max_examples=25, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), beam=st.integers(1, 4), max_tokens=st.integers(0, 3),
                  frame_cap=st.integers(1, 3), frames=st.integers(1, 4),
                  weights=st.sampled_from([(0.0, 0.0), (0.3, 0.0), (0.0, 0.5), (0.8, 0.8)]))
def test_every_search_returns_a_hypothesis(seed, beam, max_tokens, frame_cap, frames, weights):
    # training, the sweep and the fusion loss read hyps[0] with no empty-list branch
    rng = np.random.default_rng(seed)
    model = tiny_model(seed)
    utt = random_utt(rng, t=frames, uid=f"n{seed}")
    lam, gam = weights
    cfg = D.BeamConfig(beam_size=beam, ilm_weight=lam, elm_weight=gam, max_tokens=max_tokens,
                       frame_cap=frame_cap)
    assert D.beam_search(utt, model, tiny_elm(rng, smoothing=0.3), cfg).hyps
    assert D.beam_search_plain(utt, model, cfg).hyps


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), bench=st.booleans(), beam=st.integers(1, 16),
                  max_tokens=st.integers(0, 10), frame_cap=st.integers(1, 4),
                  frames=st.integers(1, 6),
                  mode=st.sampled_from(["plain", (0.0, 0.0), (0.2, 0.3), (0.8, 0.8), (0.5, None)]))
def test_search_equals_the_reference_bit_for_bit(seed, bench, beam, max_tokens, frame_cap,
                                                  frames, mode):
    # max_tokens 8 and up reach the lengths where np.sum adds pairwise; a
    # (lam, None) mode fuses the ILM with no external LM
    rng = np.random.default_rng(seed)
    model = bench_scale_model(seed) if bench else tiny_model(seed, v=4)
    v, a = model.config.vocab_size, model.config.acoustic_size
    utt = random_utt(rng, a=a, t=frames, uid=f"b{seed}")
    cfg = D.BeamConfig(beam_size=beam, max_tokens=max_tokens, frame_cap=frame_cap)
    if mode == "plain":
        got = D.beam_search_plain(utt, model, cfg)
        want = reference_search(utt, model, None, 0.0, 0.0, cfg, with_lm=False)
    else:
        lam, gam = mode
        elm = tiny_elm(rng, v=v, smoothing=0.3) if gam is not None else None
        cfg = D.BeamConfig(beam_size=beam, ilm_weight=lam, elm_weight=gam or 0.0,
                           max_tokens=max_tokens, frame_cap=frame_cap)
        got = D.beam_search(utt, model, elm, cfg)
        want = reference_search(utt, model, elm, lam, gam or 0.0, cfg, with_lm=True)
    assert (got.uid, got.reference, got.ilm_weight, got.elm_weight) == (
        want.uid, want.reference, want.ilm_weight, want.elm_weight)
    assert len(got.hyps) == len(want.hyps)
    for g, w in zip(got.hyps, want.hyps):
        assert g.tokens == w.tokens
        assert g.e2e_search == w.e2e_search
        assert g.combined == w.combined
        assert g.truncated == w.truncated
        for x, y in ((g.ilm_scores, w.ilm_scores), (g.elm_scores, w.elm_scores)):
            assert x.shape == y.shape
            np.testing.assert_array_equal(x, y)


OPS = st.one_of(
    st.tuples(st.just("fused"), st.sampled_from([(0.0, 0.0), (0.2, 0.3), (0.8, 0.8), (0.5, None)]),
              st.integers(0, 2)),
    st.tuples(st.just("plain"), st.just(None), st.integers(0, 2)),
    st.tuples(st.just("edit"), st.sampled_from(["lemb", "pred_wh", "joint_wd", "label_b", "aemb",
                                                "same"]), st.integers(0, 2**16)))


@hypothesis.settings(max_examples=30, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), bench=st.booleans(), beam=st.integers(1, 8),
                  max_tokens=st.integers(1, 9), frame_cap=st.integers(1, 3),
                  ops=st.lists(OPS, min_size=2, max_size=8))
def test_searches_sharing_one_model_equal_the_reference(seed, bench, beam, max_tokens,
                                                         frame_cap, ops):
    # one model serves every search of the sequence, so later searches read
    # rows earlier ones made, until an edit changes a parameter ("same"
    # rewrites every value unchanged); each list must equal the reference
    # search on a fresh copy of the model as it is at that moment. A
    # (lam, None) search fuses the ILM with no external LM
    rng = np.random.default_rng(seed)
    model = bench_scale_model(seed) if bench else tiny_model(seed, v=4)
    v, a = model.config.vocab_size, model.config.acoustic_size
    elm = tiny_elm(rng, v=v, smoothing=0.3)
    utts = [random_utt(rng, a=a, t=int(rng.integers(1, 6)), uid=f"s{i}") for i in range(3)]
    for kind, arg, i in ops:
        if kind == "edit":
            if arg == "same":
                model.params.set_values(model.params.copy_values())
            else:
                p = model.params[arg].data
                p += 0.1 * np.random.default_rng(i).standard_normal(p.shape)
            continue
        fresh = fresh_copy(model)
        lam, gam = arg or (0.0, 0.0)
        cfg = D.BeamConfig(beam_size=beam, ilm_weight=lam, elm_weight=gam or 0.0,
                           max_tokens=max_tokens, frame_cap=frame_cap)
        if kind == "plain":
            got = D.beam_search_plain(utts[i], model, cfg)
            want = reference_search(utts[i], fresh, None, 0.0, 0.0, cfg, with_lm=False)
        else:
            lm = elm if gam is not None else None
            got = D.beam_search(utts[i], model, lm, cfg)
            want = reference_search(utts[i], fresh, lm, lam, gam or 0.0, cfg, with_lm=True)
        assert_same_list(got, want)

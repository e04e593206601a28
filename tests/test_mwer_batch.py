"""The batched MWER loss: a step's (utterance, N-best) pairs as one graph,
one encoder recurrence and one lattice sweep whatever the batch size. It
must equal the mean of its one-list losses, the per-list loss built on the
padded-grid scorer, and finite differences."""

import numpy as np
import pytest

from hatfusion import decode as D
from hatfusion import lm as L
from hatfusion import mwer as M
from hatfusion import tensor as T
from hatfusion.hat import HatConfig, HatModel, Utterance

from conftest import check_gradients, padded_score_sequences


def tiny_model(seed):
    cfg = HatConfig(vocab_size=3, acoustic_size=4, embed_dim=3, hidden_dim=4, joint_dim=4)
    return HatModel(cfg, seed=seed)


def mixed_batch(rng, model, elm, n=4):
    """Fused lists of utterances with different frame counts, list sizes and
    reference lengths."""
    pairs = []
    for i in range(n):
        utt = Utterance(f"b{i}", rng.integers(0, 4, size=rng.integers(1, 6)).tolist(),
                        rng.integers(0, 3, size=rng.integers(0, 4)).tolist())
        cfg = D.BeamConfig(beam_size=int(rng.integers(1, 5)), max_tokens=3, frame_cap=2,
                           ilm_weight=0.2, elm_weight=0.3)
        pairs.append((utt, D.beam_search(utt, model, elm, cfg)))
    return pairs


def tiny_elm(rng):
    corpus = [rng.integers(0, 3, size=3).tolist() for _ in range(10)]
    return L.train_ngram(corpus, order=2, smoothing=0.5, vocab=[0, 1, 2])


def padded_grid_loss(utterance, nbest, model, config):
    """The per-list loss as it was built on the padded-grid scorer."""
    reference = list(utterance.reference)
    k = len(nbest.hyps)
    errors = np.array([M.nwe(h.tokens, reference) for h in nbest.hyps], dtype=float)
    full, ilm = padded_score_sequences(model, model.encode(utterance.acoustics),
                                       nbest.token_lists() + [reference])
    elm_totals = np.array([float(np.sum(h.elm_scores)) for h in nbest.hyps])
    term = M.mwer_loss_scores(full[:k], errors, ilm[:k], elm_totals, config.mu, config.nu)
    return T.add(term, T.scale(full[k], -float(config.theta)))


def taped(model, build):
    model.params.zero_grads()
    with T.Tape() as tape:
        loss = build()
        tape.backward(loss)
    return float(loss.data), {n: p.grad.copy() for n, p in model.params.items()}


def mean_of(parts):
    """The mean of (loss, gradients) pairs taken list by list."""
    loss = np.mean([p[0] for p in parts])
    grads = {n: np.mean([p[1][n] for p in parts], axis=0) for n in parts[0][1]}
    return loss, grads


CONFIGS = [M.MwerConfig(mu=0.3, nu=0.2, theta=0.01), M.MwerConfig(theta=0.005)]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("seed", range(3))
def test_batch_equals_mean_of_one_list_losses(seed, config):
    rng = np.random.default_rng(900 + seed)
    model = tiny_model(40 + seed)
    pairs = mixed_batch(rng, model, tiny_elm(rng))
    assert len({len(nb.hyps) for _, nb in pairs}) > 1
    got = taped(model, lambda: M.composite_batch_loss(pairs, model, config))
    for one_list in (M.composite_loss, padded_grid_loss):
        want = mean_of([taped(model, lambda u=u, nb=nb: one_list(u, nb, model, config))
                        for u, nb in pairs])
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
        for name, g in got[1].items():
            np.testing.assert_allclose(g, want[1][name], rtol=1e-12, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("config", CONFIGS)
def test_padded_hypotheses_get_exactly_zero_probability_and_gradient(config):
    rng = np.random.default_rng(950)
    model = tiny_model(54)
    pairs = mixed_batch(rng, model, tiny_elm(rng))
    counts = np.array([len(nb.hyps) for _, nb in pairs])
    padded = np.arange(counts.max())[None, :] >= counts[:, None]
    assert padded.any()
    with T.Tape() as tape:
        loss = M.composite_batch_loss(pairs, model, config)
    tape.backward(loss)
    # the (B, K_max) nodes of the expectation tail, from the gathered raw
    # scores to the probabilities, the last of them
    blocks = [out for out, _, _ in tape._entries if out.shape == padded.shape]
    np.testing.assert_allclose(blocks[-1].data.sum(axis=1), 1.0, rtol=1e-12)
    assert np.all(blocks[-1].data[padded] == 0)
    for out in blocks:
        assert np.all(out.grad[padded] == 0)


def test_batch_gradients_match_finite_differences():
    rng = np.random.default_rng(910)
    model = tiny_model(50)
    pairs = mixed_batch(rng, model, tiny_elm(rng), n=3)
    check_gradients(lambda: M.composite_batch_loss(pairs, model, CONFIGS[0]), model.params)


def test_one_list_tail_is_mwer_loss_scores_bit_for_bit():
    # LM weights on: the batch of one is the per-list formula's arithmetic
    rng = np.random.default_rng(920)
    model = tiny_model(51)
    (utt, nb), = mixed_batch(rng, model, tiny_elm(rng), n=1)
    config = CONFIGS[0]

    def by_hand():
        reference = list(utt.reference)
        k = len(nb.hyps)
        full, ilm = model.score_sequences(model.encode(utt.acoustics),
                                          nb.token_lists() + [reference])
        errors = [M.nwe(h.tokens, reference) for h in nb.hyps]
        elm_totals = np.array([float(np.sum(h.elm_scores)) for h in nb.hyps])
        term = M.mwer_loss_scores(full[:k], errors, ilm[:k], elm_totals, config.mu, config.nu)
        return T.add(term, T.scale(full[k], -config.theta))

    got = taped(model, lambda: M.composite_loss(utt, nb, model, config))
    want = taped(model, by_hand)
    assert got[0] == want[0]
    for name, g in got[1].items():
        np.testing.assert_array_equal(g, want[1][name], err_msg=name)


def test_empty_list_in_batch_names_its_utterance():
    rng = np.random.default_rng(930)
    model = tiny_model(52)
    pairs = mixed_batch(rng, model, tiny_elm(rng), n=3)
    utt, nb = pairs[1]
    pairs[1] = (utt, D.NBestList(nb.uid, list(nb.reference), []))
    with pytest.raises(ValueError, match="'b1'"):
        M.composite_batch_loss(pairs, model, M.MwerConfig())
    with pytest.raises(ValueError, match="empty batch"):
        M.composite_batch_loss([], model, M.MwerConfig())


def test_tape_length_does_not_grow_with_batch():
    # one graph per step, not one per list: at fixed frames, list sizes and
    # labels, a step records as many entries at B = 8 as at B = 1
    model = tiny_model(53)
    rng = np.random.default_rng(940)
    utt = Utterance("u", [0, 2, 1], [1, 2])
    nb = D.beam_search(utt, model, tiny_elm(rng),
                       D.BeamConfig(beam_size=3, max_tokens=3, frame_cap=2,
                                    ilm_weight=0.2, elm_weight=0.3))
    lengths = []
    for b in (1, 4, 8):
        pairs = [(Utterance(f"u{i}", utt.acoustics, utt.reference), nb) for i in range(b)]
        model.params.zero_grads()
        with T.Tape() as tape:
            tape.backward(M.composite_batch_loss(pairs, model, CONFIGS[0]))
        lengths.append(len(tape))
    assert lengths == [lengths[0]] * 3

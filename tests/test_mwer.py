from functools import lru_cache

import numpy as np
import pytest

from hatfusion import decode as D
from hatfusion import hat as H
from hatfusion import lfm as F
from hatfusion import lm as L
from hatfusion import mwer as M
from hatfusion import tensor as T

from conftest import check_gradients


def edit_oracle(a, b):
    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
            go(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return go(len(a), len(b))


def fake_nbest(e2e, ilm=None, elm=None, tokens=None, uid="u", ref=(0,)):
    k = len(e2e)
    if tokens is None:
        tokens = [tuple([i] * i) for i in range(k)]
    hyps = []
    for i in range(k):
        n = len(tokens[i])
        hyps.append(
            D.Hypothesis(
                tokens=tuple(tokens[i]),
                e2e_search=e2e[i],
                ilm_scores=np.array(ilm[i]) if ilm else np.zeros(n),
                elm_scores=np.array(elm[i]) if elm else np.zeros(n),
                combined=e2e[i],
                e2e_fullsum=e2e[i],
            )
        )
    return D.NBestList(uid, list(ref), hyps)


class TestNwe:
    def test_identical_and_empty(self):
        assert M.nwe([], []) == 0
        assert M.nwe(["a", "b"], ["a", "b"]) == 0
        assert M.nwe([], ["x", "y", "z"]) == 3
        assert M.nwe([1, 2], []) == 2

    def test_mixed_edit_example(self):
        assert M.nwe(["the", "cat", "sat"], ["the", "hat", "sat", "down"]) == 2

    def test_matches_recursive_oracle(self):
        words = ["a", "b", "c"]
        seqs = [[]]
        frontier = [[]]
        for _ in range(4):
            frontier = [s + [w] for s in frontier for w in words]
            seqs.extend(frontier)
        for x in seqs:
            for y in seqs:
                assert M.nwe(x, y) == edit_oracle(tuple(x), tuple(y))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = list(rng.integers(0, 4, size=rng.integers(0, 6)))
            y = list(rng.integers(0, 4, size=rng.integers(0, 6)))
            assert M.nwe(x, y) == M.nwe(y, x)


class TestRenormalize:
    def test_single_hypothesis_is_certain(self):
        post = M.renormalize(fake_nbest([-3.7]))
        assert abs(post.log_phat[0]) < 1e-12
        assert abs(post.probs[0] - 1.0) < 1e-12

    def test_equal_scores_split_evenly(self):
        post = M.renormalize(fake_nbest([-1.0, -1.0]))
        np.testing.assert_allclose(post.probs, [0.5, 0.5], atol=1e-12)

    def test_hand_values(self):
        post = M.renormalize(fake_nbest([np.log(0.2), np.log(0.6)]))
        np.testing.assert_allclose(post.probs, [0.25, 0.75], atol=1e-12)
        assert abs(post.normalizer - (-np.log(0.8))) < 1e-12

    def test_normalizes_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            nb = fake_nbest(list(rng.normal(size=k) * 5))
            post = M.renormalize(nb)
            assert abs(np.sum(post.probs) - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        scores = list(rng.normal(size=5))
        a = M.renormalize(fake_nbest(scores))
        b = M.renormalize(fake_nbest([s + 11.25 for s in scores]))
        np.testing.assert_allclose(a.log_phat, b.log_phat, atol=1e-12)

    def test_loss_side_weights_enter_raw_scores(self):
        nb = fake_nbest([-1.0, -2.0], ilm=[[-0.5], [-1.0, -0.25]], elm=[[-2.0], [-0.5, -0.5]],
                        tokens=[(1,), (2, 2)])
        post = M.renormalize(nb, mu=0.4, nu=0.3)
        raw = np.array([(-1.0 - 0.4 * -0.5) + 0.3 * -2.0,
                        (-2.0 - 0.4 * -1.25) + 0.3 * -1.0])
        want = raw - (np.max(raw) + np.log(np.sum(np.exp(raw - np.max(raw)))))
        np.testing.assert_allclose(post.log_phat, want, atol=1e-12)

    def test_rejects_empty_or_unrescored(self):
        with pytest.raises(ValueError):
            M.renormalize(D.NBestList("u", [], []))
        nb = fake_nbest([-1.0])
        nb.hyps[0].e2e_fullsum = None
        with pytest.raises(ValueError):
            M.renormalize(nb)


class TestMwerLoss:
    def test_constant_errors_give_constant_loss(self):
        nb = fake_nbest([-1.0, -5.0, -2.0], tokens=[(3,), (4,), (5,)], ref=[9])
        post = M.renormalize(nb)
        assert abs(M.mwer_loss(post, nb, [9]) - 1.0) < 1e-12

    def test_hand_expectation(self):
        nb = fake_nbest([np.log(0.2), np.log(0.6)], tokens=[(7,), (1, 2)], ref=[7])
        post = M.renormalize(nb)
        assert abs(M.mwer_loss(post, nb, [7]) - 1.5) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            M.MwerConfig(mu=-0.1)
        # a NaN passes "< 0" and a string raised TypeError there
        for field, value in (("mu", float("nan")), ("nu", float("inf")), ("theta", "0.1")):
            with pytest.raises(ValueError, match=field):
                M.MwerConfig(**{field: value})


class TestMwerLossScores:
    def test_matches_numpy_path(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(1, 6))
            e2e = rng.normal(size=k)
            ilm = [list(rng.normal(size=i + 1)) for i in range(k)]
            elm = [list(rng.normal(size=i + 1)) for i in range(k)]
            toks = [tuple(rng.integers(0, 3, size=i + 1)) for i in range(k)]
            ref = list(rng.integers(0, 3, size=2))
            nb = fake_nbest(list(e2e), ilm=ilm, elm=elm, tokens=toks, ref=ref)
            want = M.expected_errors(nb, ref, mu=0.3, nu=0.2)
            errors = [M.nwe(t, ref) for t in toks]
            got = M.mwer_loss_scores(
                T.constant(e2e), errors,
                T.constant(np.array([np.sum(x) for x in ilm])),
                np.array([np.sum(x) for x in elm]), mu=0.3, nu=0.2,
            )
            assert abs(float(got.data) - want) < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        ps = T.ParamSet()
        e2e = ps.add("e2e", rng.normal(size=4))
        ilm = ps.add("ilm", rng.normal(size=4))
        errors = [0.0, 2.0, 1.0, 3.0]
        elm = rng.normal(size=4)

        def build():
            return M.mwer_loss_scores(e2e, errors, ilm, elm, mu=0.35, nu=0.6)

        check_gradients(build, [e2e, ilm])

    def test_error_shift_identity(self):
        rng = np.random.default_rng(5)
        ps = T.ParamSet()
        e2e = ps.add("e2e", rng.normal(size=3))
        errors = np.array([1.0, 0.0, 4.0])

        def run(errs):
            ps.zero_grads()
            with T.Tape() as tape:
                loss = M.mwer_loss_scores(e2e, errs)
                tape.backward(loss)
            return float(loss.data), e2e.grad.copy()

        base, gbase = run(errors)
        shifted, gshift = run(errors + 2.5)
        assert abs((shifted - base) - 2.5) < 1e-10
        np.testing.assert_allclose(gshift, gbase, atol=1e-10)

    def test_shift_invariance_of_loss(self):
        e2e = np.array([-1.0, -2.5, 0.5])
        a = M.mwer_loss_scores(T.constant(e2e), [1, 2, 0])
        b = M.mwer_loss_scores(T.constant(e2e + 7.0), [1, 2, 0])
        assert abs(float(a.data) - float(b.data)) < 1e-12


def decode_and_rescore(model, utt, elm, k=3):
    cfg = D.BeamConfig(beam_size=k, max_tokens=3, frame_cap=2)
    nb = D.beam_search_plain(utt, model, cfg)
    return F.prepare_rescoring(utt, nb, model, elm)


class TestCompositeLoss:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        cfg = H.HatConfig(vocab_size=2, acoustic_size=3, embed_dim=3, hidden_dim=3, joint_dim=3)
        self.model = H.HatModel(cfg, seed=21)
        self.utt = H.Utterance("u0", [0, 2, 1], [1, 0])
        corpus = [list(self.rng.integers(0, 2, size=3)) for _ in range(10)]
        self.elm = L.train_ngram(corpus, order=2, smoothing=0.5, vocab=[0, 1])
        self.nbest = decode_and_rescore(self.model, self.utt, self.elm)

    def mwer_term_oracle(self, mu, nu):
        # composite_loss recomputes ILM scores from the model, so the oracle
        # must too; ELM totals come from the decoded per-token scores
        raw = np.array(
            [
                (h.e2e_fullsum
                 - mu * float(np.sum(self.model.internal_lm_log_prob([list(h.tokens)])[0])))
                + nu * float(np.sum(h.elm_scores))
                for h in self.nbest.hyps
            ]
        )
        p = np.exp(raw - np.max(raw))
        p /= np.sum(p)
        errors = [M.nwe(h.tokens, self.utt.reference) for h in self.nbest.hyps]
        return float(np.dot(p, errors))

    def test_theta_zero_equals_mwer_term(self):
        cfg = M.MwerConfig(mu=0.2, nu=0.1, theta=0.0)
        loss = M.composite_loss(self.utt, self.nbest, self.model, cfg)
        assert abs(float(loss.data) - self.mwer_term_oracle(0.2, 0.1)) < 1e-10

    def test_default_theta_hand_combined(self):
        cfg = M.MwerConfig(mu=0.2, nu=0.1, theta=0.005)
        loss = M.composite_loss(self.utt, self.nbest, self.model, cfg)
        anchor = float(self.model.full_sum_log_prob(self.utt, self.utt.reference).data)
        assert abs(float(loss.data) - (self.mwer_term_oracle(0.2, 0.1) - 0.005 * anchor)) < 1e-10

    def test_theta_linearity(self):
        losses = []
        for theta in (0.005, 0.01):
            cfg = M.MwerConfig(theta=theta)
            losses.append(float(M.composite_loss(self.utt, self.nbest, self.model, cfg).data))
        anchor = float(self.model.full_sum_log_prob(self.utt, self.utt.reference).data)
        assert abs((losses[1] - losses[0]) - (-0.005 * anchor)) < 1e-12

    def regular_mwer(self, theta):
        """Standard MWER built by hand from the e2e full sums alone."""
        reference = list(self.utt.reference)
        k = len(self.nbest.hyps)
        errors = [M.nwe(h.tokens, reference) for h in self.nbest.hyps]
        enc = self.model.encode(self.utt.acoustics)
        full = self.model.full_sum_log_probs(enc, self.nbest.token_lists() + [reference])
        return T.add(M.mwer_loss_scores(full[:k], errors), T.scale(full[k], -theta))

    def test_plain_path_equals_zero_weight_lm_path(self):
        cfg = M.MwerConfig(mu=0.0, nu=0.0, theta=0.005)
        fused = M.composite_loss(self.utt, self.nbest, self.model, cfg)
        assert float(fused.data) == float(self.regular_mwer(0.005).data)

    def test_plain_and_zero_weight_gradients_agree(self):
        cfg = M.MwerConfig(mu=0.0, nu=0.0, theta=0.005)
        grads = []
        for build in (lambda: M.composite_loss(self.utt, self.nbest, self.model, cfg),
                      lambda: self.regular_mwer(0.005)):
            self.model.params.zero_grads()
            with T.Tape() as tape:
                tape.backward(build())
            grads.append({n: p.grad.copy() for n, p in self.model.params.items()})
        for name in grads[0]:
            np.testing.assert_array_equal(grads[0][name], grads[1][name])

    def test_gradients_match_finite_differences(self):
        cfg = M.MwerConfig(mu=0.3, nu=0.2, theta=0.005)

        def build():
            return M.composite_loss(self.utt, self.nbest, self.model, cfg)

        check_gradients(build, list(self.model.params.tensors()))

    def test_empty_nbest_rejected(self):
        with pytest.raises(ValueError):
            M.composite_loss(self.utt, D.NBestList("u", [], []), self.model, M.MwerConfig())

"""Language model tests: counts, smoothing, incremental scoring, persistence."""

import math

import numpy as np
import pytest

from hatfusion import lm as L


class TestNGramTraining:
    def test_unigram_no_smoothing(self):
        m = L.train_ngram(["a a b"], order=1, smoothing=0.0, vocab=["a", "b"])
        dist = np.exp(L.next_token_logprobs(m, L.initial_state(m)))
        assert dist[0] == pytest.approx(2 / 3, abs=1e-15)
        assert dist[1] == pytest.approx(1 / 3, abs=1e-15)

    def test_unigram_add_one(self):
        m = L.train_ngram(["a a b"], order=1, smoothing=1.0, vocab=["a", "b"])
        dist = np.exp(L.next_token_logprobs(m, L.initial_state(m)))
        assert dist[0] == pytest.approx(3 / 5, abs=1e-15)
        assert dist[1] == pytest.approx(2 / 5, abs=1e-15)

    def test_seen_bigram_no_smoothing_is_certain(self):
        m = L.train_ngram(["a b"], order=2, smoothing=0.0, vocab=["a", "b"])
        state, _ = L.advance_state(m, L.initial_state(m), "a")
        dist = np.exp(L.next_token_logprobs(m, state))
        assert dist[1] == pytest.approx(1.0, abs=1e-15)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing"):
            L.train_ngram(["a b"], order=2, smoothing=-0.1, vocab=["a", "b"])

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="order"):
            L.train_ngram(["a"], order=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            L.train_ngram([], order=1)

    def test_derived_vocab_gets_unknown_entry(self):
        m = L.train_ngram(["a b", "b c"], order=1)
        assert L.UNK in m.vocab
        # unknown queries map onto the unk slot instead of failing
        score = L.score_tokens(m, ["zzz"])
        assert np.isfinite(score.per_token).all()

    def test_explicit_vocab_without_unk_rejects_oov_queries(self):
        m = L.train_ngram(["a b"], order=1, smoothing=0.5, vocab=["a", "b"])
        with pytest.raises(ValueError, match="not in vocabulary"):
            L.score_tokens(m, ["c"])

    def test_integer_tokens(self):
        m = L.train_ngram([[0, 1, 1], [1, 2]], order=2, smoothing=0.1, vocab=[0, 1, 2])
        s = L.score_tokens(m, [1, 2])
        assert np.isfinite(s.per_token).all()


class TestScoring:
    def test_empty_sequence_no_eos_total_zero(self):
        m = L.train_ngram(["a b"], order=2, vocab=["a", "b"])
        assert L.score_tokens(m, [], with_eos=False).total == 0.0

    def test_uniform_unigram_symmetry(self):
        m = L.train_ngram(["a b c d"], order=1, smoothing=0.0, vocab=list("abcd"))
        s = L.score_tokens(m, ["a", "d", "b"])
        assert s.total == pytest.approx(-3 * math.log(4), abs=1e-12)

    def test_batch_equals_incremental_replay(self):
        m = L.train_ngram(["a b a", "b b a c"], order=3, smoothing=0.2, vocab=["a", "b", "c"])
        seq = ["b", "a", "c", "a"]
        batch = L.score_tokens(m, seq)
        state = L.initial_state(m)
        total = 0.0
        for i, tok in enumerate(seq):
            state, lp = L.advance_state(m, state, tok)
            assert lp == batch.per_token[i]
            total += lp
        assert float(np.sum(batch.per_token)) == total

    def test_first_advance_equals_r1(self):
        m = L.train_ngram(["a a b"], order=2, smoothing=0.3, vocab=["a", "b"])
        _, lp = L.advance_state(m, L.initial_state(m), "a")
        assert lp == L.score_tokens(m, ["a"]).per_token[0]

    def test_markov_property(self):
        m = L.train_ngram(["a b c a b", "c c a b a"], order=2, smoothing=0.1, vocab=["a", "b", "c"])
        s1 = L.initial_state(m)
        for tok in ["a", "b", "c", "a"]:
            s1, _ = L.advance_state(m, s1, tok)
        s2 = L.initial_state(m)
        for tok in ["c", "a"]:
            s2, _ = L.advance_state(m, s2, tok)
        np.testing.assert_array_equal(
            L.next_token_logprobs(m, s1), L.next_token_logprobs(m, s2)
        )

    def test_distributions_normalize(self):
        rng = np.random.default_rng(0)
        corpus = [rng.integers(0, 6, size=rng.integers(1, 8)).tolist() for _ in range(40)]
        corpus = [[int(t) for t in s] for s in corpus]
        m = L.train_ngram(corpus, order=2, smoothing=0.1, vocab=list(range(6)))
        for _ in range(1000):
            ctx_len = int(rng.integers(0, 2))
            state = L.initial_state(m)
            for tok in rng.integers(0, 6, size=ctx_len).tolist():
                state, _ = L.advance_state(m, state, int(tok))
            total = np.exp(L.next_token_logprobs(m, state)).sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_eos_term_added_when_requested(self):
        m = L.train_ngram(["a b", "a"], order=2, smoothing=0.1, vocab=["a", "b"])
        off = L.score_tokens(m, ["a"], with_eos=False)
        on = L.score_tokens(m, ["a"], with_eos=True)
        assert on.total == pytest.approx(off.total + on.eos, abs=1e-15)
        assert on.eos < 0

    def test_rare_word_training_raises_scores(self):
        base = ["a b c", "b c a", "c a b"] * 10
        rare_rich = base + ["a w b", "w c", "b w"] * 10
        vocab = ["a", "b", "c", "w"]
        lm_base = L.train_ngram(base, order=2, smoothing=0.1, vocab=vocab)
        lm_rich = L.train_ngram(rare_rich, order=2, smoothing=0.1, vocab=vocab)
        probe = ["a", "w", "b"]
        assert L.score_tokens(lm_rich, probe).total > L.score_tokens(lm_base, probe).total


class TestPersistence:
    def test_ngram_roundtrip(self, tmp_path):
        m = L.train_ngram(["a b a", "b a", "a"], order=2, smoothing=0.25, vocab=["a", "b"])
        L.save_lm(m, tmp_path / "elm.lm")
        again = L.load_lm(tmp_path / "elm.lm")
        seq = ["a", "b", "a", "a"]
        first = L.score_tokens(m, seq, with_eos=True)
        second = L.score_tokens(again, seq, with_eos=True)
        np.testing.assert_array_equal(first.per_token, second.per_token)
        assert first.total == second.total

    def test_ngram_integer_vocab_roundtrip(self, tmp_path):
        m = L.train_ngram([[0, 2], [1, 0, 2]], order=2, smoothing=0.1, vocab=[0, 1, 2])
        L.save_lm(m, tmp_path / "elm.lm")
        again = L.load_lm(tmp_path / "elm.lm")
        assert again.vocab == [0, 1, 2]
        assert L.score_tokens(again, [1, 2]).total == L.score_tokens(m, [1, 2]).total

    def test_unrecognized_file_rejected(self, tmp_path):
        (tmp_path / "bad.lm").write_text("who knows\n")
        with pytest.raises(ValueError, match="unrecognized"):
            L.load_lm(tmp_path / "bad.lm")

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            L.load_lm(tmp_path / "nope.lm")

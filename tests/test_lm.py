"""Language model tests: counts, smoothing, incremental scoring, persistence."""

import math

import numpy as np
import pytest

from hatfusion import lm as L


class TestNGramTraining:
    def test_unigram_no_smoothing(self):
        m = L.train_ngram([[0, 0, 1]], order=1, smoothing=0.0, vocab=[0, 1])
        dist = np.exp(L.next_token_logprobs(m, L.initial_state(m)))
        assert dist[0] == pytest.approx(2 / 3, abs=1e-15)
        assert dist[1] == pytest.approx(1 / 3, abs=1e-15)

    def test_unigram_add_one(self):
        m = L.train_ngram([[0, 0, 1]], order=1, smoothing=1.0, vocab=[0, 1])
        dist = np.exp(L.next_token_logprobs(m, L.initial_state(m)))
        assert dist[0] == pytest.approx(3 / 5, abs=1e-15)
        assert dist[1] == pytest.approx(2 / 5, abs=1e-15)

    def test_seen_bigram_no_smoothing_is_certain(self):
        m = L.train_ngram([[0, 1]], order=2, smoothing=0.0, vocab=[0, 1])
        state, _ = L.advance_state(m, L.initial_state(m), 0)
        dist = np.exp(L.next_token_logprobs(m, state))
        assert dist[1] == pytest.approx(1.0, abs=1e-15)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing"):
            L.train_ngram([[0, 1]], order=2, smoothing=-0.1, vocab=[0, 1])

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="order"):
            L.train_ngram([[0]], order=0, vocab=[0])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            L.train_ngram([], order=1, vocab=[0])

    def test_vocab_must_be_label_ids(self):
        for vocab in ([1, 0, 2], [0, 2], ["a", "b"]):
            with pytest.raises(ValueError, match="label ids"):
                L.train_ngram([[0]], order=1, vocab=vocab)
        with pytest.raises(ValueError, match="not in vocabulary"):
            L.train_ngram([[0, 2]], order=1, vocab=[0, 1])

    def test_explicit_vocab_without_unk_rejects_oov_queries(self):
        m = L.train_ngram([[0, 1]], order=1, smoothing=0.5, vocab=[0, 1])
        with pytest.raises(ValueError, match="not in vocabulary"):
            L.score_tokens(m, [2])

    def test_integer_tokens(self):
        m = L.train_ngram([[0, 1, 1], [1, 2]], order=2, smoothing=0.1, vocab=[0, 1, 2])
        s = L.score_tokens(m, [1, 2])
        assert np.isfinite(s.per_token).all()


class TestScoring:
    def test_empty_sequence_no_eos_total_zero(self):
        m = L.train_ngram([[0, 1]], order=2, vocab=[0, 1])
        assert L.score_tokens(m, []).total == 0.0

    def test_uniform_unigram_symmetry(self):
        m = L.train_ngram([[0, 1, 2, 3]], order=1, smoothing=0.0, vocab=list(range(4)))
        s = L.score_tokens(m, [0, 3, 1])
        assert s.total == pytest.approx(-3 * math.log(4), abs=1e-12)

    def test_batch_equals_incremental_replay(self):
        m = L.train_ngram([[0, 1, 0], [1, 1, 0, 2]], order=3, smoothing=0.2, vocab=[0, 1, 2])
        seq = [1, 0, 2, 0]
        batch = L.score_tokens(m, seq)
        state = L.initial_state(m)
        total = 0.0
        for i, tok in enumerate(seq):
            state, lp = L.advance_state(m, state, tok)
            assert lp == batch.per_token[i]
            total += lp
        assert float(np.sum(batch.per_token)) == total

    def test_first_advance_equals_r1(self):
        m = L.train_ngram([[0, 0, 1]], order=2, smoothing=0.3, vocab=[0, 1])
        _, lp = L.advance_state(m, L.initial_state(m), 0)
        assert lp == L.score_tokens(m, [0]).per_token[0]

    def test_markov_property(self):
        m = L.train_ngram([[0, 1, 2, 0, 1], [2, 2, 0, 1, 0]], order=2, smoothing=0.1,
                          vocab=[0, 1, 2])
        s1 = L.initial_state(m)
        for tok in [0, 1, 2, 0]:
            s1, _ = L.advance_state(m, s1, tok)
        s2 = L.initial_state(m)
        for tok in [2, 0]:
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

    def test_rare_word_training_raises_scores(self):
        base = [[0, 1, 2], [1, 2, 0], [2, 0, 1]] * 10
        rare_rich = base + [[0, 3, 1], [3, 2], [1, 3]] * 10
        vocab = [0, 1, 2, 3]
        lm_base = L.train_ngram(base, order=2, smoothing=0.1, vocab=vocab)
        lm_rich = L.train_ngram(rare_rich, order=2, smoothing=0.1, vocab=vocab)
        probe = [0, 3, 1]
        assert L.score_tokens(lm_rich, probe).total > L.score_tokens(lm_base, probe).total


class TestPersistence:
    def test_ngram_roundtrip(self, tmp_path):
        m = L.train_ngram([[0, 1, 0], [1, 0], [0]], order=2, smoothing=0.25, vocab=[0, 1])
        L.save_lm(m, tmp_path / "elm.lm")
        again = L.load_lm(tmp_path / "elm.lm")
        seq = [0, 1, 0, 0]
        first = L.score_tokens(m, seq)
        second = L.score_tokens(again, seq)
        np.testing.assert_array_equal(first.per_token, second.per_token)
        assert first.total == second.total

    def test_ngram_integer_vocab_roundtrip(self, tmp_path):
        m = L.train_ngram([[0, 2], [1, 0, 2]], order=2, smoothing=0.1, vocab=[0, 1, 2])
        L.save_lm(m, tmp_path / "elm.lm")
        again = L.load_lm(tmp_path / "elm.lm")
        assert again.vocab_size == 3
        assert L.score_tokens(again, [1, 2]).total == L.score_tokens(m, [1, 2]).total

    def test_file_with_sentence_end_lines_loads(self, tmp_path):
        # the earlier writer of this format also stored has_unk and the
        # sentence-end counts ([ctx, null, count] lines); both are ignored
        (tmp_path / "old.lm").write_text(
            'ngram-lm v1\n'
            '{"order": 2, "smoothing": 0.25, "vocab": [0, 1, 2], "has_unk": false}\n'
            '[["<s>"], 0, 1]\n[["<s>"], 1, 1]\n[["<s>"], 2, 1]\n'
            '[[0], 2, 2]\n[[1], 0, 1]\n[[2], 2, 1]\n[[2], null, 3]\n'
        )
        old = L.load_lm(tmp_path / "old.lm")
        m = L.train_ngram([[0, 2], [1, 0, 2], [2, 2]], order=2, smoothing=0.25, vocab=[0, 1, 2])
        seq = [2, 0, 1, 2]
        written = [-1.0986122886681098, -1.9459101490553132, -2.3978952727983707,
                   -1.9459101490553132]  # what the writing model scored
        np.testing.assert_array_equal(L.score_tokens(old, seq).per_token, written)
        np.testing.assert_array_equal(L.score_tokens(m, seq).per_token, written)

    def test_non_label_file_rejected(self, tmp_path):
        head = 'ngram-lm v1\n{"order": 1, "smoothing": 0.5, "vocab": %s}\n'
        (tmp_path / "strings.lm").write_text(head % '["a", "b"]' + '[[], "a", 1]\n')
        (tmp_path / "range.lm").write_text(head % "[0, 1]" + "[[], 2, 1]\n")
        with pytest.raises(ValueError, match="label ids"):
            L.load_lm(tmp_path / "strings.lm")
        with pytest.raises(ValueError, match="not in vocabulary"):
            L.load_lm(tmp_path / "range.lm")

    def test_unrecognized_file_rejected(self, tmp_path):
        (tmp_path / "bad.lm").write_text("who knows\n")
        with pytest.raises(ValueError, match="unrecognized"):
            L.load_lm(tmp_path / "bad.lm")

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            L.load_lm(tmp_path / "nope.lm")

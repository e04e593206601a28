"""Synthetic task generation and the corpus WER metric."""

import json

import numpy as np
import pytest

from hatfusion import data
from hatfusion.data import TaskConfig, generate_task, invert_acoustics, wer
from hatfusion.lm import score_tokens, train_ngram


def small_config(**kw):
    base = dict(
        vocab_size=12,
        rare_count=3,
        train_size=60,
        dev_size=12,
        test_size=12,
        text_only_size=300,
        noise_rate=0.15,
        acoustic_symbols=8,
        seed=5,
    )
    base.update(kw)
    return TaskConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        cfg = TaskConfig()
        assert cfg.vocab_size == 40
        assert cfg.rare_count == 8
        assert cfg.noise_rate == 0.15

    def test_too_many_rare_words_rejected(self):
        with pytest.raises(ValueError):
            TaskConfig(vocab_size=10, rare_count=5)

    def test_bad_noise_rejected(self):
        with pytest.raises(ValueError):
            TaskConfig(noise_rate=1.0)
        with pytest.raises(ValueError):
            TaskConfig(noise_rate=-0.1)

    @pytest.mark.parametrize("field,value", [("seed", 1.5), ("train_size", 60.0),
                                             ("noise_rate", "0.1"), ("code_len", True)])
    def test_field_of_the_wrong_type_rejected(self, field, value):
        # each used to pass, and generation failed later in numpy or not at all
        with pytest.raises(ValueError, match=field):
            TaskConfig(**{field: value})

    def test_tiny_alphabet_rejected(self):
        with pytest.raises(ValueError):
            TaskConfig(acoustic_symbols=6, code_len=1)

    def test_train_too_small_for_injections_rejected(self):
        with pytest.raises(ValueError):
            TaskConfig(vocab_size=12, rare_count=3, rare_train_max=4,
                       train_size=5, acoustic_symbols=8)


class TestGeneration:
    def test_split_sizes(self):
        task = generate_task(small_config())
        assert len(task.train) == 60
        assert len(task.dev_common) == len(task.dev_rare) == 12
        assert len(task.test_common) == len(task.test_rare) == 12
        assert len(task.text_only) == 300

    def test_codebook_is_injective_and_fixed_length(self):
        task = generate_task(small_config())
        codes = list(task.codebook.values())
        assert len(set(codes)) == len(codes)
        assert all(len(c) == task.config.code_len for c in codes)

    def test_twin_codes_differ_in_one_symbol(self):
        task = generate_task(small_config())
        for w, twin in task.twins.items():
            a, b = task.codebook[w], task.codebook[twin]
            assert sum(x != y for x, y in zip(a, b)) == 1

    def test_rare_counts_in_train_hit_cap_exactly(self):
        task = generate_task(small_config())
        counts = data.rare_train_counts(task)
        assert set(counts) == set(task.rare_words)
        # injections land in distinct sentences and base sentences never
        # draw rare ids, so the count is pinned, not merely bounded
        assert all(n == task.config.rare_train_max for n in counts.values())

    def test_common_splits_have_no_rare_words_or_marker(self):
        task = generate_task(small_config())
        banned = set(task.rare_words) | {task.marker}
        for utt in task.dev_common + task.test_common:
            assert not banned & set(utt.reference)

    def test_rare_splits_have_rare_in_every_sentence(self):
        task = generate_task(small_config())
        rare = set(task.rare_words)
        for utt in task.dev_rare + task.test_rare:
            assert rare & set(utt.reference)

    def test_marker_immediately_precedes_every_rare_word(self):
        task = generate_task(small_config())
        rare = set(task.rare_words)
        assert task.marker == task.config.vocab_size - task.config.rare_count - 1
        for utt in task.train + task.dev_rare + task.test_rare:
            ref = utt.reference
            for i, w in enumerate(ref):
                if w in rare:
                    assert i > 0 and ref[i - 1] == task.marker
                if w == task.marker:
                    assert i + 1 < len(ref) and ref[i + 1] in rare

    def test_acoustics_length_matches_words(self):
        task = generate_task(small_config())
        for utt in task.train[:20]:
            assert len(utt.acoustics) == task.config.code_len * len(utt.reference)

    def test_noiseless_task_is_invertible(self):
        task = generate_task(small_config(noise_rate=0.0))
        for split in (task.train, task.dev_rare, task.test_common):
            for utt in split:
                assert invert_acoustics(utt.acoustics, task.codebook) == utt.reference

    def test_invert_rejects_ragged_input(self):
        task = generate_task(small_config(noise_rate=0.0))
        with pytest.raises(ValueError):
            invert_acoustics(task.train[0].acoustics[:-1], task.codebook)

    def test_noise_changes_some_symbols(self):
        cfg = small_config(noise_rate=0.4)
        noisy = generate_task(cfg)
        clean = generate_task(small_config(noise_rate=0.0))
        # same seed, same sentences, different acoustics
        assert [u.reference for u in noisy.train] == [u.reference for u in clean.train]
        flips = sum(
            a != b
            for un, uc in zip(noisy.train, clean.train)
            for a, b in zip(un.acoustics, uc.acoustics)
        )
        total = sum(len(u.acoustics) for u in clean.train)
        assert 0.2 < flips / total < 0.5

    def test_same_seed_is_identical(self):
        a = generate_task(small_config())
        b = generate_task(small_config())
        assert [u.acoustics for u in a.train] == [u.acoustics for u in b.train]
        assert a.text_only == b.text_only
        assert a.codebook == b.codebook

    def test_different_seed_differs(self):
        a = generate_task(small_config(seed=5))
        b = generate_task(small_config(seed=6))
        assert [u.reference for u in a.train] != [u.reference for u in b.train]


class TestTextCorpus:
    def test_text_corpus_oversamples_rare(self):
        task = generate_task(small_config())
        rare = set(task.rare_words)
        text_rate = sum(bool(rare & set(s)) for s in task.text_only) / len(task.text_only)
        train_rate = sum(bool(rare & set(u.reference)) for u in task.train) / len(task.train)
        assert text_rate > 0.3
        assert text_rate > 2 * train_rate

    def test_text_lm_prefers_rare_sentences_over_paired_lm(self):
        task = generate_task(small_config(seed=11))
        vocab = list(range(task.config.vocab_size))
        lm_text = train_ngram(task.text_only, order=2, smoothing=0.1, vocab=vocab)
        lm_paired = train_ngram(
            [u.reference for u in task.train], order=2, smoothing=0.1, vocab=vocab
        )
        def avg(lm):
            scores = [float(np.sum(score_tokens(lm, u.reference))) for u in task.dev_rare]
            return float(np.mean(scores))
        assert avg(lm_text) > avg(lm_paired)


class TestWer:
    def test_hand_counted_rates(self):
        # refs of 3 and 4 words with 1 and 2 edits: 3/7 of the words wrong
        refs = [[1, 2, 3], [4, 5, 6, 7]]
        hyps = [[1, 2, 9], [4, 6, 7, 8]]
        assert wer(hyps, refs) == pytest.approx(100.0 * 3 / 7)

    def test_perfect_is_zero(self):
        refs = [[1, 2], [3]]
        assert wer(refs, refs) == 0.0

    def test_all_deletions_is_hundred(self):
        refs = [[1, 2], [3, 4, 5]]
        hyps = [[], []]
        assert wer(hyps, refs) == 100.0

    def test_corpus_level_differs_from_mean_of_rates(self):
        # short perfect sentence, long bad one: the corpus rate weights by
        # words, the mean of per-sentence rates does not
        refs = [[1], [2, 3, 4, 5, 6, 7, 8, 9, 10]]
        hyps = [[1], [2, 3, 4, 5, 0, 0, 0, 0, 0]]
        corpus = wer(hyps, refs)
        per_sentence = [wer([h], [r]) for h, r in zip(hyps, refs)]
        assert corpus == pytest.approx(100.0 * 5 / 10)
        assert np.mean(per_sentence) == pytest.approx((0.0 + 100.0 * 5 / 9) / 2)
        assert abs(corpus - np.mean(per_sentence)) > 5.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wer([[1]], [[1], [2]])

    def test_empty_reference_corpus_rejected(self):
        with pytest.raises(ValueError):
            wer([], [])
        with pytest.raises(ValueError):
            wer([[1]], [[]])


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        task = generate_task(small_config())
        data.save_task(task, tmp_path / "t")
        back = data.load_task(tmp_path / "t")
        assert back.config == task.config
        assert back.codebook == task.codebook
        assert back.twins == task.twins
        assert back.marker == task.marker
        assert back.rare_words == task.rare_words
        assert [u.uid for u in back.train] == [u.uid for u in task.train]
        assert [u.acoustics for u in back.dev_rare] == [u.acoustics for u in task.dev_rare]
        assert back.text_only == task.text_only

    def test_regeneration_is_byte_identical(self, tmp_path):
        for run in ("a", "b"):
            data.save_task(generate_task(small_config()), tmp_path / run)
        for name in [p.name for p in (tmp_path / "a").iterdir()]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_echoes_config(self, tmp_path):
        cfg = small_config(noise_rate=0.25)
        data.save_task(generate_task(cfg), tmp_path / "t")
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        assert manifest["config"]["noise_rate"] == 0.25
        assert manifest["config"]["seed"] == 5


def _edit_line(path, lineno, edit):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = json.dumps(edit(json.loads(lines[lineno - 1])))
    path.write_text("\n".join(lines) + "\n")


def _drop(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


class TestLoadSchema:
    """A saved task off the schema raises ValueError naming the file (and
    line), never a bare KeyError or TypeError."""

    @pytest.fixture
    def saved(self, tmp_path):
        data.save_task(generate_task(small_config()), tmp_path / "t")
        return tmp_path / "t"

    @pytest.mark.parametrize("name,lineno,edit,what", [
        ("train.jsonl", 2, _drop("acoustics"), "'acoustics'"),
        ("dev_rare.jsonl", 3, lambda r: {**r, "words": ["a", "b"]}, "'words'"),
        ("test_common.jsonl", 1, lambda r: {**r, "uid": 7}, "'uid'"),
        ("text_only.jsonl", 4, _drop("words"), "'words'"),
        ("text_only.jsonl", 1, lambda r: [r], "not a JSON object"),
    ], ids=["split-without-acoustics", "string-words", "int-uid", "text-without-words",
            "text-array"])
    def test_bad_line_names_file_and_line(self, saved, name, lineno, edit, what):
        _edit_line(saved / name, lineno, edit)
        with pytest.raises(ValueError, match=f"{name.replace('.', '[.]')}:{lineno}: {what}"):
            data.load_task(saved)

    @pytest.mark.parametrize("name", ["train.jsonl", "text_only.jsonl"])
    def test_blank_lines_are_skipped(self, saved, name):
        # every line-delimited artifact reads blank lines alike; split files
        # used to fail on one
        want = data.load_task(saved)
        path = saved / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", *lines[1:], "  "]) + "\n\n")
        assert data.load_task(saved) == want

    def test_truncated_line_names_file_and_line(self, saved):
        path = saved / "dev_common.jsonl"
        path.write_text(path.read_text()[:40])
        with pytest.raises(ValueError, match=r"dev_common[.]jsonl:1: "):
            data.load_task(saved)

    @pytest.mark.parametrize("edit,what", [
        (_drop("marker"), "'marker'"),
        (lambda m: {**m, "rare_words": "9"}, "'rare_words'"),
        (lambda m: {**m, "codebook": {**m["codebook"], "0": "ab"}}, "'0'"),
        (lambda m: {**m, "twins": {"x": 1}}, "invalid literal"),
        (lambda m: {**m, "config": {**m["config"], "vocab": 12}}, "builds no TaskConfig"),
        (lambda m: {**m, "config": {**m["config"], "rare_count": 6}}, "builds no TaskConfig"),
        (lambda m: {**m, "config": {**m["config"], "vocab_size": "12"}}, "builds no TaskConfig"),
    ], ids=["no-marker", "string-rare-words", "string-code", "non-integer-twin",
            "unknown-config-key", "config-check", "string-config-value"])
    def test_bad_manifest_names_the_manifest(self, saved, edit, what):
        path = saved / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=f"manifest[.]json: .*{what}"):
            data.load_task(saved)

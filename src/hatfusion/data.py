"""Synthetic rare-word recognition task.

Words are integer ids. Each word maps to a fixed-length code over a small
acoustic-symbol alphabet; utterance acoustics are the concatenated codes
with independent symbol-flip noise. A designated set of rare words is kept
out of the base sentence draw and injected explicitly, pinning each rare
word's paired training count to a small configured value.

Every rare word gets two handles the fusion methods can grab:
  - a common "twin" whose code differs in exactly one symbol, making the
    pair acoustically confusable under noise, and
  - a shared marker word that immediately precedes every rare occurrence,
    so a model of the text-only corpus predicts rare words strongly in
    that context.
The marker appears nowhere else: the common splits contain neither rare
words nor the marker, which keeps the rare-word signal from leaking into
sentences where it would only mislead.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .hat import Utterance, check_field_types, check_keys, read_jsonl
from .mwer import nwe


@dataclass
class TaskConfig:
    vocab_size: int = 40
    rare_count: int = 8
    train_size: int = 600
    dev_size: int = 100
    test_size: int = 200
    text_only_size: int = 5000
    noise_rate: float = 0.15
    min_words: int = 2
    max_words: int = 6
    rare_train_max: int = 4
    acoustic_symbols: int = 12
    code_len: int = 2
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.rare_count >= self.vocab_size // 2:
            raise ValueError(
                f"need at least twice as many words as rare words, got "
                f"{self.vocab_size} words for {self.rare_count} rare"
            )
        if not 0 <= self.noise_rate < 1:
            raise ValueError(f"noise rate must be in [0, 1), got {self.noise_rate}")
        if self.min_words < 2 or self.max_words < self.min_words:
            raise ValueError("need sentences of at least 2 words")
        if self.acoustic_symbols**self.code_len < self.vocab_size:
            raise ValueError("codebook alphabet too small for the vocabulary")
        if min(self.train_size, self.dev_size, self.test_size, self.text_only_size) < 1:
            raise ValueError("all split sizes must be positive")
        if self.rare_train_max < 1:
            raise ValueError("rare words need at least one paired occurrence")
        if self.rare_count * self.rare_train_max > self.train_size:
            raise ValueError(
                "train split too small to hold every rare injection in a "
                "distinct sentence"
            )


@dataclass
class SynthTask:
    config: TaskConfig
    codebook: dict
    rare_words: list
    twins: dict
    marker: int
    train: list
    dev_common: list
    dev_rare: list
    test_common: list
    test_rare: list
    text_only: list


def _rng_for(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(stream.encode(), "big")])


def _build_codebook(cfg: TaskConfig, rng) -> tuple:
    """Distinct codes; each rare code is a one-symbol mutation of its twin's.

    Word ids: 0..n_base-1 are ordinary common words, n_base is the marker,
    and the top rare_count ids are the rare words.
    """
    n_common = cfg.vocab_size - cfg.rare_count
    n_base = n_common - 1
    used = set()
    codes = {}
    for w in range(n_common):
        while True:
            c = tuple(rng.integers(0, cfg.acoustic_symbols, size=cfg.code_len))
            if c not in used:
                used.add(c)
                codes[w] = c
                break
    rare = list(range(n_common, cfg.vocab_size))
    twins = {}
    for i, w in enumerate(rare):
        twin = i % n_base  # never the marker
        twins[w] = twin
        while True:
            c = list(codes[twin])
            pos = int(rng.integers(0, cfg.code_len))
            alt = int(rng.integers(0, cfg.acoustic_symbols - 1))
            c[pos] = alt if alt < c[pos] else alt + 1
            c = tuple(c)
            if c not in used:
                used.add(c)
                codes[w] = c
                break
    return codes, rare, twins


def _base_sentence(cfg: TaskConfig, rng, n_base: int) -> list:
    n = int(rng.integers(cfg.min_words, cfg.max_words + 1))
    return list(map(int, rng.integers(0, n_base, size=n)))


def _inject_rare(sentence: list, word: int, marker: int, rng) -> None:
    pos = int(rng.integers(0, len(sentence) - 1))
    sentence[pos] = marker
    sentence[pos + 1] = word


def render_acoustics(words, codebook: dict, noise_rate: float, rng) -> list:
    """Concatenated word codes with independent symbol flips."""
    symbols = [s for w in words for s in codebook[w]]
    if noise_rate > 0:
        n_alpha = 1 + max(max(c) for c in codebook.values())
        for i, s in enumerate(symbols):
            if rng.random() < noise_rate:
                alt = int(rng.integers(0, n_alpha - 1))
                symbols[i] = alt if alt < s else alt + 1
    return [int(s) for s in symbols]


def invert_acoustics(symbols, codebook: dict) -> list:
    """Table-lookup decode of noiseless acoustics; the 0% WER ceiling."""
    code_len = len(next(iter(codebook.values())))
    if len(symbols) % code_len != 0:
        raise ValueError("acoustic length is not a multiple of the code length")
    inverse = {tuple(c): w for w, c in codebook.items()}
    out = []
    for i in range(0, len(symbols), code_len):
        chunk = tuple(symbols[i : i + code_len])
        if chunk not in inverse:
            raise ValueError(f"no word has code {chunk}")
        out.append(inverse[chunk])
    return out


def generate_task(cfg: TaskConfig) -> SynthTask:
    n_common = cfg.vocab_size - cfg.rare_count
    n_base = n_common - 1
    marker = n_base
    codes, rare, twins = _build_codebook(cfg, _rng_for(cfg.seed, "codebook"))

    def paired(stream: str, size: int, rare_mode: str) -> list:
        rng = _rng_for(cfg.seed, stream)
        sentences = [_base_sentence(cfg, rng, n_base) for _ in range(size)]
        if rare_mode == "train":
            # exactly rare_train_max occurrences each, in distinct sentences
            slots = list(rng.permutation(size))
            for w in rare:
                for _ in range(cfg.rare_train_max):
                    if not slots:
                        raise ValueError("train split too small for rare injections")
                    _inject_rare(sentences[slots.pop()], w, marker, rng)
        elif rare_mode == "every":
            for s in sentences:
                w = rare[int(rng.integers(0, len(rare)))]
                _inject_rare(s, w, marker, rng)
        return [
            Utterance(
                uid=f"{stream}-{i:04d}",
                acoustics=render_acoustics(s, codes, cfg.noise_rate, rng),
                reference=s,
            )
            for i, s in enumerate(sentences)
        ]

    text_rng = _rng_for(cfg.seed, "text")
    text_only = []
    for _ in range(cfg.text_only_size):
        s = _base_sentence(cfg, text_rng, n_base)
        if text_rng.random() < 0.5:
            w = rare[int(text_rng.integers(0, len(rare)))]
            _inject_rare(s, w, marker, text_rng)
        text_only.append(s)

    return SynthTask(
        config=cfg,
        codebook=codes,
        rare_words=rare,
        twins=twins,
        marker=marker,
        train=paired("train", cfg.train_size, "train"),
        dev_common=paired("dev-common", cfg.dev_size, "none"),
        dev_rare=paired("dev-rare", cfg.dev_size, "every"),
        test_common=paired("test-common", cfg.test_size, "none"),
        test_rare=paired("test-rare", cfg.test_size, "every"),
        text_only=text_only,
    )


def rare_train_counts(task: SynthTask) -> dict:
    counts = {w: 0 for w in task.rare_words}
    for utt in task.train:
        for w in utt.reference:
            if w in counts:
                counts[w] += 1
    return counts


def wer(hypotheses, references) -> float:
    """Corpus-level word error rate: 100 * total edits / total reference words."""
    hypotheses, references = list(hypotheses), list(references)
    if len(hypotheses) != len(references):
        raise ValueError(
            f"wer: got {len(hypotheses)} hypotheses for {len(references)} references"
        )
    ref_words = sum(len(list(r)) for r in references)
    if ref_words == 0:
        raise ValueError("wer: no reference words")
    edits = sum(nwe(h, r) for h, r in zip(hypotheses, references))
    return 100.0 * edits / ref_words


# -- persistence --------------------------------------------------------------

_PAIRED_SPLITS = ("train", "dev_common", "dev_rare", "test_common", "test_rare")


def save_task(task: SynthTask, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": asdict(task.config),
        "codebook": {str(w): list(map(int, c)) for w, c in task.codebook.items()},
        "rare_words": task.rare_words,
        "twins": {str(w): t for w, t in task.twins.items()},
        "marker": task.marker,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    for split in _PAIRED_SPLITS:
        with open(directory / f"{split}.jsonl", "w") as f:
            for u in getattr(task, split):
                f.write(json.dumps({"uid": u.uid, "acoustics": u.acoustics,
                                    "words": u.reference}) + "\n")
    with open(directory / "text_only.jsonl", "w") as f:
        for i, s in enumerate(task.text_only):
            f.write(json.dumps({"uid": f"text-{i:05d}", "words": s}) + "\n")


# the keys of a split line, a text-only line and the manifest
_UTT_KEYS = {"uid": (str,), "acoustics": [(int,)], "words": [(int,)]}
_TEXT_KEYS = {"uid": (str,), "words": [(int,)]}
_MANIFEST_KEYS = {"config": (dict,), "codebook": (dict,), "rare_words": [(int,)],
                  "twins": (dict,), "marker": (int,)}


def _manifest(path: Path) -> dict:
    """The manifest's fields, built; a key off the schema or a ``config``
    that builds no ``TaskConfig`` raises ``ValueError`` naming the file."""
    try:
        m = json.loads(path.read_text())
        check_keys(m, _MANIFEST_KEYS)
        check_keys(m["codebook"], dict.fromkeys(m["codebook"], [(int,)]))
        check_keys(m["twins"], dict.fromkeys(m["twins"], (int,)))
        try:
            config = TaskConfig(**m["config"])
        except (TypeError, ValueError) as e:
            raise ValueError(f"'config' builds no TaskConfig: {e}") from None
        return dict(config=config, rare_words=m["rare_words"], marker=m["marker"],
                    codebook={int(w): tuple(c) for w, c in m["codebook"].items()},
                    twins={int(w): t for w, t in m["twins"].items()})
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def load_task(directory) -> SynthTask:
    """Read a task written by ``save_task``. A line of a split file or of
    ``text_only.jsonl`` off the schema raises ``ValueError`` naming the file
    and line, and a bad manifest one naming ``manifest.json``."""
    directory = Path(directory)
    manifest = _manifest(directory / "manifest.json")
    splits = {split: [Utterance(r["uid"], r["acoustics"], r["words"])
                      for _, r in read_jsonl(directory / f"{split}.jsonl", _UTT_KEYS)]
              for split in _PAIRED_SPLITS}
    text_only = [r["words"] for _, r in read_jsonl(directory / "text_only.jsonl", _TEXT_KEYS)]
    return SynthTask(text_only=text_only, **manifest, **splits)

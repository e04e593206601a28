"""External language model: an add-k smoothed n-gram over label ids.

The vocabulary is the recognizer's labels 0..V-1, so a token is its own
index into every next-token distribution; ``train_ngram`` and ``load_lm``
refuse any other vocabulary. Contexts are padded with ``<s>``, and there is
no sentence-end event: each distribution normalizes over the labels alone.
Fusion and rescoring read the model through one incremental interface
(initial_state / advance_state / next_token_logprobs, and score_tokens for
whole sequences). Fusion needs smoothing > 0: without it an unseen token
scores -inf, and a zero fusion weight times -inf is NaN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BOS = "<s>"


@dataclass
class LmScore:
    per_token: np.ndarray
    total: float


@dataclass
class NGramLm:
    order: int
    smoothing: float
    vocab_size: int
    counts: dict
    context_totals: dict
    _dists: dict = field(default_factory=dict, repr=False)

    def context_dist(self, ctx: tuple) -> np.ndarray:
        """Log-probs over the labels for one context, cached."""
        cached = self._dists.get(ctx)
        if cached is not None:
            return cached
        v = self.vocab_size
        k = self.smoothing
        num = np.full(v, k)
        table = self.counts.get(ctx)
        if table:
            for tok, c in table.items():
                num[tok] += c
        tot = self.context_totals.get(ctx, 0) + k * v
        if tot == 0.0:
            dist = np.full(v, -np.log(v))
        else:
            with np.errstate(divide="ignore"):
                dist = np.log(num) - np.log(tot)
        self._dists[ctx] = dist
        return dist


@dataclass
class LmState:
    """Incremental scoring state: the last order - 1 tokens."""

    context: tuple = ()


def require_smoothing(smoothing: float) -> None:
    """Fusion and rescoring need finite log-probs, so add-k needs k > 0."""
    if not smoothing > 0:
        raise ValueError(f"external LM needs smoothing > 0 for finite scores, got {smoothing}")


def _label_count(vocab) -> int:
    vocab = list(vocab)
    if vocab != list(range(len(vocab))):
        raise ValueError("external LM vocabulary must be the label ids 0..V-1 in order")
    return len(vocab)


def _check_label(token, v: int) -> None:
    if not 0 <= token < v:
        raise ValueError(f"token {token!r} not in vocabulary 0..{v - 1}")


def train_ngram(corpus, order: int, smoothing: float = 0.1, *, vocab) -> NGramLm:
    if order < 1:
        raise ValueError(f"n-gram order must be >= 1, got {order}")
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    v = _label_count(vocab)
    counts: dict = {}
    totals: dict = {}
    pad = (BOS,) * (order - 1)
    for sentence in corpus:
        ctx = pad
        for tok in sentence:
            _check_label(tok, v)
            counts.setdefault(ctx, {})
            counts[ctx][tok] = counts[ctx].get(tok, 0) + 1
            totals[ctx] = totals.get(ctx, 0) + 1
            if order > 1:
                ctx = (ctx + (tok,))[-(order - 1):]
    return NGramLm(order=order, smoothing=float(smoothing), vocab_size=v,
                   counts=counts, context_totals=totals)


def initial_state(lm: NGramLm) -> LmState:
    return LmState(context=(BOS,) * (lm.order - 1))


def next_token_logprobs(lm: NGramLm, state: LmState) -> np.ndarray:
    """Log-probs over the labels 0..V-1 for the next token."""
    return lm.context_dist(state.context)


def advance_state(lm: NGramLm, state: LmState, token) -> tuple[LmState, float]:
    _check_label(token, lm.vocab_size)
    logp = float(next_token_logprobs(lm, state)[token])
    new = LmState(context=(state.context + (token,))[-(lm.order - 1):] if lm.order > 1 else ())
    return new, logp


def score_tokens(lm: NGramLm, tokens) -> LmScore:
    """Per-token log-probs r_l and their sum."""
    state = initial_state(lm)
    per = np.empty(len(tokens))
    for i, tok in enumerate(tokens):
        state, per[i] = advance_state(lm, state, tok)
    return LmScore(per_token=per, total=float(np.sum(per)))


# -- persistence ------------------------------------------------------------


def save_lm(lm: NGramLm, path) -> None:
    meta = {"order": lm.order, "smoothing": lm.smoothing, "vocab": list(range(lm.vocab_size))}
    lines = ["ngram-lm v1", json.dumps(meta)]
    for ctx in sorted(lm.counts, key=repr):
        for tok in sorted(lm.counts[ctx], key=repr):
            lines.append(json.dumps([list(ctx), tok, lm.counts[ctx][tok]]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_lm(path) -> NGramLm:
    """Read an ``ngram-lm v1`` file; sentence-end lines of older files are skipped."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no LM at {path}")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "ngram-lm v1":
        raise ValueError(f"unrecognized LM file {path}")
    meta = json.loads(lines[1])
    v = _label_count(meta["vocab"])
    counts: dict = {}
    totals: dict = {}
    for line in lines[2:]:
        if not line.strip():
            continue
        ctx_l, tok, c = json.loads(line)
        if tok is None:
            continue
        _check_label(tok, v)
        ctx = tuple(ctx_l)
        counts.setdefault(ctx, {})[tok] = c
        totals[ctx] = totals.get(ctx, 0) + c
    return NGramLm(order=meta["order"], smoothing=meta["smoothing"], vocab_size=v,
                   counts=counts, context_totals=totals)

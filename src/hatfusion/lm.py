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

from .hat import read_jsonl

BOS = "<s>"


@dataclass
class NGramLm:
    order: int
    smoothing: float
    vocab_size: int
    counts: dict
    _dists: dict = field(default_factory=dict, repr=False)

    def context_dist(self, ctx: tuple) -> np.ndarray:
        """Log-probs over the labels for one context, cached; the context's
        total is the sum of its counts, taken here once."""
        cached = self._dists.get(ctx)
        if cached is not None:
            return cached
        v = self.vocab_size
        k = self.smoothing
        num = np.full(v, k)
        table = self.counts.get(ctx, {})
        for tok, c in table.items():
            num[tok] += c
        tot = sum(table.values()) + k * v
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
    if type(order) is not int or order < 1:  # a bool is no order
        raise ValueError(f"n-gram order must be an integer >= 1, got {order!r}")
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    v = _label_count(vocab)
    counts: dict = {}
    pad = (BOS,) * (order - 1)
    for sentence in corpus:
        ctx = pad
        for tok in sentence:
            _check_label(tok, v)
            counts.setdefault(ctx, {})
            counts[ctx][tok] = counts[ctx].get(tok, 0) + 1
            if order > 1:
                ctx = (ctx + (tok,))[-(order - 1):]
    return NGramLm(order=order, smoothing=float(smoothing), vocab_size=v, counts=counts)


def initial_state(lm: NGramLm) -> LmState:
    return LmState(context=(BOS,) * (lm.order - 1))


def next_token_logprobs(lm: NGramLm, state: LmState) -> np.ndarray:
    """Log-probs over the labels 0..V-1 for the next token."""
    return lm.context_dist(state.context)


def advance_state(lm: NGramLm, state: LmState, token, dist=None) -> tuple[LmState, float]:
    """The state after ``token`` and the token's log-prob. A caller that
    already holds the distribution at ``state`` passes it as ``dist`` and
    spares the query."""
    _check_label(token, lm.vocab_size)
    if dist is None:
        dist = next_token_logprobs(lm, state)
    logp = float(dist[token])
    new = LmState(context=(state.context + (token,))[-(lm.order - 1):] if lm.order > 1 else ())
    return new, logp


def score_tokens(lm: NGramLm, tokens) -> np.ndarray:
    """Per-token log-probs r_l of ``tokens``: (U,)."""
    state = initial_state(lm)
    per = np.empty(len(tokens))
    for i, tok in enumerate(tokens):
        state, per[i] = advance_state(lm, state, tok)
    return per


# -- persistence ------------------------------------------------------------


def save_lm(lm: NGramLm, path) -> None:
    meta = {"order": lm.order, "smoothing": lm.smoothing, "vocab": list(range(lm.vocab_size))}
    lines = ["ngram-lm v1", json.dumps(meta)]
    for ctx in sorted(lm.counts, key=repr):
        for tok in sorted(lm.counts[ctx], key=repr):
            lines.append(json.dumps([list(ctx), tok, lm.counts[ctx][tok]]))
    Path(path).write_text("\n".join(lines) + "\n")


def _check_header(meta) -> None:
    if type(meta) is not dict:
        raise ValueError("the header is not a JSON object")
    if type(meta.get("order")) is not int or meta["order"] < 1:
        raise ValueError("'order' is missing or not an integer >= 1")
    if type(meta.get("smoothing")) not in (int, float) or not 0 <= meta["smoothing"] < np.inf:
        raise ValueError("'smoothing' is missing or not a finite number >= 0")
    if type(meta.get("vocab")) is not list:
        raise ValueError("'vocab' is missing or not a list")


def _count_line(rec, v: int, order: int) -> tuple:
    """(context, token, count) of one count line; the token is None on the
    sentence-end lines of older files. A context no query can reach (the
    wrong length, a label out of range, ``<s>`` anywhere but the leading
    pads) is refused rather than kept dead."""
    if (type(rec) is not list or len(rec) != 3 or type(rec[0]) is not list
            or not all(type(c) in (int, str) for c in rec[0])):
        raise ValueError("a count line must be a [context, token, count] triple")
    ctx, tok, c = rec
    if len(ctx) != order - 1:
        raise ValueError(f"context {ctx} is not {order - 1} long, as order {order} reads it")
    pads = ctx.count(BOS)
    if ctx[:pads] != [BOS] * pads or not all(type(x) is int and 0 <= x < v for x in ctx[pads:]):
        raise ValueError(f"context {ctx} holds more than leading {BOS!r} pads and labels "
                         f"0..{v - 1}")
    if tok is not None:
        if type(tok) is not int:
            raise ValueError(f"token {tok!r} not in vocabulary 0..{v - 1}")
        _check_label(tok, v)
        if type(c) is not int or c < 0:
            raise ValueError(f"count {c!r} is not an integer >= 0")
    return tuple(ctx), tok, c


def load_lm(path) -> NGramLm:
    """Read an ``ngram-lm v1`` file; sentence-end lines of older files are
    skipped. A header or count line off the schema, or a second count for
    one (context, token), raises ``ValueError`` naming the file and line."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no LM at {path}")
    with path.open() as f:
        if f.readline().rstrip("\r\n") != "ngram-lm v1":
            raise ValueError(f"unrecognized LM file {path}")
    meta: dict = {}  # the header, read from the first line after the tag
    counts: dict = {}

    def line(rec) -> None:
        if not meta:
            _check_header(rec)
            meta.update(rec, vocab_size=_label_count(rec["vocab"]))
            return
        ctx, tok, c = _count_line(rec, meta["vocab_size"], meta["order"])
        if tok in counts.get(ctx, {}):
            raise ValueError(f"duplicate count for token {tok} after context {list(ctx)}")
        if tok is not None:
            counts.setdefault(ctx, {})[tok] = c

    read_jsonl(path, build=line, start=2)
    if not meta:
        raise ValueError(f"{path}:2: no header line")
    return NGramLm(order=meta["order"], smoothing=meta["smoothing"],
                   vocab_size=meta["vocab_size"], counts=counts)

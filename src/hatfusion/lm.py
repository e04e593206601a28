"""External language model: an add-k smoothed n-gram.

Fusion and rescoring read it through one incremental interface
(initial_state / advance_state / next_token_logprobs, and score_tokens for
whole sequences). The next-token distribution normalizes over the
vocabulary alone; sentence end is modeled as a separate stop event so the
optional EOS term does not disturb per-token normalization. Fusion needs
smoothing > 0: without it an unseen token scores -inf, and a zero fusion
weight times -inf is NaN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BOS = "<s>"
UNK = "<unk>"
_RESERVED = {BOS, UNK}


@dataclass
class LmScore:
    per_token: np.ndarray
    eos: float
    total: float


@dataclass
class NGramLm:
    order: int
    smoothing: float
    vocab: list
    counts: dict
    eos_counts: dict
    context_totals: dict
    has_unk: bool
    _index: dict = field(default_factory=dict, repr=False)
    _dists: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {tok: i for i, tok in enumerate(self.vocab)}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def token_index(self, token) -> int:
        idx = self._index.get(token)
        if idx is None:
            if not self.has_unk:
                raise ValueError(f"token {token!r} not in vocabulary and no {UNK!r} entry")
            idx = self._index[UNK]
        return idx

    def context_dist(self, ctx: tuple) -> np.ndarray:
        """Log-probs over the vocabulary for one context, cached."""
        cached = self._dists.get(ctx)
        if cached is not None:
            return cached
        v = self.vocab_size
        k = self.smoothing
        num = np.full(v, k)
        table = self.counts.get(ctx)
        if table:
            for tok, c in table.items():
                num[self._index[tok]] += c
        tot = self.context_totals.get(ctx, 0) + k * v
        if tot == 0.0:
            dist = np.full(v, -np.log(v))
        else:
            with np.errstate(divide="ignore"):
                dist = np.log(num) - np.log(tot)
        self._dists[ctx] = dist
        return dist

    def stop_logprob(self, ctx: tuple) -> float:
        """Log-prob of the sentence ending after this context (add-k Bernoulli)."""
        k = self.smoothing
        stop = self.eos_counts.get(ctx, 0)
        go = self.context_totals.get(ctx, 0)
        denom = stop + go + 2 * k
        if denom == 0.0:
            return float(np.log(0.5))
        with np.errstate(divide="ignore"):
            return float(np.log(stop + k) - np.log(denom))


@dataclass
class LmState:
    """Incremental scoring state: the last order - 1 tokens."""

    context: tuple = ()


def _as_tokens(sentence):
    return sentence.split() if isinstance(sentence, str) else list(sentence)


def require_smoothing(smoothing: float) -> None:
    """Fusion and rescoring need finite log-probs, so add-k needs k > 0."""
    if not smoothing > 0:
        raise ValueError(f"external LM needs smoothing > 0 for finite scores, got {smoothing}")


def train_ngram(corpus, order: int, smoothing: float = 0.1, vocab=None) -> NGramLm:
    if order < 1:
        raise ValueError(f"n-gram order must be >= 1, got {order}")
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    sentences = [_as_tokens(s) for s in corpus]
    if not sentences:
        raise ValueError("empty corpus")
    if vocab is None:
        seen = {}
        for s in sentences:
            for tok in s:
                if tok in _RESERVED:
                    raise ValueError(f"corpus token {tok!r} collides with a reserved marker")
                seen.setdefault(tok, None)
        vocab = list(seen) + [UNK]
    else:
        vocab = list(vocab)
    has_unk = UNK in vocab
    index = set(vocab)

    counts: dict = {}
    eos_counts: dict = {}
    totals: dict = {}
    pad = (BOS,) * (order - 1)
    for s in sentences:
        toks = [t if t in index else UNK for t in s] if has_unk else s
        ctx = pad
        for tok in toks:
            if tok not in index:
                raise ValueError(f"token {tok!r} outside the explicit vocabulary")
            counts.setdefault(ctx, {})
            counts[ctx][tok] = counts[ctx].get(tok, 0) + 1
            totals[ctx] = totals.get(ctx, 0) + 1
            if order > 1:
                ctx = (ctx + (tok,))[-(order - 1):]
        eos_counts[ctx] = eos_counts.get(ctx, 0) + 1
    return NGramLm(
        order=order,
        smoothing=float(smoothing),
        vocab=vocab,
        counts=counts,
        eos_counts=eos_counts,
        context_totals=totals,
        has_unk=has_unk,
    )


def initial_state(lm: NGramLm) -> LmState:
    return LmState(context=(BOS,) * (lm.order - 1))


def next_token_logprobs(lm: NGramLm, state: LmState) -> np.ndarray:
    """Log-probs over lm.vocab for the next token (EOS mass excluded)."""
    return lm.context_dist(state.context)


def eos_logprob(lm: NGramLm, state: LmState) -> float:
    return lm.stop_logprob(state.context)


def advance_state(lm: NGramLm, state: LmState, token) -> tuple[LmState, float]:
    idx = lm.token_index(token)
    logp = float(next_token_logprobs(lm, state)[idx])
    tok = lm.vocab[idx]
    new = LmState(context=(state.context + (tok,))[-(lm.order - 1):] if lm.order > 1 else ())
    return new, logp


def score_tokens(lm: NGramLm, tokens, with_eos: bool = False) -> LmScore:
    """Per-token log-probs r_l plus the optional sentence-end term."""
    state = initial_state(lm)
    toks = _as_tokens(tokens)
    per = np.empty(len(toks))
    for i, tok in enumerate(toks):
        state, per[i] = advance_state(lm, state, tok)
    eos = eos_logprob(lm, state)
    total = float(np.sum(per)) + (eos if with_eos else 0.0)
    return LmScore(per_token=per, eos=eos, total=total)


# -- persistence ------------------------------------------------------------


def save_lm(lm: NGramLm, path) -> None:
    lines = ["ngram-lm v1"]
    lines.append(
        json.dumps(
            {
                "order": lm.order,
                "smoothing": lm.smoothing,
                "vocab": lm.vocab,
                "has_unk": lm.has_unk,
            }
        )
    )
    for ctx in sorted(lm.counts, key=repr):
        for tok in sorted(lm.counts[ctx], key=repr):
            lines.append(json.dumps([list(ctx), tok, lm.counts[ctx][tok]]))
    for ctx in sorted(lm.eos_counts, key=repr):
        lines.append(json.dumps([list(ctx), None, lm.eos_counts[ctx]]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_lm(path) -> NGramLm:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no LM at {path}")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "ngram-lm v1":
        raise ValueError(f"unrecognized LM file {path}")
    meta = json.loads(lines[1])
    counts: dict = {}
    eos_counts: dict = {}
    totals: dict = {}
    for line in lines[2:]:
        if not line.strip():
            continue
        ctx_l, tok, c = json.loads(line)
        ctx = tuple(ctx_l)
        if tok is None:
            eos_counts[ctx] = c
        else:
            counts.setdefault(ctx, {})[tok] = c
            totals[ctx] = totals.get(ctx, 0) + c
    return NGramLm(
        order=meta["order"],
        smoothing=meta["smoothing"],
        vocab=meta["vocab"],
        counts=counts,
        eos_counts=eos_counts,
        context_totals=totals,
        has_unk=meta["has_unk"],
    )

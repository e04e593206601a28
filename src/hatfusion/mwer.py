"""Expected word-error objective over N-best lists.

The discriminative loss renormalizes exact sequence scores over the decoded
top-K,

    log p_k = (e2e_k - mu * sum(s_l) + nu * sum(r_l)) + C,

and minimizes sum_k p_k * NWE(Y_k, Y*) plus a small MLE anchor on the
reference. Word-error counts come from a unit-cost Levenshtein distance.
The tensor path recomputes e2e and ILM scores on tape so gradients reach
model parameters; ELM scores enter as constants (the external LM is frozen).
A training step's lists are one graph (``composite_batch_loss``): one
encoder recurrence over the batch's utterances and one lattice sweep over
every list's hypotheses and reference, whose shared prefixes are built once
per utterance; ``composite_loss`` is its batch of one.

The expectation itself, Σ_k p_k · NWE_k per list, has one batched form,
``batch_expected_errors``: a batch's lists as one (B, K_max) block, padded
cells at -inf, each row renormalized on its own. The MWER loss and the
fusion-module loss (``lfm.lfm_loss``) both end in it.

There is one objective. Regular MWER (Prabhavalkar et al., 2018) is its
mu = nu = 0 case: both LM terms are then exact zeros, so loss and gradients
equal those built from the e2e scores alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .decode import NBestList
from .hat import HatModel, Utterance, check_field_types


@dataclass
class MwerConfig:
    mu: float = 0.0
    nu: float = 0.0
    theta: float = 0.005

    def __post_init__(self):
        check_field_types(self)
        if self.mu < 0 or self.nu < 0 or self.theta < 0:
            raise ValueError("mwer weights must be nonnegative")


@dataclass
class TopKPosterior:
    log_phat: np.ndarray
    normalizer: float

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_phat)


def nwe(hypothesis, reference) -> int:
    """Word-level edit distance with unit substitution/insertion/deletion."""
    a, b = list(hypothesis), list(reference)
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def _lse(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + float(np.log(np.sum(np.exp(x - m))))


def _raw_scores(nbest: NBestList, mu: float, nu: float) -> np.ndarray:
    if not nbest.hyps:
        raise ValueError("renormalize: empty hypothesis list")
    for h in nbest.hyps:
        if h.e2e_fullsum is None:
            raise ValueError("renormalize: exact full-sum scores missing; rescore first")
    return np.array(
        [
            (h.e2e_fullsum - mu * float(np.sum(h.ilm_scores)))
            + nu * float(np.sum(h.elm_scores))
            for h in nbest.hyps
        ]
    )


def renormalize(nbest: NBestList, mu: float = 0.0, nu: float = 0.0) -> TopKPosterior:
    """Posterior over the decoded top-K from exact full-sum scores."""
    raw = _raw_scores(nbest, mu, nu)
    c = -_lse(raw)
    return TopKPosterior(log_phat=raw + c, normalizer=c)


def mwer_loss(posterior: TopKPosterior, nbest: NBestList, reference) -> float:
    """Expected number of word errors under the top-K posterior."""
    errors = np.array([nwe(h.tokens, reference) for h in nbest.hyps], dtype=float)
    return float(np.dot(posterior.probs, errors))


def expected_errors(nbest: NBestList, reference, mu: float = 0.0, nu: float = 0.0) -> float:
    return mwer_loss(renormalize(nbest, mu, nu), nbest, reference)


# -- differentiable path ------------------------------------------------------


def renormalized_expectation(raw: T.Tensor, errors) -> T.Tensor:
    """Σ softmax(raw)_k · errors_k; the shared core of every MWER-style loss."""
    log_phat = T.add(raw, T.scale(T.logsumexp(raw, axis=0), -1.0))
    return T.dot(T.exp(log_phat), T.constant(np.asarray(errors, dtype=float)))


def mwer_loss_scores(e2e: T.Tensor, errors, ilm: T.Tensor | None = None,
                     elm_totals=None, mu: float = 0.0, nu: float = 0.0) -> T.Tensor:
    """Σ p_k · NWE_k from score vectors; omit ilm/elm for the plain objective.

    ``e2e`` and ``ilm`` are (K,) tensors on tape; ``elm_totals`` is a constant
    vector.
    """
    raw = e2e
    if ilm is not None:
        raw = T.add(raw, T.scale(ilm, -float(mu)))
    if elm_totals is not None:
        raw = T.add(raw, T.constant(float(nu) * np.asarray(elm_totals, dtype=float)))
    return renormalized_expectation(raw, errors)


def batch_expected_errors(pairs: list, scores: T.Tensor, starts, constants) -> T.Tensor:
    """Σ_b Σ_k p_bk · NWE_bk over a batch of (utterance, N-best) pairs.

    ``scores`` is a flat tensor in which list b's hypotheses sit at
    ``starts[b]``, ``starts[b] + 1``, ...; ``constants`` adds one number
    per hypothesis, in list order, off tape. The raw scores are laid out one
    list per row of a (B, K_max) block; a padded cell gathers its list's
    first score and is set to -inf. Each row is renormalized over its own
    log-sum-exp: a padded hypothesis has probability exactly zero, so it
    adds nothing and gets exactly zero gradient. The real cells are
    contracted with their word errors in one ``dot``, so for one list this
    is ``mwer_loss_scores``' arithmetic bit for bit.
    """
    counts = np.array([len(nbest.hyps) for _, nbest in pairs])
    cols = np.arange(counts.max())
    real = cols < counts[:, None]  # row-major order is the lists' order
    index = np.asarray(starts)[:, None] + cols * real
    shift = np.full(real.shape, -np.inf)
    shift[real] = constants
    raw = T.add(scores[(index,)], T.constant(shift))
    log_phat = T.add(raw, T.scale(T.logsumexp(raw, axis=1), -1.0)[:, None])
    errors = [nwe(h.tokens, utterance.reference) for utterance, nbest in pairs
              for h in nbest.hyps]
    return T.dot(T.exp(log_phat)[np.nonzero(real)], T.constant(np.array(errors, dtype=float)))


def composite_batch_loss(pairs: list, model: HatModel, config: MwerConfig) -> T.Tensor:
    """Mean over (utterance, N-best) pairs of the MWER term plus
    -theta * log P(Y*|X), as one graph whatever the batch size.

    The utterances take one padded ``encode_batch``. Every list's
    hypotheses and its reference take one ``score_sequences`` sweep, each
    sequence against its own utterance's row and frame count, which yields
    the e2e and ILM totals together; e2e - mu * ILM is taken on that flat
    vector. The ELM totals are read off the hypotheses (empty arrays, as a
    plain search leaves them, sum to zero) and enter times nu as
    ``batch_expected_errors``' constants. A term weighted by zero is left
    out: at mu = 0 the sweep skips the ILM head, at nu = 0 the ELM totals
    are not read. Adding a zero changes no bit of the loss, and the
    gradients lose only exact-zero addends, so regular MWER records the
    tape of the e2e scores alone. An empty batch, or one holding an empty
    list, is refused.
    """
    if not pairs:
        raise ValueError("mwer loss: empty batch")
    for utterance, nbest in pairs:
        if not nbest.hyps:
            raise ValueError(f"mwer loss: empty hypothesis list for {utterance.uid!r}")
    counts = np.array([len(nbest.hyps) for _, nbest in pairs])
    seqs = [s for utterance, nbest in pairs
            for s in nbest.token_lists() + [list(utterance.reference)]]
    enc, frames = model.encode_batch([utterance.acoustics for utterance, _ in pairs])
    full, ilm = model.score_sequences(enc, seqs, with_ilm=config.mu != 0, frames=frames,
                                      rows=np.repeat(np.arange(len(pairs)), counts + 1))
    refs = np.cumsum(counts + 1) - 1
    scores = full if ilm is None else T.add(full, T.scale(ilm, -float(config.mu)))
    elm_totals = [float(config.nu) * float(np.sum(h.elm_scores)) if config.nu else 0.0
                  for _, nbest in pairs for h in nbest.hyps]
    term = batch_expected_errors(pairs, scores, refs - counts, elm_totals)
    anchor = T.dot(full[(refs,)], T.constant(np.full(len(pairs), -float(config.theta))))
    return T.scale(T.add(term, anchor), 1.0 / len(pairs))


def composite_loss(utterance: Utterance, nbest: NBestList, model: HatModel,
                   config: MwerConfig) -> T.Tensor:
    """MWER term plus -theta * log P(Y*|X) of one list: the batch of one of
    ``composite_batch_loss``."""
    return composite_batch_loss([(utterance, nbest)], model, config)

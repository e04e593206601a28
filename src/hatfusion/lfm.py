"""Learnable fusion: per-token LM weights from a small transformer.

The module reads hypothesis tokens through causal self-attention and the
utterance's encoder states through cross-attention, and emits a pair
(mu_l, nu_l) >= 0 per token through a softplus head. Rescoring applies

    score = e2e_fullsum - sum(mu_l * s_l) + sum(nu_l * r_l),

the per-token generalization of scalar fusion. Scalar rescoring and LFM
rescoring share one weighted-score path, so a constant-head module
reproduces scalar rescoring exactly, not just up to rounding.

The transformer is pre-norm: each sublayer adds its output to the residual
stream after layer normalization. Encoder states enter as constants; only
LFM parameters ever receive gradients here.

``prepare_rescoring`` is the one place that attaches the exact full sum and
the per-token ILM and ELM scores to a list; it leaves the search scores
alone, so a fused list still recombines to its stored ``combined``.
Rescoring and fusion-module training read those scores off the hypotheses
and never recompute them, so their lists must come from
``prepare_rescoring`` or ``hatfusion decode``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .decode import NBestList, rescore_components
from .hat import HatModel, Utterance
from .lm import require_smoothing, score_tokens
from .mwer import nwe, renormalized_expectation

# softplus(x) underflows to exactly 0.0 near -7e2; this preimage makes a
# "zero output" head genuinely zero rather than merely small
_ZERO_PREIMAGE = -1.0e3


@dataclass
class LfmConfig:
    vocab_size: int
    enc_dim: int
    model_dim: int = 16
    num_heads: int = 2
    num_layers: int = 2
    ffn_dim: int = 32
    nonnegative: bool = True

    def __post_init__(self):
        if self.model_dim % self.num_heads != 0:
            raise ValueError(
                f"model_dim {self.model_dim} not divisible by {self.num_heads} heads"
            )
        if min(self.vocab_size, self.enc_dim, self.model_dim, self.num_layers) < 1:
            raise ValueError("all size fields must be positive")


@dataclass
class WeightStats:
    mean_mu: float
    std_mu: float
    mean_nu: float
    std_nu: float
    token_count: int


def _inv_softplus(c: float) -> float:
    if c < 0:
        raise ValueError(f"nonnegative head cannot emit {c}")
    if c == 0.0:
        return _ZERO_PREIMAGE
    return float(np.log(np.expm1(c)))


def _positional_code(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    pe = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return pe


class LfmModel:
    def __init__(self, config: LfmConfig, seed: int = 0):
        self.config = config
        self.params = _init_params(config, seed)

    def _p(self, name: str) -> T.Tensor:
        return self.params[name]

    def _attend(self, x: T.Tensor, kv: T.Tensor, prefix: str, causal: bool) -> T.Tensor:
        q = T.matmul(x, self._p(prefix + "q"))
        k = T.matmul(kv, self._p(prefix + "k"))
        v = T.matmul(kv, self._p(prefix + "v"))
        dh = self.config.model_dim // self.config.num_heads
        heads = []
        for h in range(self.config.num_heads):
            s = slice(h * dh, (h + 1) * dh)
            heads.append(T.scaled_dot_attention(q[:, s], k[:, s], v[:, s], causal=causal))
        return T.matmul(T.concat(heads, axis=1), self._p(prefix + "o"))

    def _ln(self, x: T.Tensor, name: str) -> T.Tensor:
        return T.layer_normalize(x, self._p(name + "_g"), self._p(name + "_b"))

    def forward(self, enc_states: np.ndarray, tokens) -> T.Tensor:
        """Per-token weight pairs, (L, 2); column 0 is mu, column 1 is nu."""
        ids = np.asarray(list(tokens), dtype=np.int64)
        if ids.size == 0:
            return T.constant(np.zeros((0, 2)))
        if ids.size and (ids.min() < 0 or ids.max() >= self.config.vocab_size):
            raise ValueError("token id out of range for the fusion module")
        enc_states = np.asarray(enc_states, dtype=float)
        if enc_states.ndim != 2 or enc_states.shape[1] != self.config.enc_dim:
            raise ValueError(
                f"encoder states must be (T, {self.config.enc_dim}), got {enc_states.shape}"
            )
        x = T.add(
            T.embedding_lookup(self._p("emb"), ids),
            T.constant(_positional_code(ids.size, self.config.model_dim)),
        )
        encf = T.matmul(T.constant(enc_states), self._p("enc_in"))
        for i in range(self.config.num_layers):
            p = f"l{i}_"
            x = T.add(x, self._attend(self._ln(x, p + "ln1"), x, p + "s", causal=True))
            x = T.add(x, self._attend(self._ln(x, p + "ln2"), encf, p + "c", causal=False))
            y = self._ln(x, p + "ln3")
            y = T.tanh(T.add(T.matmul(y, self._p(p + "ffn_w1")), self._p(p + "ffn_b1")))
            x = T.add(x, T.add(T.matmul(y, self._p(p + "ffn_w2")), self._p(p + "ffn_b2")))
        out = T.add(T.matmul(self._ln(x, "ln_f"), self._p("head_w")), self._p("head_b"))
        return T.softplus(out) if self.config.nonnegative else out

    def set_constant_head(self, c_mu: float, c_nu: float) -> tuple:
        """Zero the head so every token gets the same weight pair.

        Returns the pair actually emitted, which can differ from the request
        by one rounding step through the nonnegativity map.
        """
        self._p("head_w").data[...] = 0.0
        if self.config.nonnegative:
            self._p("head_b").data[...] = [_inv_softplus(c_mu), _inv_softplus(c_nu)]
            achieved = np.logaddexp(0.0, self._p("head_b").data)
            return float(achieved[0]), float(achieved[1])
        self._p("head_b").data[...] = [c_mu, c_nu]
        return float(c_mu), float(c_nu)


def _init_params(cfg: LfmConfig, seed: int) -> T.ParamSet:
    rng = np.random.default_rng(seed)
    ps = T.ParamSet()

    def normal(*shape, scale):
        return rng.normal(0.0, scale, size=shape)

    d, f = cfg.model_dim, cfg.ffn_dim
    ps.add("emb", normal(cfg.vocab_size, d, scale=1.0))
    ps.add("enc_in", normal(cfg.enc_dim, d, scale=cfg.enc_dim**-0.5))
    for i in range(cfg.num_layers):
        p = f"l{i}_"
        for a in ("s", "c"):
            for m in ("q", "k", "v", "o"):
                ps.add(p + a + m, normal(d, d, scale=d**-0.5))
        for ln in ("ln1", "ln2", "ln3"):
            ps.add(p + ln + "_g", np.ones(d))
            ps.add(p + ln + "_b", np.zeros(d))
        ps.add(p + "ffn_w1", normal(d, f, scale=d**-0.5))
        ps.add(p + "ffn_b1", np.zeros(f))
        ps.add(p + "ffn_w2", normal(f, d, scale=f**-0.5))
        ps.add(p + "ffn_b2", np.zeros(d))
    ps.add("ln_f_g", np.ones(d))
    ps.add("ln_f_b", np.zeros(d))
    ps.add("head_w", normal(d, 2, scale=0.1 * d**-0.5))
    # start near mild fusion strength rather than at softplus(0) ~ 0.69
    ps.add("head_b", np.full(2, _inv_softplus(0.3)))
    return ps


def weighted_contribution(weights, scores) -> float:
    w = np.asarray(weights, dtype=float)
    s = np.asarray(scores, dtype=float)
    if w.shape != s.shape or w.ndim != 1:
        raise ValueError(f"weight/score length mismatch: {w.shape} vs {s.shape}")
    return float(np.dot(w, s))


def _weighted_score(e2e: float, mu_vec, s, nu_vec, r) -> float:
    return (e2e - weighted_contribution(mu_vec, s)) + weighted_contribution(nu_vec, r)


def _reranked(nbest: NBestList, scores: list) -> NBestList:
    hyps = [replace(h, combined=score) for h, score in zip(nbest.hyps, scores)]
    hyps.sort(key=lambda h: (-h.combined, h.tokens))
    return NBestList(nbest.uid, list(nbest.reference), hyps, nbest.ilm_weight, nbest.elm_weight)


def _require_lm_free(nbest: NBestList) -> None:
    if nbest.ilm_weight != 0.0 or nbest.elm_weight != 0.0:
        raise ValueError("rescoring expects hypotheses decoded without LM fusion")
    for h in nbest.hyps:
        if h.e2e_fullsum is None:
            raise ValueError("rescoring needs exact full-sum scores; rescore first")


def prepare_rescoring(utterance: Utterance, nbest: NBestList, hat: HatModel, elm) -> NBestList:
    """Attach full-sum, ILM, and ELM scores once; sweeps then only re-rank."""
    require_smoothing(elm.smoothing)
    out = rescore_components(nbest, hat, utterance)
    hyps = []
    for h in out.hyps:
        toks = list(h.tokens)
        hyps.append(replace(h, ilm_scores=hat.internal_lm_log_prob(toks).per_token,
                            elm_scores=score_tokens(elm, toks).per_token))
    return replace(out, hyps=hyps)


def rescore_scalar(nbest: NBestList, mu: float, nu: float) -> NBestList:
    """Re-rank by constant fusion weights using the attached per-token scores."""
    _require_lm_free(nbest)
    scores = []
    for h in nbest.hyps:
        n = len(h.tokens)
        scores.append(_weighted_score(h.e2e_fullsum, np.full(n, float(mu)), h.ilm_scores,
                                      np.full(n, float(nu)), h.elm_scores))
    return _reranked(nbest, scores)


def rescore_with_lfm(utterance: Utterance, nbest: NBestList, hat: HatModel, elm,
                     lfm: LfmModel) -> NBestList:
    """Re-rank with per-token weights from the fusion module.

    The per-token scores are read off the prepared list; ``hat`` only
    encodes the utterance, and ``elm`` is unused.
    """
    _require_lm_free(nbest)
    enc = hat.encode_np(utterance.acoustics)
    scores = []
    for h in nbest.hyps:
        w = lfm.forward(enc, h.tokens).data
        scores.append(_weighted_score(h.e2e_fullsum, w[:, 0], h.ilm_scores,
                                      w[:, 1], h.elm_scores))
    return _reranked(nbest, scores)


def _freeze_batch(batch: list, hat: HatModel) -> list:
    """Frozen-model scores are plain numbers; gather them before taping."""
    prepared = []
    for utterance, nbest in batch:
        _require_lm_free(nbest)
        if not nbest.hyps:
            continue
        reference = list(utterance.reference)
        prepared.append(
            (
                hat.encode_np(utterance.acoustics),
                [nwe(h.tokens, reference) for h in nbest.hyps],
                np.array([h.e2e_fullsum for h in nbest.hyps]),
                nbest.hyps,
            )
        )
    return prepared


def lfm_loss(batch: list, hat: HatModel, lfm: LfmModel) -> T.Tensor:
    """Mean expected word errors over the batch, with per-token weights.

    Raw score per hypothesis: e2e_fullsum - Σ mu_l s_l + Σ nu_l r_l. Only
    the weights are tensor-valued; the scores are read off the prepared
    lists as constants. ``hat`` only encodes the utterances.
    """
    if not batch:
        raise ValueError("lfm loss: empty batch")
    prepared = _freeze_batch(batch, hat)
    if not prepared:
        raise ValueError("lfm loss: every list in the batch was empty")
    per_utt = []
    for enc, errors, e2e, hyps in prepared:
        parts = []
        for h in hyps:
            w = lfm.forward(enc, h.tokens)
            contrib = T.add(
                T.scale(T.dot(w[:, 0], T.constant(h.ilm_scores)), -1.0),
                T.dot(w[:, 1], T.constant(h.elm_scores)),
            )
            parts.append(contrib[None])
        raw = T.add(T.constant(e2e), T.concat(parts, axis=0))
        per_utt.append(renormalized_expectation(raw, errors)[None])
    return T.mean_vec(T.concat(per_utt, axis=0))


def train_lfm_step(batch: list, hat: HatModel, lfm: LfmModel, optimizer) -> float:
    """One expected-word-error step on LFM parameters only.

    ``batch`` holds (utterance, nbest) pairs decoded LM-free and prepared
    by ``prepare_rescoring``. HAT stays frozen: its scores enter as
    constants, and any gradient that somehow lands on a HAT parameter
    aborts the step. The MLE anchor is omitted because it targets E2E
    parameters, which are frozen here.
    """
    hat.params.clear_grads()
    lfm.params.zero_grads()
    with T.Tape() as tape:
        loss = lfm_loss(batch, hat, lfm)
        tape.backward(loss)
    for name, p in hat.params.items():
        if p.grad is not None and np.any(p.grad):
            raise RuntimeError(f"gradient leaked into frozen parameter {name!r}")
    optimizer.step(lfm.params)
    return float(loss.data)


def weight_stats(dataset: list, lfm: LfmModel, hat: HatModel) -> WeightStats:
    """Mean and spread of emitted weights over all tokens of all hypotheses."""
    if not dataset:
        raise ValueError("weight_stats: empty dataset")
    mus, nus = [], []
    for utterance, nbest in dataset:
        enc = hat.encode_np(utterance.acoustics)
        for h in nbest.hyps:
            if not h.tokens:
                continue
            w = lfm.forward(enc, list(h.tokens)).data
            mus.append(w[:, 0])
            nus.append(w[:, 1])
    if not mus:
        raise ValueError("weight_stats: no tokens to summarize")
    mu = np.concatenate(mus)
    nu = np.concatenate(nus)
    return WeightStats(
        mean_mu=float(np.mean(mu)),
        std_mu=float(np.std(mu)),
        mean_nu=float(np.mean(nu)),
        std_nu=float(np.std(nu)),
        token_count=int(mu.size),
    )


def save_lfm(lfm: LfmModel, base) -> None:
    base = Path(base)
    lfm.params.save(base.parent / (base.name + ".params"))
    meta = {"kind": "lfm", "config": asdict(lfm.config)}
    (base.parent / (base.name + ".json")).write_text(json.dumps(meta, indent=2))


def load_lfm(base) -> LfmModel:
    base = Path(base)
    meta = json.loads((base.parent / (base.name + ".json")).read_text())
    if meta.get("kind") != "lfm":
        raise ValueError(f"not a fusion-module checkpoint: {meta.get('kind')!r}")
    lfm = LfmModel(LfmConfig(**meta["config"]))
    lfm.params.set_values(T.ParamSet.load(base.parent / (base.name + ".params")).copy_values())
    return lfm

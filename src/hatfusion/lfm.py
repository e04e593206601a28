"""Learnable fusion: per-token LM weights from a small transformer.

The module reads hypothesis tokens through causal self-attention and the
utterance's encoder states through cross-attention, and emits a pair
(mu_l, nu_l) >= 0 per token through a softplus head. Rescoring applies

    score = e2e_fullsum - sum(mu_l * s_l) + sum(nu_l * r_l),

the per-token generalization of scalar fusion. Scalar rescoring and LFM
rescoring share one weighted-score path, so a constant-head module
reproduces scalar rescoring exactly, not just up to rounding.

The transformer is pre-norm: each sublayer adds its output to the residual
stream after layer normalization; an attention sublayer's heads are one
``tensor.scaled_dot_attention`` entry. Encoder states enter as constants;
only LFM parameters ever receive gradients here.

The module never runs once per hypothesis. Rescoring runs it once per
N-best list, on the list's right-padded id block against the utterance's
encoder states. Training and the weight statistics run it once per batch
or dataset: every hypothesis of every list is a row of one stacked block,
each row reading its own utterance's encoder states with a frame count
that masks the padded frames in cross-attention (``LfmModel.forward``).
Padded positions are dropped afterwards. The constant-head identity with
scalar rescoring still holds bit for bit, because a zeroed head emits
exactly its bias at every position.

``prepare_rescoring`` is the one place that attaches the exact full sum and
the per-token ILM and ELM scores to a list; it leaves the search scores
alone, so a fused list still recombines to its stored ``combined``. Its ILM
is one ``HatModel.internal_lm_log_prob`` per list, the search's own steps
over its distinct prefixes, so a fused list's ILM scores come back bit for bit.
Rescoring and fusion-module training read those scores off the hypotheses
and never recompute them, so their lists must come from
``prepare_rescoring`` or ``hatfusion decode``; a list without one ILM and
one ELM score per token is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from .decode import NBestList, require_fusion_weights, rescore_components
from .hat import HatModel, Utterance, check_field_types, load_model, pad_ids, save_model
from .lm import require_smoothing, score_tokens
from .mwer import batch_expected_errors

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

    def __post_init__(self):
        check_field_types(self)
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"lfm {f.name} must be >= 1, got {getattr(self, f.name)!r}")
        if self.model_dim % self.num_heads != 0:
            raise ValueError(
                f"model_dim {self.model_dim} not divisible by {self.num_heads} heads"
            )


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

    def _attend(self, x: T.Tensor, kv: T.Tensor, prefix: str, causal: bool,
                frames=None) -> T.Tensor:
        q = T.matmul(x, self._p(prefix + "q"))
        k = T.matmul(kv, self._p(prefix + "k"))
        v = T.matmul(kv, self._p(prefix + "v"))
        heads = T.scaled_dot_attention(q, k, v, causal=causal, frames=frames,
                                       heads=self.config.num_heads)
        return T.matmul(heads, self._p(prefix + "o"))

    def _ln(self, x: T.Tensor, name: str) -> T.Tensor:
        return T.layer_normalize(x, self._p(name + "_g"), self._p(name + "_b"))

    def forward(self, enc_states: np.ndarray, ids, frames=None) -> T.Tensor:
        """Weight pairs (..., L, 2) for token ids (..., L); column 0 is mu, 1 is nu.

        A 1-D sequence is one hypothesis. A (K, L) block holds K
        hypotheses, each right-padded to L with id 0. With shared encoder
        states (T, enc_dim) every row reads the one utterance's frames, so
        the input projection and every layer's cross-attention keys and
        values are computed once per call, and no key-padding mask is
        needed. With a per-row block (K, T_max, enc_dim), row i reads its
        own utterance's states, right-padded to T_max, and ``frames[i]`` of
        them are real (None: all T_max); cross-attention masks the rest, so
        lists of different utterances run as one block. Either way a real
        position's weights do not depend on the padding: the causal mask
        keeps it from seeing the later padded tokens, cross-attention reads
        only its utterance's frames, and layer norm, the FFN and the head
        act row by row. Weights at padded positions are meaningless;
        callers drop them. A block row equals the row's own 1-D forward up
        to the last bits of the stacked matrix products.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return T.constant(np.zeros(ids.shape + (2,)))
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError("token id out of range for the fusion module")
        enc_states = np.asarray(enc_states, dtype=float)
        shared = enc_states.ndim == 2 and frames is None
        per_row = enc_states.ndim == 3 and ids.ndim == 2 and len(ids) == len(enc_states)
        if not (shared or per_row) or enc_states.shape[-1] != self.config.enc_dim:
            raise ValueError(
                f"encoder states must be (T, {self.config.enc_dim}), or (K, T_max, "
                f"{self.config.enc_dim}) with frame counts for ids (K, L); got states "
                f"{enc_states.shape} for ids {ids.shape}"
            )
        x = T.add(
            T.embedding_lookup(self._p("emb"), ids),
            T.constant(_positional_code(ids.shape[-1], self.config.model_dim)),
        )
        encf = T.matmul(T.constant(enc_states), self._p("enc_in"))
        for i in range(self.config.num_layers):
            p = f"l{i}_"
            x = T.add(x, self._attend(self._ln(x, p + "ln1"), x, p + "s", causal=True))
            x = T.add(x, self._attend(self._ln(x, p + "ln2"), encf, p + "c", causal=False,
                                      frames=frames))
            y = self._ln(x, p + "ln3")
            y = T.tanh(T.add(T.matmul(y, self._p(p + "ffn_w1")), self._p(p + "ffn_b1")))
            x = T.add(x, T.add(T.matmul(y, self._p(p + "ffn_w2")), self._p(p + "ffn_b2")))
        out = T.add(T.matmul(self._ln(x, "ln_f"), self._p("head_w")), self._p("head_b"))
        return T.softplus(out)

    def set_constant_head(self, c_mu: float, c_nu: float) -> tuple:
        """Zero the head so every token gets the same weight pair.

        Returns the pair actually emitted, which can differ from the request
        by one rounding step through the nonnegativity map.
        """
        self._p("head_w").data[...] = 0.0
        self._p("head_b").data[...] = [_inv_softplus(c_mu), _inv_softplus(c_nu)]
        achieved = np.logaddexp(0.0, self._p("head_b").data)
        return float(achieved[0]), float(achieved[1])


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


def _reranked(nbest: NBestList, mus, nus) -> NBestList:
    """The list re-ranked by e2e_fullsum - mu . s + nu . r, with each
    hypothesis's weight rows ``mus`` and ``nus`` over its ILM and ELM scores."""
    hyps = [replace(h, combined=(h.e2e_fullsum - weighted_contribution(mu, h.ilm_scores))
                    + weighted_contribution(nu, h.elm_scores))
            for h, mu, nu in zip(nbest.hyps, mus, nus)]
    hyps.sort(key=lambda h: (-h.combined, h.tokens))
    return NBestList(nbest.uid, list(nbest.reference), hyps, nbest.ilm_weight, nbest.elm_weight)


def _require_lm_free(nbest: NBestList) -> None:
    if nbest.ilm_weight != 0.0 or nbest.elm_weight != 0.0:
        raise ValueError("rescoring expects hypotheses decoded without LM fusion")
    for h in nbest.hyps:
        if h.e2e_fullsum is None:
            raise ValueError("rescoring needs exact full-sum scores; rescore first")
        if len(h.ilm_scores) != len(h.tokens) or len(h.elm_scores) != len(h.tokens):
            raise ValueError("rescoring needs one ILM and one ELM score per token; "
                             "run prepare_rescoring first")


def prepare_rescoring(utterance: Utterance, nbest: NBestList, hat: HatModel, elm) -> NBestList:
    """Attach full-sum, ILM, and ELM scores once; sweeps then only re-rank."""
    require_smoothing(elm.smoothing)
    out = rescore_components(nbest, hat, utterance)
    ilm = hat.internal_lm_log_prob([h.tokens for h in out.hyps])
    return replace(out, hyps=[replace(h, ilm_scores=s, elm_scores=score_tokens(elm, list(h.tokens)))
                              for h, s in zip(out.hyps, ilm)])


def rescore_scalar(nbest: NBestList, mu: float, nu: float) -> NBestList:
    """Re-rank by constant fusion weights using the attached per-token scores."""
    require_fusion_weights(mu, nu)
    _require_lm_free(nbest)
    lengths = [len(h.tokens) for h in nbest.hyps]
    return _reranked(nbest, [np.full(n, float(mu)) for n in lengths],
                     [np.full(n, float(nu)) for n in lengths])


def rescore_with_lfm(utterance: Utterance, nbest: NBestList, hat: HatModel, elm,
                     lfm: LfmModel) -> NBestList:
    """Re-rank with per-token weights from one fusion-module pass over the list.

    The per-token scores are read off the prepared list; ``hat`` only
    encodes the utterance, and ``elm`` is unused.
    """
    _require_lm_free(nbest)
    w = lfm.forward(hat.encode_np(utterance.acoustics), pad_ids(nbest.token_lists())).data
    lengths = [len(h.tokens) for h in nbest.hyps]
    return _reranked(nbest, [wh[:n, 0] for wh, n in zip(w, lengths)],
                     [wh[:n, 1] for wh, n in zip(w, lengths)])


def _stack_lists(pairs: list, hat: HatModel) -> tuple:
    """The hypotheses of many (utterance, N-best) pairs as one block.

    Returns the inputs of one per-row ``LfmModel.forward``: each row's
    utterance encoder states (N, T_max, H), right-padded with zeros, its
    frame counts (N,) and the (N, L_max) id block, with N the number of
    hypotheses over all lists and rows in list order.
    """
    encs = [hat.encode_np(utterance.acoustics) for utterance, _ in pairs]
    states = np.zeros((len(encs), max(map(len, encs), default=0), hat.config.hidden_dim))
    for block, enc in zip(states, encs):
        block[:len(enc)] = enc
    rows = np.repeat(np.arange(len(pairs)), [len(nbest.hyps) for _, nbest in pairs])
    ids = pad_ids([h.tokens for _, nbest in pairs for h in nbest.hyps])
    return states[rows], np.array([len(enc) for enc in encs], dtype=np.int64)[rows], ids


def lfm_loss(batch: list, hat: HatModel, lfm: LfmModel) -> T.Tensor:
    """Mean expected word errors over the batch, with per-token weights.

    Raw score per hypothesis: e2e_fullsum - Σ mu_l s_l + Σ nu_l r_l. Only
    the weights are tensor-valued; the scores are read off the prepared
    lists as constants. ``hat`` only encodes the utterances. The whole
    batch takes one fusion-module pass over its stacked block, and its
    weighted sums are three tape entries whatever its size: multiply by the
    score pairs [-s_l, r_l], contract the pair axis, contract the token axis
    (padding adds zeros). Those sums, with the full sums as constants, go
    through ``mwer.batch_expected_errors``, the MWER loss's expectation
    tail, so a padded hypothesis gets exactly zero gradient. An empty
    batch, or a batch holding an empty list, is refused: its expected error
    is undefined.
    """
    if not batch:
        raise ValueError("lfm loss: empty batch")
    for _, nbest in batch:
        _require_lm_free(nbest)
        if not nbest.hyps:
            raise ValueError(f"lfm loss: empty hypothesis list for {nbest.uid!r}")
    states, frames, ids = _stack_lists(batch, hat)
    hyps = [h for _, nbest in batch for h in nbest.hyps]
    pairs = np.zeros(ids.shape + (2,))
    for row, h in zip(pairs, hyps):
        row[:len(h.tokens), 0] = np.negative(h.ilm_scores)
        row[:len(h.tokens), 1] = h.elm_scores
    w = lfm.forward(states, ids, frames)
    per_token = T.matmul(T.multiply(w, T.constant(pairs)), T.constant(np.ones(2)))
    contrib = T.matmul(per_token, T.constant(np.ones(ids.shape[1])))
    counts = np.array([len(nbest.hyps) for _, nbest in batch])
    expected = batch_expected_errors(batch, contrib, np.cumsum(counts) - counts,
                                     [h.e2e_fullsum for h in hyps])
    return T.scale(expected, 1.0 / len(batch))


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
    """Mean and spread of emitted weights over all tokens of all hypotheses.

    One fusion-module pass over the whole dataset as one stacked block;
    padded positions are dropped, so an empty hypothesis adds nothing. A
    dataset without a single token is refused.
    """
    if not dataset:
        raise ValueError("weight_stats: empty dataset")
    states, frames, ids = _stack_lists(dataset, hat)
    lengths = np.array([len(h.tokens) for _, nbest in dataset for h in nbest.hyps], dtype=np.int64)
    w = lfm.forward(states, ids, frames).data[np.arange(ids.shape[1]) < lengths[:, None]]
    mu, nu = w[:, 0], w[:, 1]
    if mu.size == 0:
        raise ValueError("weight_stats: no tokens to summarize")
    return WeightStats(
        mean_mu=float(np.mean(mu)),
        std_mu=float(np.std(mu)),
        mean_nu=float(np.mean(nu)),
        std_nu=float(np.std(nu)),
        token_count=int(mu.size),
    )


def save_lfm(lfm: LfmModel, base) -> None:
    save_model(lfm, base, "lfm")


def load_lfm(base) -> LfmModel:
    return load_model(base, "lfm", lambda c: LfmModel(LfmConfig(**c)), "nonnegative")

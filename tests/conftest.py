"""Shared test utilities: finite-difference gradient oracles, the op-by-op
recordings that ``tensor.transducer_full_sum`` and ``tensor.tanh_recurrence``
must equal bit for bit, the padded-grid scorer that
``HatModel.score_sequences`` must equal, the one-sequence ILM replay that
``HatModel.internal_lm_log_prob`` must equal, and the prefix-object beam
search that ``decode._search`` must equal list for list."""

import numpy as np

from hatfusion import tensor as T
from hatfusion.decode import _COUNTERS, BeamConfig, Hypothesis, NBestList, _combine
from hatfusion.hat import _COUNTERS as _HAT_COUNTERS
from hatfusion.hat import (_PRED, HatModel, Utterance, _check_ids, _ilm_rows, _row_products,
                           pad_ids)
from hatfusion.lm import advance_state, initial_state, next_token_logprobs


def fd_gradients(loss_fn, tensors, step=1e-4):
    """Central finite differences of a scalar loss w.r.t. each tensor.

    ``loss_fn`` must re-evaluate the loss from the tensors' current values
    (no tape needed) and return a float.  Perturbs every coordinate.
    """
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn()
            flat[i] = orig - step
            lo = loss_fn()
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * step)
        grads.append(g.reshape(t.data.shape))
    return grads


def relative_grad_error(analytic, numeric):
    """Norm-relative error between analytic and finite-difference gradients."""
    a = np.concatenate([np.asarray(g).reshape(-1) for g in analytic])
    n = np.concatenate([np.asarray(g).reshape(-1) for g in numeric])
    denom = max(np.linalg.norm(n), np.linalg.norm(a), 1e-10)
    return np.linalg.norm(a - n) / denom


def check_gradients(build_loss, params, step=1e-4, rtol=1e-4):
    """Compare tape gradients of ``build_loss`` against central differences.

    ``build_loss`` constructs the loss Tensor from current parameter values;
    it is called once under a tape for the analytic side and repeatedly
    without one for the numeric side.  Returns the relative error.
    """
    tensors = list(params.tensors()) if isinstance(params, T.ParamSet) else list(params)
    with T.Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    for t in tensors:
        t.grad = None
    numeric = fd_gradients(lambda: float(build_loss().data), tensors, step=step)
    err = relative_grad_error(analytic, numeric)
    assert err <= rtol, f"gradient mismatch: relative error {err:.3e} > {rtol}"
    return err


def weighted_scalar(out, weights):
    """Reduce a tensor to a scalar via a fixed random weighting.

    Used to exercise every output element of a primitive in one backward.
    """
    t = T.multiply(out, T.constant(weights))
    while t.data.ndim > 0:
        t = T.matmul(t, T.constant(np.ones(t.shape[-1])))
    return t


def op_by_op_full_sum(lb, le, lens, frames=None):
    """``T.transducer_full_sum`` recorded primitive by primitive.

    The anti-diagonal alpha recursion on the tape: NEG-masked diagonal
    gathers, then per diagonal a blank add, a label add shifted one column
    by a NEG concat, and a two-row logsumexp; finally the final alpha plus
    the final blank, at (frames[k]-1, lens[k]). About ten tape entries per
    diagonal, whose sums and gradients the primitive's single entry must
    reproduce exactly.
    """
    lens = np.asarray(lens, dtype=np.int64)
    k, t_len, width = lb.shape
    t_fin = np.full(k, t_len - 1) if frames is None else np.asarray(frames) - 1
    u_max = width - 1
    n_diag = t_len + u_max
    dd = np.arange(n_diag)[:, None]
    us = np.arange(width)[None, :]
    tgrid = dd - us
    valid = (tgrid >= 0) & (tgrid < t_len)
    tclip = np.clip(tgrid, 0, t_len - 1)
    kk = np.arange(k)[:, None, None]
    lb_diag = T.add(
        T.slice_(lb, (kk, tclip[None], np.broadcast_to(us, tgrid.shape)[None])),
        T.constant(np.where(valid, 0.0, T.NEG)[None]),
    )
    if u_max > 0:
        le_diag = T.add(
            T.slice_(le, (kk, tclip[None],
                          np.broadcast_to(np.clip(us, 0, u_max - 1), tgrid.shape)[None])),
            T.constant(np.where(valid & (us < u_max), 0.0, T.NEG)[None]),
        )
    a0 = np.full((k, width), T.NEG)
    a0[:, 0] = 0.0
    alpha = T.constant(a0)
    alphas = [alpha]
    negcol = T.constant(np.full((k, 1), T.NEG))
    for d in range(1, n_diag):
        t_blank = T.add(alpha, lb_diag[:, d - 1, :])
        if u_max > 0:
            t_label = T.concat(
                [negcol, T.add(alpha, le_diag[:, d - 1, :])[:, : width - 1]], axis=1
            )
            alpha = T.logsumexp(T.concat([t_blank[None], t_label[None]], axis=0), axis=0)
        else:
            alpha = t_blank
        alphas.append(alpha)
    stacked = T.concat([a[:, None, :] for a in alphas], axis=1)
    k_idx = np.arange(k)
    a_fin = T.slice_(stacked, (k_idx, t_fin + lens, lens))
    lb_fin = T.slice_(lb, (k_idx, t_fin, lens))
    return T.add(a_fin, lb_fin)


def _op_by_op_step(x, wx, wh, b, h):
    pre = T.add(T.matmul(x, wx), b)
    if h is not None:
        pre = T.add(pre, T.matmul(h, wh))
    return T.tanh(pre)


def op_by_op_encode_batch(model, batch):
    """``HatModel.encode_batch`` recorded primitive by primitive: one lookup
    of the padded (T_max, B) ids, then per frame a slice, two matmuls, two
    adds, a tanh and a slice, and a concat of the frames into (B, T_max, H);
    seven tape entries per frame where the primitive has one."""
    frames = np.array([len(a) for a in batch])
    x = T.embedding_lookup(model.params["aemb"], pad_ids(batch).T)
    wx, wh, b = (model.params[n] for n in ("enc_wx", "enc_wh", "enc_b"))
    steps = []
    h = None
    for t in range(frames.max()):
        h = _op_by_op_step(x[t], wx, wh, b, h)
        steps.append(h[:, None, :])
    return T.concat(steps, axis=1), frames


def op_by_op_encode(model, acoustics):
    """``HatModel.encode``, the batch of one of ``op_by_op_encode_batch``."""
    return op_by_op_encode_batch(model, [acoustics])[0][0]


def op_by_op_predict_states(model, pad):
    """``HatModel.predict_states`` recorded primitive by primitive: one
    lookup of the padded (U_max+1, K) ids, then per label step a slice, the
    step's matmuls, adds and tanh, and a slice; a concat joins the steps into
    (K, U_max+1, H)."""
    ids = np.concatenate([np.full((len(pad), 1), model.config.vocab_size), pad], axis=1)
    x = T.embedding_lookup(model.params["lemb"], ids.T)
    wx, wh, b = (model.params[n] for n in ("pred_wx", "pred_wh", "pred_b"))
    steps = []
    h = None
    for u in range(ids.shape[1]):
        h = _op_by_op_step(x[u], wx, wh, b, h)
        steps.append(h[:, None, :])
    return T.concat(steps, axis=1)


# -- the padded-grid scorer ----------------------------------------------------
# ``HatModel.score_sequences`` as it was before sequences shared their
# prefixes: the joint built for every (sequence, frame, prefix length) cell
# of a padded (K, T, U_max+1) grid. Kept verbatim as the oracle the
# prefix-node scorer must equal.


def padded_score_sequences(self, enc: T.Tensor, seqs, with_ilm: bool = True, frames=None):
    """Full-sum log P(Y|X) for each of K sequences.

    ``enc`` is one utterance's encoder states (T, H), which every
    sequence is scored against (an N-best list), or a padded
    ``encode_batch`` block (K, T_max, H), whose row k is sequence k's
    own utterance (an MLE batch); ``frames`` (K,) gives each sequence's
    frame count, all T when None. Returns (full_sums (K,), ilm_totals
    (K,) or None). The joint grids of all K sequences are built together
    and scored in one lattice sweep, ``T.transducer_full_sum``: one tape
    entry for the whole α recursion, whatever T and U are.
    """
    _HAT_COUNTERS["lattice_sweeps"] += 1
    seqs = [list(s) for s in seqs]
    if not seqs:
        raise ValueError("score_sequences: no sequences")
    for s in seqs:
        _check_ids(s, self.config.vocab_size, "label")
    if enc.data.ndim not in (2, 3) or enc.data.ndim == 3 and enc.shape[0] != len(seqs):
        raise ValueError(f"score_sequences: encoder states {enc.shape} are neither (T, H) "
                         f"nor one (T, H) row for each of {len(seqs)} sequences")
    t_len = enc.shape[-2]
    lens = np.array([len(s) for s in seqs], dtype=np.int64)
    pad = pad_ids(seqs)
    k, u_max = pad.shape

    dstates = self.predict_states(pad)
    blank_logit, label_lp, dproj = self._grids(enc, dstates)
    lb = T.log_sigmoid(blank_logit)
    if u_max > 0:
        # le[k, t, u]: leave the blank, then emit label u+1 of sequence k
        l1mb = T.log_one_minus_sigmoid(blank_logit)
        label_tok = T.slice_(label_lp, (np.arange(k)[:, None, None],
                                        np.arange(t_len)[None, :, None],
                                        np.arange(u_max)[None, None, :], pad[:, None, :]))
        le = T.add(l1mb[:, :, :u_max], label_tok)
    else:
        le = T.constant(np.zeros((k, t_len, 0)))
    full_sums = T.transducer_full_sum(lb, le, lens, frames)

    if not with_ilm:
        return full_sums, None
    if u_max == 0:
        return full_sums, T.constant(np.zeros(k))
    z_ilm = T.tanh(T.add(dproj, self._p("joint_b")))
    ilm_lp = T.log_softmax(
        T.add(T.matmul(z_ilm, self._p("label_w")), self._p("label_b")), axis=-1
    )
    kk, uu = np.indices(pad.shape)
    per_tok = T.slice_(ilm_lp, (kk, uu, pad))
    keep = (uu < lens[:, None]).astype(float)
    ilm_totals = T.matmul(T.multiply(per_tok, T.constant(keep)), T.constant(np.ones(u_max)))
    return full_sums, ilm_totals


# -- the one-sequence ILM replay -----------------------------------------------
# ``HatModel.internal_lm_log_prob`` as it was before it took a list: one
# sequence's prediction states by one recurrence over its own tokens. Kept
# verbatim as the oracle the list replay must equal bit for bit.


def reference_ilm(self, labels) -> np.ndarray:
    """Per-token internal-LM log-probs s_l of ``labels``: (U,). A numpy
    replay of the fused search's steps, so it gives a fused hypothesis's
    ``ilm_scores`` bit for bit, and it records nothing under a tape."""
    tokens = _check_ids(labels, self.config.vocab_size, "label")
    x = self._p("lemb").data[np.concatenate(([self.config.vocab_size], tokens[:-1]))[:, None]]
    states = np.concatenate(T.tanh_states_np(x, *(self._p(n).data for n in _PRED)))
    lp = _ilm_rows(self.params, _row_products(states, self._p("joint_wd").data))
    return lp[np.arange(tokens.size), tokens]


# -- the reference search ----------------------------------------------------
# ``decode._search`` as it was before its bookkeeping moved into per-search
# tables: one Python object per prefix, its per-token ILM/ELM arrays built by
# ``np.append`` and summed by ``np.sum`` when the prefix is made. Kept
# verbatim as the oracle the table search must equal bit for bit.


class _Prefix:
    """What the search knows about one token prefix; made once per search.

    ``ilm_sum``/``elm_sum`` are ``np.sum`` of the per-token arrays, taken
    when the prefix is made so no stage or sort re-sums them.
    """

    __slots__ = ("tokens", "dstate", "dproj", "ilm", "elm", "ilm_sum", "elm_sum",
                 "elm_state", "ilm_vec", "elm_vec")

    def __init__(self, tokens, dstate, ilm, elm, elm_state=None):
        self.tokens = tokens
        self.dstate = dstate
        self.ilm = ilm
        self.elm = elm
        self.ilm_sum = float(np.sum(ilm))
        self.elm_sum = float(np.sum(elm))
        self.elm_state = elm_state
        self.dproj = self.ilm_vec = self.elm_vec = None


def _make_prefix(model: HatModel, elm, parent: _Prefix, v: int, with_lm: bool) -> _Prefix:
    """The prefix ``parent.tokens + (v,)``; its stacked rows (dproj, ilm_vec) come later."""
    tokens = parent.tokens + (v,)
    dstate = model.pred_step_np(parent.dstate, v)
    if not with_lm:
        return _Prefix(tokens, dstate, parent.ilm, parent.elm)
    # the parent's ELM row already scores v; only the new state is queried
    elm_state, r = (advance_state(elm, parent.elm_state, v, parent.elm_vec)
                    if elm is not None else (None, 0.0))
    p = _Prefix(tokens, dstate, np.append(parent.ilm, parent.ilm_vec[v]),
                np.append(parent.elm, r), elm_state)
    p.elm_vec = next_token_logprobs(elm, elm_state) if elm is not None else parent.elm_vec
    return p


def reference_search(utterance: Utterance, model: HatModel, elm, lam: float, gam: float,
            cfg: BeamConfig, with_lm: bool):
    _COUNTERS["beam_search"] += 1
    vocab_size = model.config.vocab_size
    enc = model.encode_np(utterance.acoustics)
    eproj = model.eproj_np(enc)
    root = _Prefix((), model.pred_start_np(), np.zeros(0), np.zeros(0))
    root.dproj = model.dproj_np(root.dstate[None])[0]
    if with_lm:
        root.ilm_vec = model.ilm_logprobs_np(root.dproj[None])[0]
        if elm is not None:
            root.elm_state = initial_state(elm)
            root.elm_vec = next_token_logprobs(elm, root.elm_state)
        else:
            root.elm_vec = np.zeros(vocab_size)
    cache = {(): root}

    # a hypothesis is [prefix, e2e]: the score belongs to the search, the
    # rest is shared by every hypothesis with those tokens
    beam = [[root, 0.0]]
    k = cfg.beam_size
    for t in range(enc.shape[0]):
        pool: dict = {}
        frontier = beam
        for stage in range(cfg.frame_cap + 1):
            prefixes = [p for p, _ in frontier]
            e2e = np.array([s for _, s in frontier])
            blank_logit, label_lp = model.joint_np(eproj[t], np.stack([p.dproj for p in prefixes]))
            moved = e2e + (-np.logaddexp(0.0, -blank_logit))
            for p, s in zip(prefixes, moved):
                cur = pool.get(p.tokens)
                if cur is None:
                    pool[p.tokens] = [p, s]
                else:
                    cur[1] = np.logaddexp(cur[1], s)
            rows = [i for i, p in enumerate(prefixes) if len(p.tokens) < cfg.max_tokens]
            if stage == cfg.frame_cap or not rows:
                break
            e2e_new = (e2e + (-np.logaddexp(0.0, blank_logit)))[rows, None] + label_lp[rows]
            if with_lm:
                live = [prefixes[i] for i in rows]
                si = np.array([p.ilm_sum for p in live])[:, None]
                sr = np.array([p.elm_sum for p in live])[:, None]
                ilm_vec = np.stack([p.ilm_vec for p in live])
                elm_vec = np.stack([p.elm_vec for p in live])
                comb = (e2e_new - lam * (si + ilm_vec)) + gam * (sr + elm_vec)
            else:
                comb = e2e_new
            # ties of the k-th score stay on the shortlist: a full sort's top k
            neg = -comb.ravel()
            short = range(neg.size)
            if neg.size > k:
                short = np.flatnonzero(neg <= neg[np.argpartition(neg, k - 1)[k - 1]]).tolist()
            chosen = sorted((neg[c], prefixes[rows[c // vocab_size]].tokens + (c % vocab_size,), c)
                            for c in short)[:k]
            frontier, made = [], []
            for _, tokens, c in chosen:
                r, v = divmod(c, vocab_size)
                p = cache.get(tokens)
                if p is None:
                    p = cache[tokens] = _make_prefix(model, elm, prefixes[rows[r]], v, with_lm)
                    made.append(p)
                frontier.append([p, e2e_new[r, v]])
            if made:  # one stacked projection (and ILM head) for the new prefixes
                dproj = model.dproj_np(np.stack([p.dstate for p in made]))
                for p, d in zip(made, dproj):
                    p.dproj = d
                if with_lm:
                    for p, iv in zip(made, model.ilm_logprobs_np(dproj)):
                        p.ilm_vec = iv

        merged = sorted(pool.values(), key=lambda h: (
            -((h[1] - lam * h[0].ilm_sum) + gam * h[0].elm_sum), h[0].tokens))
        beam = merged[:k]

    out = []
    for p, s in beam:
        out.append(
            Hypothesis(
                tokens=p.tokens,
                e2e_search=float(s),
                ilm_scores=p.ilm,
                elm_scores=p.elm,
                combined=_combine(s, lam, p.ilm, gam, p.elm),
                truncated=len(p.tokens) >= cfg.max_tokens,
            )
        )
    out.sort(key=lambda h: (-h.combined, h.tokens))
    return NBestList(uid=utterance.uid, reference=list(utterance.reference), hyps=out,
                     ilm_weight=lam, elm_weight=gam)

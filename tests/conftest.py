"""Shared test utilities: finite-difference gradient oracles and the op-by-op
recordings that ``tensor.transducer_full_sum`` and ``tensor.tanh_recurrence``
must equal bit for bit."""

import numpy as np

from hatfusion import tensor as T


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


def op_by_op_full_sum(lb, le, lens):
    """``T.transducer_full_sum`` recorded primitive by primitive.

    The anti-diagonal alpha recursion on the tape: NEG-masked diagonal
    gathers, then per diagonal a blank add, a label add shifted one column
    by a NEG concat, and a two-row logsumexp; finally the final alpha plus
    the final blank. About ten tape entries per diagonal, whose sums and
    gradients the primitive's single entry must reproduce exactly.
    """
    lens = np.asarray(lens, dtype=np.int64)
    k, t_len, width = lb.shape
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
    a_fin = T.slice_(stacked, (k_idx, t_len - 1 + lens, lens))
    lb_fin = T.slice_(lb, (k_idx, np.full(k, t_len - 1), lens))
    return T.add(a_fin, lb_fin)


def _op_by_op_step(x, wx, wh, b, h):
    pre = T.add(T.matmul(x, wx), b)
    if h is not None:
        pre = T.add(pre, T.matmul(h, wh))
    return T.tanh(pre)


def op_by_op_encode(model, acoustics):
    """``HatModel.encode`` recorded primitive by primitive: one lookup, then
    per frame a row slice, two matmuls, two adds and a tanh, and a concat of
    the rows; six tape entries per frame where the primitive has one."""
    ids = np.asarray(acoustics, dtype=np.int64)
    x = T.embedding_lookup(model.params["aemb"], ids)
    wx, wh, b = (model.params[n] for n in ("enc_wx", "enc_wh", "enc_b"))
    rows = []
    h = None
    for t in range(ids.size):
        h = _op_by_op_step(x[t : t + 1, :], wx, wh, b, h)
        rows.append(h)
    return T.concat(rows, axis=0)


def op_by_op_predict_states(model, pad):
    """``HatModel.predict_states`` recorded primitive by primitive: per label
    step one lookup of the step's ids, the step's matmuls, adds and tanh, and
    a slice; a concat joins the steps into (K, U_max+1, H)."""
    k, u_max = pad.shape
    wx, wh, b = (model.params[n] for n in ("pred_wx", "pred_wh", "pred_b"))
    bos = np.full(k, model.config.vocab_size, dtype=np.int64)
    steps = []
    h = None
    for u in range(u_max + 1):
        x = T.embedding_lookup(model.params["lemb"], bos if u == 0 else pad[:, u - 1])
        h = _op_by_op_step(x, wx, wh, b, h)
        steps.append(h[:, None, :])
    return T.concat(steps, axis=1)

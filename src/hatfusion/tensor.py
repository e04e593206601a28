"""Dense float64 tensors with reverse-mode automatic differentiation.

The differentiable surface is a fixed whitelist of primitives (the functions
under "Primitives" below), kept deliberately small so every backward rule
can be audited by hand. All but two are elementwise, linear-algebra,
reduction, indexing or attention ops. The two domain primitives each run a
whole recursion as one tape entry: ``tanh_recurrence`` a recurrent layer
(the encoder and the prediction network), ``transducer_full_sum`` the
lattice. Each one's backward reproduces, bit for bit, what the tape would
compute for its recursion recorded op by op. Each primitive is called by
name; the only operator sugar on ``Tensor`` is indexing, ``x[key]``, which
is ``slice_``.
Recording happens only while a ``Tape`` is active; outside of one, every
operation is a plain numpy evaluation and its result is a constant leaf.

Gradients accumulate into ``Tensor.grad`` slots.  Trainable leaves live in a
``ParamSet``; non-trainable leaves never receive gradients.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Iterator, Sequence

import numpy as np

_EPS_LAYERNORM = 1e-6

# Log-domain stand-in for "unreachable" lattice cells; finite, so masked
# cells never produce inf - inf in a backward pass.
NEG = -1.0e30


class Tensor:
    """A dense float64 array plus an optional same-shape gradient slot."""

    __slots__ = ("data", "grad", "trainable", "is_leaf", "name")

    def __init__(self, data, trainable: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.trainable = trainable
        self.is_leaf = True
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"

    def __getitem__(self, key) -> "Tensor":
        return slice_(self, key)


def constant(data) -> Tensor:
    """A non-trainable leaf; gradients never accumulate into it."""
    return Tensor(data, trainable=False)


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

# tapes entered and not yet exited, innermost last
_tape_stack: list["Tape"] = []


class Tape:
    """Ordered record of primitive applications (a Wengert list).

    Entries are appended in application order, so every input of entry i was
    produced by an earlier entry or is a leaf; the reverse walk in
    ``backward`` is therefore a valid topological order.  Tapes nest: an
    operation records only into the innermost tape entered, and the outer
    one resumes recording once the inner one exits.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._entries)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], bw: Callable) -> None:
        out.is_leaf = False
        self._entries.append((out, inputs, bw))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every trainable leaf's grad slot.

        Intermediate grads are reset first, so calling backward twice on the
        same tape (with leaf grads zeroed in between) is reproducible.  Leaf
        grads are accumulated, never overwritten. A backward rule may give
        one input a list of gradients; they are added one by one, in order,
        as separate entries would have added them.
        """
        if loss.data.size != 1:
            raise ValueError(
                f"backward needs a scalar loss, got shape {loss.shape}"
            )
        for out, _, _ in self._entries:
            out.grad = None
        loss.grad = np.ones_like(loss.data)
        for out, inputs, bw in reversed(self._entries):
            if out.grad is None:
                continue
            grads = bw(out.grad)
            for inp, g in zip(inputs, grads):
                if g is None:
                    continue
                if inp.is_leaf and not inp.trainable:
                    continue
                # a list holds one input's contributions, added in its order
                for part in g if isinstance(g, list) else (g,):
                    if inp.grad is None:
                        # 0.0 + g, as zeros-then-add gave it (-0.0 becomes
                        # +0.0), without first filling an array with zeros
                        inp.grad = np.add(part, 0.0, out=np.empty_like(inp.data))
                    else:
                        inp.grad += part


def _record(out: Tensor, inputs: tuple[Tensor, ...], bw: Callable) -> Tensor:
    if _tape_stack:
        _tape_stack[-1]._record(out, inputs, bw)
    return out


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ValueError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    out = Tensor(out_data)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), bw)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ValueError(f"multiply: shapes {a.shape} and {b.shape} do not broadcast")
    out = Tensor(out_data)
    a_data, b_data = a.data, b.data

    def bw(g):
        return _unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)

    return _record(out, (a, b), bw)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out = Tensor(a.data * factor)

    def bw(g):
        return (g * factor,)

    return _record(out, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supported shapes: 1-D @ 1-D (dot), 1-D @ 2-D, 2-D @ 1-D, 2-D @ 2-D, and
    stacked N-D against a shared 2-D or 1-D right operand.
    """
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0 or bd.ndim > 2:
        raise ValueError(f"matmul: unsupported shapes {a.shape} and {b.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ValueError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = Tensor(np.matmul(ad, bd))

    def bw(g):
        g = np.asarray(g)
        k = ad.shape[-1]
        if k == 0:
            return np.zeros_like(ad), np.zeros_like(bd)
        if bd.ndim == 1:
            ga = g[..., None] * bd
            gb = ad.reshape(-1, k).T @ g.reshape(-1)
        else:
            ga = np.matmul(g, bd.T)
            if ad.ndim == 1:
                gb = np.outer(ad, g)
            else:
                gb = ad.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
        return ga, gb

    return _record(out, (a, b), bw)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` (V, D) for an integer id sequence."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ValueError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(
            f"embedding_lookup: id out of range for table with {table.shape[0]} rows"
        )
    out = Tensor(table.data[ids])

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, (table,), bw)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(a: Tensor) -> Tensor:
    out = Tensor(np.logaddexp(0.0, a.data))
    d = _sigmoid_np(a.data)

    def bw(g):
        return (g * d,)

    return _record(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))
    t = out.data

    def bw(g):
        return (g * (1.0 - t * t),)

    return _record(out, (a,), bw)


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    e = out.data

    def bw(g):
        return (g * e,)

    return _record(out, (a,), bw)


def log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    s = x - x.max(axis=axis, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=axis, keepdims=True))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    if x.shape[axis] == 0:
        raise ValueError(f"log_softmax: empty axis {axis} in shape {a.shape}")
    out = Tensor(log_softmax_np(x, axis))
    y = out.data

    def bw(g):
        return (g - np.exp(y) * np.sum(g, axis=axis, keepdims=True),)

    return _record(out, (a,), bw)


def _logsumexp_np(x: np.ndarray, axis: int) -> np.ndarray:
    if x.shape[axis] == 0:
        shape = list(x.shape)
        del shape[axis]
        return np.full(shape, -np.inf)
    m = np.max(x, axis=axis, keepdims=True)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe_m + np.log(np.sum(np.exp(x - safe_m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    """Stable log-sum-exp along one axis, which the result drops; an empty
    axis reduces to -inf."""
    out = Tensor(_logsumexp_np(a.data, axis))
    x = a.data

    def bw(g):
        out_k = np.expand_dims(out.data, axis)
        g_k = np.expand_dims(g, axis)
        with np.errstate(invalid="ignore"):
            w = np.where(np.isfinite(out_k), np.exp(x - out_k), 0.0)
        return (w * g_k,)

    return _record(out, (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    try:
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError:
        raise ValueError(
            f"concat: shapes {[t.shape for t in tensors]} do not align on axis {axis}"
        )
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes).tolist()
    lead = (slice(None),) * (axis % out.data.ndim)

    def bw(g):
        return tuple(g[lead + (slice(a, b),)] for a, b in zip(offsets, offsets[1:]))

    return _record(out, tuple(tensors), bw)


def slice_(a: Tensor, key) -> Tensor:
    """Indexing: basic (ints, slices, None) or pure integer-array gathers.

    A gather key is a tuple of integer arrays (one per axis, broadcast
    together); its backward is a scatter-add into the input. Mixing array
    and slice indices in one key is not supported.
    """
    if _is_gather_key(key):
        key = tuple(np.asarray(p, dtype=np.int64) for p in key)
        if len(key) != a.data.ndim:
            raise ValueError(
                f"slice: gather needs one index array per axis of {a.shape}"
            )
        out = Tensor(a.data[key])

        def bw_gather(g):
            ga = np.zeros_like(a.data)
            np.add.at(ga, key, g)
            return (ga,)

        return _record(out, (a,), bw_gather)

    _check_basic_key(key, a.shape)
    out = Tensor(a.data[key])

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[key] += g
        return (ga,)

    return _record(out, (a,), bw)


def _is_gather_key(key) -> bool:
    if not isinstance(key, tuple) or not key:
        return False
    return all(
        isinstance(p, (list, np.ndarray)) and np.asarray(p).dtype.kind in "iu"
        for p in key
    )


def _check_basic_key(key, shape) -> None:
    parts = key if isinstance(key, tuple) else (key,)
    for p in parts:
        if not (p is None or p is Ellipsis or isinstance(p, (int, np.integer, slice))):
            raise ValueError(f"slice: unsupported index {p!r} for shape {shape}")


def layer_normalize(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"layer_normalize: gain {gain.shape} / bias {bias.shape} must be ({d},)"
        )
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _EPS_LAYERNORM)
    norm = centered * inv
    out = Tensor(norm * gain.data + bias.data)
    gd = gain.data

    def bw(g):
        gnorm = g * gd
        gbias = _unbroadcast(g, bias.shape)
        ggain = _unbroadcast(g * norm, gain.shape)
        mean_g = gnorm.mean(axis=-1, keepdims=True)
        mean_gy = (gnorm * norm).mean(axis=-1, keepdims=True)
        gx = inv * (gnorm - mean_g - norm * mean_gy)
        return gx, ggain, gbias

    return _record(out, (x, gain, bias), bw)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False,
                         frames=None, heads: int = 1) -> Tensor:
    """softmax(q kᵀ / sqrt(d)) v with optional causal and key-padding masks.

    q: (..., Lq, d), k: (..., Lk, d), v: (..., Lk, dv) -> (..., Lq, dv).
    The leading axes stack independent attentions; k and v carry the same
    leading axes as q, or are one 2-D pair shared by every stacked query
    block (their gradients then sum over the stack). With ``causal`` set,
    query position i attends to key positions j <= i only. ``frames``, an
    integer array shaped like q's leading axes, holds each stacked block's
    number of valid keys, in [1, Lk]; keys at or past it are padding (the
    key-padding mask of Vaswani et al., 2017). Masked keys score -inf, as
    the causal mask's do, so their softmax weight is exactly zero and a
    block equals the attention over its first ``frames`` keys alone; the
    backward then gives masked key and value rows exactly zero gradient.
    Key 0 is never masked, so every softmax row keeps a finite score.

    ``heads`` > 1 splits the last axes of q, k and v into that many equal
    heads, attends each at its own scale and joins their outputs, bit for bit
    as slicing each head out and concatenating would; it must divide d and dv.
    """
    qd, kd, vd = q.data, k.data, v.data
    if (qd.ndim < 2 or kd.ndim not in (2, qd.ndim) or kd.shape[:-2] not in ((), qd.shape[:-2])
            or kd.shape[-1] != qd.shape[-1] or vd.shape[:-1] != kd.shape[:-1]):
        raise ValueError(
            f"scaled_dot_attention: shapes {q.shape}, {k.shape}, {v.shape} do not conform"
        )
    if type(heads) is not int or heads < 1 or qd.shape[-1] % heads or vd.shape[-1] % heads:
        raise ValueError(f"scaled_dot_attention: {heads!r} heads do not divide the last axes "
                         f"of {q.shape} and {v.shape}")

    def split(a):  # (..., L, d) -> (..., heads, L, d / heads), a view
        return a if heads == 1 else np.swapaxes(a.reshape(a.shape[:-1] + (heads, -1)), -2, -3)

    def merge(a):  # its inverse, a copy
        return a if heads == 1 else np.swapaxes(a, -2, -3).reshape(a.shape[:-3] + (a.shape[-2], -1))

    lead, (qd, kd, vd) = qd.shape[:-2], map(split, (qd, kd, vd))
    inv_sqrt_d = 1.0 / np.sqrt(qd.shape[-1])
    scores = (qd @ np.swapaxes(kd, -1, -2)) * inv_sqrt_d
    lq, lk = scores.shape[-2:]
    if causal:
        mask = np.triu(np.ones((lq, lk), dtype=bool), k=1)
        scores = np.where(mask, -np.inf, scores)
    if frames is not None:
        frames = np.asarray(frames)
        if frames.dtype.kind not in "iu" or frames.shape != lead:
            raise ValueError(f"scaled_dot_attention: frames must be integers of shape "
                             f"{lead}, got {frames.dtype} {frames.shape}")
        if frames.size and (frames.min() < 1 or frames.max() > lk):
            raise ValueError(f"scaled_dot_attention: frame counts must lie in [1, {lk}]")
        cut = frames.reshape(lead + (1,) * (scores.ndim - len(lead)))
        scores = np.where(np.arange(lk) >= cut, -np.inf, scores)
    m = np.max(scores, axis=-1, keepdims=True)
    e = np.exp(scores - m)
    attn = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        g = np.ascontiguousarray(split(g))  # each head's own array, as a sliced head's grad
        gv = np.swapaxes(attn, -1, -2) @ g
        ga = g @ np.swapaxes(vd, -1, -2)
        gs = attn * (ga - np.sum(ga * attn, axis=-1, keepdims=True))
        gq = (gs @ kd) * inv_sqrt_d
        gk = (np.swapaxes(gs, -1, -2) @ qd) * inv_sqrt_d
        return tuple(map(merge, (gq, _unbroadcast(gk, kd.shape), _unbroadcast(gv, vd.shape))))

    return _record(Tensor(merge(attn @ vd)), (q, k, v), bw)


def tanh_step_np(x: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray,
                 h: np.ndarray | None = None) -> np.ndarray:
    """One step of the tanh recurrence, ``tanh(x @ wx + b + h @ wh)``, whose
    state term is left out when ``h`` is None. Shapes are the caller's: the
    search steps one (E,) row, the tape a (B, E) block."""
    pre = x @ wx + b
    if h is not None:
        pre = pre + h @ wh
    return np.tanh(pre)


def tanh_states_np(x: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray) -> list:
    """The S (B, H) states that ``tanh_step_np`` gives over ``x`` (S, B, E)."""
    hs, h = [], None
    for xs in x:
        h = tanh_step_np(xs, wx, wh, b, h)
        hs.append(h)
    return hs


def tanh_recurrence(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """Every state of h_s = tanh(x[s] @ wx + b + h_{s-1} @ wh) as one tape entry.

    ``x`` (S, B, E) holds S steps of B inputs; the result (B, S, H) holds
    each input's states, step 0 having no state term. The forward is
    ``tanh_states_np``, the loop the numpy callers share. The backward is
    backpropagation through time (Werbos, Proc. IEEE 1990): it walks s in
    reverse with the arithmetic the tape does for the steps recorded op by
    op (matmul, add, tanh) and gives each weight its per-step gradients as
    a list, latest step first, which ``Tape.backward`` adds in that order.
    Its gradients therefore equal that recording's bit for bit, also when a
    grad slot already holds other contributions.
    """
    xd, wxd, whd, bd = x.data, wx.data, wh.data, b.data
    if xd.ndim != 3 or xd.shape[0] == 0 or wxd.ndim != 2 or xd.shape[2] != wxd.shape[0]:
        raise ValueError(f"tanh_recurrence: x must be (S>=1, B, E) against wx (E, H), "
                         f"got {x.shape} and {wx.shape}")
    s_len, hdim = xd.shape[0], wxd.shape[1]
    if wh.shape != (hdim, hdim) or b.shape != (hdim,):
        raise ValueError(f"tanh_recurrence: wh {wh.shape} and b {b.shape} must be "
                         f"({hdim}, {hdim}) and ({hdim},)")
    hs = tanh_states_np(xd, wxd, whd, bd)
    out = Tensor(np.stack(hs, axis=1))

    # Only the step-to-step product is sequential. The other products and
    # the bias sums are one 2-D op per step, and their stacked form runs the
    # same 2-D op per step, so each is taken once for all steps after the walk.
    def bw(g):
        dtanh = 1.0 - out.data * out.data
        gpre = np.empty((s_len,) + hs[0].shape)
        for s in range(s_len - 1, -1, -1):
            gh = g[:, s]
            if s < s_len - 1:
                gh = gh + np.matmul(gpre[s + 1], whd.T)
            np.multiply(gh, dtanh[:, s], out=gpre[s])
            gpre[s] += 0.0  # the tape's first write to a grad slot: -0.0 becomes +0.0
        gwx = np.matmul(xd.transpose(0, 2, 1), gpre)
        gwh = np.matmul(np.stack(hs[:-1]).transpose(0, 2, 1), gpre[1:]) if s_len > 1 else []
        gb = gpre.sum(axis=1)
        return np.matmul(gpre, wxd.T), list(gwx[::-1]), list(gwh[::-1]), list(gb[::-1])

    return _record(out, (x, wx, wh, b), bw)


def transducer_full_sum(lb: Tensor, le: Tensor, lens, frames=None) -> Tensor:
    """Full-sum log-likelihood of K label sequences over transducer lattices.

    ``lb`` (K, T, U+1) holds log P(blank) at each node (t, u), ``le``
    (K, T, U) the log-probability of emitting label u+1 of sequence k at
    (t, u), ``lens`` (K,) the label counts, each at most U, and ``frames``
    (K,) the frame counts, each in [1, T]; None gives every sequence all T.
    Entry k sums every monotonic path from (0, 0) through the final blank
    at (frames[k]-1, lens[k]). Paths only move right and down, so cells
    past frames[k] or lens[k] never reach that blank: they may hold any
    finite junk (a padded batch's), and their gradient is exactly zero.

    The forward walks the T+U anti-diagonals t + u = d for all K lattices at
    once (the diagonal layout of Bagby et al., SLT 2018). Cells off the grid
    are masked to NEG, so their exp-weight underflows to exactly zero. The
    backward is the reverse walk (the occupancy pass of Graves 2012, §2.5)
    as one tape entry. It repeats, in order, the arithmetic the tape does
    for this recursion recorded op by op (gathers, adds, concats and a
    two-row logsumexp per diagonal), so its gradients equal that
    recording's bit for bit.
    """
    lens = np.asarray(lens, dtype=np.int64)
    if lb.data.ndim != 3 or lb.shape[1] == 0:
        raise ValueError(f"transducer_full_sum: lb must be (K, T>=1, U+1), got {lb.shape}")
    k, t_len, width = lb.shape
    u_max = width - 1
    frames = np.full(k, t_len) if frames is None else np.asarray(frames, dtype=np.int64)
    if le.shape != (k, t_len, u_max) or lens.shape != (k,) or frames.shape != (k,):
        raise ValueError(f"transducer_full_sum: lb {lb.shape} needs le {(k, t_len, u_max)}, "
                         f"lens ({k},) and frames ({k},), got {le.shape}, {lens.shape} "
                         f"and {frames.shape}")
    if lens.size and (lens.min() < 0 or lens.max() > u_max):
        raise ValueError(f"transducer_full_sum: lengths must lie in [0, {u_max}]")
    if frames.size and (frames.min() < 1 or frames.max() > t_len):
        raise ValueError(f"transducer_full_sum: frame counts must lie in [1, {t_len}]")

    n_diag = t_len + u_max
    us = np.arange(width)[None, :]
    tgrid = np.arange(n_diag)[:, None] - us
    valid = (tgrid >= 0) & (tgrid < t_len)
    tclip = np.clip(tgrid, 0, t_len - 1)
    kk = np.arange(k)[:, None, None]
    lb_key = (kk, tclip[None], np.broadcast_to(us, tgrid.shape)[None])
    lb_diag = lb.data[lb_key] + np.where(valid, 0.0, NEG)[None]
    if u_max > 0:
        le_key = (kk, tclip[None], np.broadcast_to(np.clip(us, 0, u_max - 1), tgrid.shape)[None])
        le_diag = le.data[le_key] + np.where(valid & (us < u_max), 0.0, NEG)[None]

    # alphas[d]: forward log-probs on diagonal d; blocks[d]: its blank and
    # label arrivals, the rows the logsumexp merged
    alphas = np.empty((n_diag, k, width))
    alphas[0] = NEG
    alphas[0, :, 0] = 0.0
    blocks = np.empty((n_diag, 2, k, width))
    blocks[:, 1, :, 0] = NEG
    for d in range(1, n_diag):
        t_blank = alphas[d - 1] + lb_diag[:, d - 1]
        if u_max == 0:
            alphas[d] = t_blank
            continue
        blocks[d, 0] = t_blank
        blocks[d, 1, :, 1:] = alphas[d - 1, :, :u_max] + le_diag[:, d - 1, :u_max]
        # ``_logsumexp_np`` over the two rows, op for op
        m = np.maximum(t_blank, blocks[d, 1])
        m = np.where(np.isfinite(m), m, 0.0)
        e = np.exp(blocks[d] - m)
        with np.errstate(divide="ignore"):
            alphas[d] = m + np.log(e[0] + e[1])
    k_idx = np.arange(k)
    t_fin = frames - 1
    d_fin = t_fin + lens
    out = Tensor(alphas[d_fin, k_idx, lens] + lb.data[k_idx, t_fin, lens])

    # The backward adds in the tape's order, so gradients match bit for bit:
    # an alpha's gradient is its final-cell part, plus the label part, plus
    # the blank part; lb's is its final-blank part plus the diagonal scatter.
    def bw(g):
        fin = np.zeros((n_diag, k, width))
        fin[d_fin, k_idx, lens] += g
        g_lb_diag = np.zeros((k, n_diag, width))
        g_le_diag = np.zeros((k, n_diag, width))
        g_alpha = fin[n_diag - 1]
        if u_max > 0:  # every diagonal's logsumexp weights at once
            out_k = alphas[1:, None]
            with np.errstate(invalid="ignore"):
                w = np.where(np.isfinite(out_k), np.exp(blocks[1:] - out_k), 0.0)
        for d in range(n_diag - 1, 0, -1):
            if u_max == 0:
                g_lb_diag[:, d - 1] = g_alpha
                g_alpha = fin[d - 1] + g_alpha
                continue
            wg = w[d - 1] * g_alpha[None]
            g_lb_diag[:, d - 1] = wg[0]
            g_le_diag[:, d - 1, :u_max] = wg[1, :, 1:]
            g_alpha = (fin[d - 1] + g_le_diag[:, d - 1]) + wg[0]
        g_lb = np.zeros_like(lb.data)
        g_lb[k_idx, t_fin, lens] += g
        scattered = np.zeros_like(lb.data)
        np.add.at(scattered, lb_key, g_lb_diag)
        g_lb += scattered
        g_le = np.zeros_like(le.data)
        if u_max > 0:
            np.add.at(g_le, le_key, g_le_diag)
        return g_lb, g_le

    return _record(out, (lb, le), bw)


# ---------------------------------------------------------------------------
# Compositions used throughout the models (whitelist-pure)
# ---------------------------------------------------------------------------


def sum_vec(a: Tensor) -> Tensor:
    """Sum of a 1-D tensor as a scalar, via a dot with constant ones."""
    if a.data.ndim != 1:
        raise ValueError(f"sum_vec: need 1-D, got {a.shape}")
    return matmul(a, constant(np.ones(a.shape[0])))


def mean_vec(a: Tensor) -> Tensor:
    return scale(sum_vec(a), 1.0 / a.shape[0])


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape or a.data.ndim != 1:
        raise ValueError(f"dot: need equal 1-D shapes, got {a.shape} and {b.shape}")
    return matmul(a, b)


def log_sigmoid(a: Tensor) -> Tensor:
    """ln sigmoid(x) = -softplus(-x); stable for large |x|."""
    return scale(softplus(scale(a, -1.0)), -1.0)


def log_one_minus_sigmoid(a: Tensor) -> Tensor:
    """ln (1 - sigmoid(x)) = -softplus(x)."""
    return scale(softplus(a), -1.0)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class ParamSet:
    """Named trainable leaf tensors with deterministic iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = data if isinstance(data, Tensor) else Tensor(data, trainable=True, name=name)
        if not t.trainable:
            raise ValueError(f"parameter {name!r} must be trainable")
        t.name = name
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def tensors(self) -> Iterator[Tensor]:
        return iter(self._params.values())

    def zero_grads(self) -> None:
        for t in self._params.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            else:
                t.grad[...] = 0.0

    def clear_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._params.items()}

    def set_values(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter; ``values`` must hold exactly this set's
        names and shapes, or nothing is written and ValueError names the
        first parameter that differs."""
        for k in values:
            if k not in self._params:
                raise ValueError(f"unexpected parameter {k!r}")
        for k, t in self._params.items():
            if k not in values:
                raise ValueError(f"missing parameter {k!r}")
            if np.shape(values[k]) != t.data.shape:
                raise ValueError(f"parameter {k!r} has shape {np.shape(values[k])}, "
                                 f"expected {t.data.shape}")
        for k, t in self._params.items():
            t.data[...] = values[k]

    # -- serialization: versioned named-tensor container -------------------

    MAGIC = b"HATPARAM"
    VERSION = 1

    def to_bytes(self) -> bytes:
        chunks = [self.MAGIC, struct.pack("<II", self.VERSION, len(self._params))]
        for name, t in self._params.items():
            nb = name.encode("utf-8")
            chunks.append(struct.pack("<I", len(nb)))
            chunks.append(nb)
            chunks.append(struct.pack("<I", t.data.ndim))
            chunks.append(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
            chunks.append(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ParamSet":
        """Parse a container; truncated or trailing bytes raise ValueError."""
        if blob[: len(cls.MAGIC)] != cls.MAGIC:
            raise ValueError("not a parameter container (bad magic)")
        off = len(cls.MAGIC)

        def take(size: int) -> int:
            """Offset of the next ``size`` bytes, which must all be present."""
            nonlocal off
            if off + size > len(blob):
                raise ValueError(f"truncated parameter container: {size} bytes needed "
                                 f"at offset {off}, {len(blob) - off} left")
            off += size
            return off - size

        version, count = struct.unpack_from("<II", blob, take(8))
        if version != cls.VERSION:
            raise ValueError(f"unsupported container version {version}")
        ps = cls()
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", blob, take(4))
            start = take(nlen)
            name = blob[start : start + nlen].decode("utf-8")
            (ndim,) = struct.unpack_from("<I", blob, take(4))
            shape = struct.unpack_from(f"<{ndim}I", blob, take(4 * ndim))
            n = math.prod(shape)
            data = np.frombuffer(blob, dtype="<f8", count=n, offset=take(8 * n))
            ps.add(name, Tensor(data.reshape(shape).astype(np.float64), trainable=True))
        if off != len(blob):
            raise ValueError(f"{len(blob) - off} trailing bytes after the last tensor")
        return ps

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "ParamSet":
        """Read a saved set; a container that does not parse, or a tensor
        holding a NaN or an infinity, raises ValueError naming the file."""
        with open(path, "rb") as f:
            blob = f.read()
        try:
            ps = cls.from_bytes(blob)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        for name, t in ps.items():
            if not np.all(np.isfinite(t.data)):
                raise ValueError(f"{path}: tensor {name!r} holds non-finite values")
        return ps


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class Sgd:
    """Plain gradient descent: p <- p - lr * g."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: ParamSet) -> None:
        for name, t in params.items():
            if t.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient")
            t.data -= self.lr * t.grad
            t.grad[...] = 0.0


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class Adam:
    """Adaptive-moment estimation with bias correction.

    The moments of every parameter are one flat vector, updated by one
    elementwise op each; elementwise, that is the per-parameter update.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, params: ParamSet) -> None:
        self._t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        c1 = 1.0 - b1**self._t
        c2 = 1.0 - b2**self._t
        for name, t in params.items():
            if t.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient")
        g = np.concatenate([t.grad.ravel() for t in params.tensors()])
        if self._m is None:
            self._m, self._v = np.zeros_like(g), np.zeros_like(g)
        m, v = self._m, self._v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g**2
        update = self.lr * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)
        start = 0
        for t in params.tensors():
            t.data -= update[start:start + t.size].reshape(t.shape)
            t.grad[...] = 0.0
            start += t.size

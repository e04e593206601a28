"""Property test: stacked and shared-K/V attention against finite differences."""

import numpy as np
import pytest

from hatfusion import tensor as T

from conftest import check_gradients, weighted_scalar

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=30, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), lead=st.lists(st.integers(1, 3), max_size=2),
                  lq=st.integers(1, 4), lk=st.integers(1, 4), d=st.integers(1, 3),
                  dv=st.integers(1, 3), shared_kv=st.booleans(), causal=st.booleans())
def test_attention_gradients_match_finite_differences(seed, lead, lq, lk, d, dv, shared_kv,
                                                      causal):
    rng = np.random.default_rng(seed)
    kv_lead = () if shared_kv else tuple(lead)
    q = T.Tensor(rng.normal(size=(*lead, lq, d)), trainable=True)
    k = T.Tensor(rng.normal(size=(*kv_lead, lk, d)), trainable=True)
    v = T.Tensor(rng.normal(size=(*kv_lead, lk, dv)), trainable=True)
    out = T.scaled_dot_attention(q, k, v, causal=causal).data
    # each stacked block is the 2-D attention of its own slice
    for idx in np.ndindex(*lead):
        kv = () if shared_kv else idx
        single = T.scaled_dot_attention(T.constant(q.data[idx]), T.constant(k.data[kv]),
                                        T.constant(v.data[kv]), causal=causal)
        np.testing.assert_allclose(out[idx], single.data, rtol=1e-12, atol=1e-15)
    w = rng.normal(size=out.shape)
    check_gradients(lambda: weighted_scalar(T.scaled_dot_attention(q, k, v, causal=causal), w),
                    [q, k, v])


@hypothesis.settings(max_examples=30, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), lead=st.lists(st.integers(1, 3), max_size=2),
                  lq=st.integers(1, 4), lk=st.integers(1, 5), d=st.integers(1, 3),
                  dv=st.integers(1, 3), shared_kv=st.booleans(), causal=st.booleans())
def test_key_padding_mask_truncates_keys(seed, lead, lq, lk, d, dv, shared_kv, causal):
    rng = np.random.default_rng(seed)
    kv_lead = () if shared_kv else tuple(lead)
    q = T.Tensor(rng.normal(size=(*lead, lq, d)), trainable=True)
    k = T.Tensor(rng.normal(size=(*kv_lead, lk, d)), trainable=True)
    v = T.Tensor(rng.normal(size=(*kv_lead, lk, dv)), trainable=True)
    frames = rng.integers(1, lk + 1, size=tuple(lead))
    out = T.scaled_dot_attention(q, k, v, causal=causal, frames=frames).data
    # each block is the unmasked attention over its first frames[idx] keys
    for idx in np.ndindex(*lead):
        kv, f = () if shared_kv else idx, frames[idx]
        single = T.scaled_dot_attention(T.constant(q.data[idx]), T.constant(k.data[kv][:f]),
                                        T.constant(v.data[kv][:f]), causal=causal)
        np.testing.assert_allclose(out[idx], single.data, rtol=1e-12, atol=1e-15)
    w = rng.normal(size=out.shape)

    def loss():
        return weighted_scalar(T.scaled_dot_attention(q, k, v, causal=causal, frames=frames), w)
    check_gradients(loss, [q, k, v])
    # masked key and value rows get exactly zero gradient
    with T.Tape() as tape:
        total = loss()
    tape.backward(total)
    for idx in np.ndindex(*lead):
        kv = () if shared_kv else idx
        cut = frames.max() if shared_kv else frames[idx]
        assert np.all(k.grad[kv][cut:] == 0) and np.all(v.grad[kv][cut:] == 0)


@hypothesis.settings(max_examples=15, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), lead=st.lists(st.integers(1, 3), max_size=2),
                  lq=st.integers(1, 4), lk=st.integers(1, 4), shared_kv=st.booleans(),
                  causal=st.booleans())
def test_full_frame_counts_equal_no_mask_bit_for_bit(seed, lead, lq, lk, shared_kv, causal):
    rng = np.random.default_rng(seed)
    kv_lead = () if shared_kv else tuple(lead)
    q = T.Tensor(rng.normal(size=(*lead, lq, 2)), trainable=True)
    k = T.Tensor(rng.normal(size=(*kv_lead, lk, 2)), trainable=True)
    v = T.Tensor(rng.normal(size=(*kv_lead, lk, 3)), trainable=True)
    w = rng.normal(size=(*lead, lq, 3))
    runs = []
    for frames in (None, np.full(tuple(lead), lk)):
        for t in (q, k, v):
            t.grad = None
        with T.Tape() as tape:
            out = T.scaled_dot_attention(q, k, v, causal=causal, frames=frames)
            total = weighted_scalar(out, w)
        tape.backward(total)
        runs.append([out.data] + [t.grad.copy() for t in (q, k, v)])
    for a, b in zip(*runs):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("frames", [[0, 2], [1, 4], [3, 1, 2], [[1, 2]], [1.0, 2.0], [True, True],
                                    2])
def test_bad_frame_counts_are_refused(frames):
    q = T.constant(np.ones((2, 3, 2)))
    k = T.constant(np.ones((2, 3, 2)))
    with pytest.raises(ValueError, match="frame"):
        T.scaled_dot_attention(q, k, k, frames=frames)


def _sliced_heads(q, k, v, heads, **kw):
    """Multi-head attention as it ran before ``heads``: each head's slice of
    q, k and v attends alone, and the heads' outputs are concatenated."""
    dq, dv = q.shape[-1] // heads, v.shape[-1] // heads
    return T.concat([T.scaled_dot_attention(q[..., h * dq:(h + 1) * dq],
                                            k[..., h * dq:(h + 1) * dq],
                                            v[..., h * dv:(h + 1) * dv], **kw)
                     for h in range(heads)], axis=-1)


# the three forms the fusion module runs: causal self-attention, per-row
# cross-attention under frame counts, and cross-attention to shared keys
_FORMS = {"self": dict(causal=True), "per_row": dict(frames=True), "shared": dict()}


@hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), lead=st.lists(st.integers(1, 3), min_size=1,
                                                            max_size=2),
                  lq=st.integers(1, 4), lk=st.integers(1, 4), heads=st.integers(1, 3),
                  dh=st.integers(1, 3), dvh=st.integers(1, 3), form=st.sampled_from(sorted(_FORMS)))
def test_heads_equal_sliced_heads_bit_for_bit(seed, lead, lq, lk, heads, dh, dvh, form):
    rng = np.random.default_rng(seed)
    lead = tuple(lead)
    lk = lq if form == "self" else lk
    kv_lead = () if form == "shared" else lead
    q = T.Tensor(rng.normal(size=(*lead, lq, heads * dh)), trainable=True)
    k = T.Tensor(rng.normal(size=(*kv_lead, lk, heads * dh)), trainable=True)
    v = T.Tensor(rng.normal(size=(*kv_lead, lk, heads * dvh)), trainable=True)
    kw = dict(_FORMS[form])
    if kw.pop("frames", False):
        kw["frames"] = rng.integers(1, lk + 1, size=lead)
    w = rng.normal(size=(*lead, lq, heads * dvh))
    runs = []
    for attend in (lambda: T.scaled_dot_attention(q, k, v, heads=heads, **kw),
                   lambda: _sliced_heads(q, k, v, heads, **kw)):
        for t in (q, k, v):
            t.grad = None
        with T.Tape() as tape:
            out = attend()
            total = weighted_scalar(out, w)
        tape.backward(total)
        runs.append([out.data] + [t.grad.copy() for t in (q, k, v)])
    for a, b in zip(*runs):
        np.testing.assert_array_equal(a, b)
    for t in (q, k, v):
        t.grad = None
    check_gradients(lambda: weighted_scalar(T.scaled_dot_attention(q, k, v, heads=heads, **kw),
                                            w), [q, k, v])


@pytest.mark.parametrize("heads,d,dv", [(2, 3, 4), (2, 4, 3), (3, 4, 6), (0, 4, 4), (-1, 4, 4),
                                        (2.0, 4, 4), (True, 4, 4)])
def test_heads_that_do_not_divide_are_refused(heads, d, dv):
    q = T.constant(np.ones((2, 3, d)))
    k = T.constant(np.ones((2, 3, d)))
    with pytest.raises(ValueError, match="heads"):
        T.scaled_dot_attention(q, k, T.constant(np.ones((2, 3, dv))), heads=heads)

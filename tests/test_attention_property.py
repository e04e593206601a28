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

"""Property test: the full-sum primitive is the sum over every alignment."""

import math

import numpy as np
import pytest

from hatfusion import tensor as T

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def enumerated_full_sums(lb, le, lens, frames):
    """Log-sum over every monotonic path, walked recursively per sequence
    over its own frames."""
    out = []
    for k, (n, t_len) in enumerate(zip(lens, frames)):
        done = []

        def walk(t, u, w):
            wb = w + lb[k, t, u]
            if t == t_len - 1:
                if u == n:
                    done.append(wb)
            else:
                walk(t + 1, u, wb)
            if u < n:
                walk(t, u + 1, w + le[k, t, u])

        walk(0, 0, 0.0)
        m = max(done)
        out.append(m + math.log(sum(math.exp(x - m) for x in done)))
    return np.array(out)


@hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), t_len=st.integers(1, 4), u_max=st.integers(0, 6),
                  k=st.integers(1, 3))
def test_full_sum_matches_path_enumeration(seed, t_len, u_max, k):
    # u_max up to 6 against t_len up to 4 covers U > T; shorter sequences
    # share the padded grid and must ignore the cells past their length
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, u_max + 1, size=k)
    lens[0] = u_max
    x = rng.normal(size=(k, t_len, u_max + 1)) * 2.0
    lb = -np.logaddexp(0.0, -x)
    le = -np.logaddexp(0.0, x[:, :, :u_max]) + np.log(rng.uniform(0.05, 1.0, size=(k, t_len, u_max)))
    got = T.transducer_full_sum(T.constant(lb), T.constant(le), lens).data
    want = enumerated_full_sums(lb, le, lens, [t_len] * k)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), t_len=st.integers(1, 5), u_max=st.integers(0, 5),
                  k=st.integers(1, 4))
def test_unequal_frames_match_path_enumeration(seed, t_len, u_max, k):
    # a padded batch: sequence k ends at frame frames[k] - 1, and the junk
    # cells past it, here of any finite size, get an exact-zero gradient
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, u_max + 1, size=k)
    frames = rng.integers(1, t_len + 1, size=k)
    x = rng.normal(size=(k, t_len, u_max + 1)) * 2.0
    lb_np = -np.logaddexp(0.0, -x)
    le_np = -np.logaddexp(0.0, x[:, :, :u_max]) + np.log(rng.uniform(0.05, 1.0, size=(k, t_len, u_max)))
    for kk, f in enumerate(frames):
        lb_np[kk, f:] = rng.normal(size=lb_np[kk, f:].shape) * 50.0
        le_np[kk, f:] = rng.normal(size=le_np[kk, f:].shape) * 50.0
    lb, le = T.Tensor(lb_np, trainable=True), T.Tensor(le_np, trainable=True)
    with T.Tape() as tape:
        sums = T.transducer_full_sum(lb, le, lens, frames)
        loss = T.matmul(sums, T.constant(rng.normal(size=k)))
    tape.backward(loss)
    want = enumerated_full_sums(lb_np, le_np, lens, frames)
    np.testing.assert_allclose(sums.data, want, rtol=0, atol=1e-10)
    for kk, f in enumerate(frames):
        assert not lb.grad[kk, f:].any() and not le.grad[kk, f:].any()

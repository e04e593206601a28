"""Property test: the full-sum primitive is the sum over every alignment."""

import math

import numpy as np
import pytest

from hatfusion import tensor as T

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def enumerated_full_sums(lb, le, lens):
    """Log-sum over every monotonic path, walked recursively per sequence."""
    t_len = lb.shape[1]
    out = []
    for k, n in enumerate(lens):
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
    np.testing.assert_allclose(got, enumerated_full_sums(lb, le, lens), rtol=0, atol=1e-10)

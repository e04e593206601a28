"""Property tests: every artifact format reads back what was written."""

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hatfusion import lm as L
from hatfusion import tensor as T
from hatfusion.decode import Hypothesis, NBestList, load_nbest, save_nbest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

bounded = hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def param_sets(draw):
    names = draw(st.lists(st.text(max_size=6), max_size=4, unique=True))
    ps = T.ParamSet()
    for name in names:
        # an empty shape is a 0-d entry; zero-length axes are allowed
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        ps.add(name, draw(hnp.arrays(np.float64, shape)))
    return ps


@bounded
@hypothesis.given(ps=param_sets())
def test_param_container_round_trips_bit_for_bit(ps):
    blob = ps.to_bytes()
    back = T.ParamSet.from_bytes(blob)
    assert back.names() == ps.names()
    for (_, a), (_, b) in zip(ps.items(), back.items()):
        assert b.data.shape == a.data.shape and b.data.dtype == np.float64
        assert b.data.tobytes() == a.data.tobytes()
    assert back.to_bytes() == blob
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            T.ParamSet.from_bytes(blob[:cut])


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def hypotheses(draw):
    tokens = tuple(draw(st.lists(st.integers(0, 9), max_size=4)))
    # a list made before score attachment carries empty per-token arrays
    scored = draw(st.booleans())
    n = len(tokens) if scored else 0
    return Hypothesis(
        tokens=tokens,
        e2e_search=draw(finite),
        ilm_scores=np.array(draw(st.lists(finite, min_size=n, max_size=n)), dtype=float),
        elm_scores=np.array(draw(st.lists(finite, min_size=n, max_size=n)), dtype=float),
        combined=draw(finite),
        truncated=draw(st.booleans()),
        e2e_fullsum=draw(st.none() | finite),
    )


nbest_lists = st.builds(NBestList, uid=st.text(max_size=8),
                        reference=st.lists(st.integers(0, 9), max_size=4),
                        hyps=st.lists(hypotheses(), max_size=3),
                        ilm_weight=finite, elm_weight=finite)


@bounded
@hypothesis.given(lists=st.lists(nbest_lists, max_size=3))
def test_nbest_file_round_trips_exactly(lists):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "n.jsonl"
        save_nbest(lists, path)
        back = load_nbest(path)
    assert len(back) == len(lists)
    for nb, got in zip(lists, back):
        assert (got.uid, got.reference) == (nb.uid, nb.reference)
        assert bits([got.ilm_weight, got.elm_weight]) == bits([nb.ilm_weight, nb.elm_weight])
        assert len(got.hyps) == len(nb.hyps)
        for h, g in zip(nb.hyps, got.hyps):
            assert (g.tokens, g.truncated) == (h.tokens, h.truncated)
            assert bits([g.e2e_search, g.combined]) == bits([h.e2e_search, h.combined])
            if h.e2e_fullsum is None:
                assert g.e2e_fullsum is None
            else:
                assert bits(g.e2e_fullsum) == bits(h.e2e_fullsum)
            for want, have in ((h.ilm_scores, g.ilm_scores), (h.elm_scores, g.elm_scores)):
                assert have.dtype == np.float64 and have.shape == want.shape
                assert have.tobytes() == want.tobytes()


@bounded
@hypothesis.given(v=st.integers(1, 4), order=st.integers(1, 3),
                  smoothing=st.floats(0.0, 2.0), data=st.data())
def test_lm_file_gives_identical_distributions(v, order, smoothing, data):
    corpus = data.draw(st.lists(st.lists(st.integers(0, v - 1), max_size=5), min_size=1,
                                max_size=6))
    lm = L.train_ngram(corpus, order=order, smoothing=smoothing, vocab=list(range(v)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.lm"
        L.save_lm(lm, path)
        back = L.load_lm(path)
    assert (back.order, back.vocab_size) == (lm.order, lm.vocab_size)
    # every context seen in training, and every unseen one of full length
    contexts = set(lm.counts) | set(itertools.product([L.BOS, *range(v)], repeat=order - 1))
    for ctx in contexts:
        assert back.context_dist(ctx).tobytes() == lm.context_dist(ctx).tobytes()

"""Property test: the list ILM replay, ``HatModel.internal_lm_log_prob``,
gives every sequence of a list the one-sequence replay's scores bit for bit,
whatever prefixes, duplicates and empty sequences the list holds."""

import numpy as np
import pytest

from hatfusion import tensor as T
from hatfusion.hat import HatConfig, HatModel

from conftest import reference_ilm

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _model(seed, vocab, hidden):
    cfg = HatConfig(vocab_size=vocab, acoustic_size=4, embed_dim=3, hidden_dim=hidden,
                    joint_dim=hidden)
    return HatModel(cfg, seed=seed)


@hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), vocab=st.integers(1, 4),
                  hidden=st.sampled_from([4, 16]),
                  seqs=st.lists(st.lists(st.integers(0, 3), max_size=6), max_size=8),
                  extra=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 6)), max_size=4))
def test_list_replay_equals_one_sequence_replay(seed, vocab, hidden, seqs, extra):
    seqs = [[tok % vocab for tok in s] for s in seqs]
    # a prefix of a drawn sequence, or the sequence again when the cut passes its end
    seqs += [seqs[i % len(seqs)][:cut] for i, cut in extra if seqs]
    model = _model(seed, vocab, hidden)
    got = model.internal_lm_log_prob(seqs)
    assert len(got) == len(seqs)
    for s, scores in zip(seqs, got):
        want = reference_ilm(model, s)
        assert scores.dtype == want.dtype and scores.shape == want.shape
        np.testing.assert_array_equal(scores, want)


def test_no_sequences_give_no_arrays():
    assert _model(0, 3, 4).internal_lm_log_prob([]) == []


def test_list_replay_records_nothing_under_a_tape():
    model = _model(1, 3, 4)
    with T.Tape() as tape:
        got = model.internal_lm_log_prob([[2, 0, 1], [2, 0], [], (1,)])
    assert len(tape) == 0
    assert [s.shape for s in got] == [(3,), (2,), (0,), (1,)]


def test_out_of_range_label_is_refused():
    with pytest.raises(ValueError, match="label"):
        _model(2, 3, 4).internal_lm_log_prob([[0, 1], [3]])

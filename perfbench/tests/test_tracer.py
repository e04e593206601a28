"""Self-checks of the outside-in tracer on shrunken workload rounds.

    python3 -m pytest -q perfbench/tests
"""

import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from hatfusion import decode, hat, lfm, lm, sweep, tensor, training  # noqa: E402

import workloads  # noqa: E402
from tracer import StepClock, Tracer  # noqa: E402


def _counters():
    return (decode.beam_call_count(), hat.lattice_sweep_count(), sweep.sweep_eval_count())


@pytest.fixture(scope="module")
def traced():
    """Each workload's shrunken round run once under the tracer."""
    out = {}
    saved = workloads.WARMUP_STEPS
    workloads.WARMUP_STEPS = 5
    try:
        for name, w in workloads.WORKLOADS.items():
            ctx = w.setup(0)
            before = _counters()
            tracer = Tracer()
            t0 = time.perf_counter()
            with tracer:
                w.round(ctx, w.warm_sizes, tracer)
            wall = time.perf_counter() - t0
            out[name] = (tracer, before, _counters(), wall)
    finally:
        workloads.WARMUP_STEPS = saved
    return out


def test_by_name_imports_are_rebound_then_restored():
    by_name = [(decode, "advance_state"), (decode, "next_token_logprobs"),
               (decode, "score_tokens"), (training, "beam_search"),
               (training, "beam_search_plain"), (sweep, "beam_search"),
               (sweep, "beam_search_plain"), (sweep, "prepare_rescoring"),
               (training, "prepare_rescoring"), (lfm, "score_tokens")]
    methods = [(hat.HatModel, "score_sequences"), (tensor.Tape, "backward"),
               (tensor.Adam, "step"), (lfm.LfmModel, "forward")]
    originals = [getattr(o, a) for o, a in by_name + methods]
    with Tracer():
        for (owner, attr), orig in zip(by_name + methods, originals):
            now = getattr(owner, attr)
            assert now is not orig and now.__wrapped__ is orig, (owner, attr)
    for (owner, attr), orig in zip(by_name + methods, originals):
        assert getattr(owner, attr) is orig, (owner, attr)
    assert lm.advance_state is decode.advance_state


def test_call_counts_match_program_counters(traced):
    for name, (tracer, before, after, _) in traced.items():
        beams, lattices, points = (a - b for a, b in zip(after, before))
        assert tracer.stats["decode.search"].calls == beams, name
        assert tracer.stats["hat.score_sequences"].calls == lattices, name
        assert tracer.points == points, name
    assert traced["fusion-mwer"][0].points > 0
    assert traced["fusion-mwer"][0].stats["decode.search"].calls > 0


def test_self_time_never_exceeds_wall_time(traced):
    for name, (tracer, _, _, wall) in traced.items():
        assert 0 < tracer.self_seconds() <= wall, name
        for stat in tracer.stats.values():
            assert stat.self_s <= stat.incl_s + 1e-12


def test_mle_train_makes_no_search_lm_or_lfm_calls(traced):
    stats = traced["mle-train"][0].stats
    busy = [n for n, s in stats.items() if n.split(".")[0] in ("decode", "lm", "lfm") and s.calls]
    assert busy == []
    assert stats["tensor.backward"].calls > 0


def test_rescore_lfm_makes_no_ilm_search_calls(traced):
    stats = traced["rescore-lfm"][0].stats
    assert stats["hat.ilm_logprobs_np"].calls == 0
    assert stats["hat.internal_lm_log_prob"].calls > 0
    assert stats["lfm.forward"].calls > 0


def test_step_clock_splits_training_into_steps(traced):
    tracer = traced["fusion-mwer"][0]
    steps = [op for op in tracer.ops if op[0] == "step"]
    assert len(steps) == workloads.WORKLOADS["fusion-mwer"].warm_sizes.steps
    shares = tracer.step_shares()
    assert 0 < shares["decode"] and sum(shares.values()) <= 1.0
    orig = tensor.Adam.step
    with StepClock() as clock:
        opt = tensor.Adam(1e-3)
        ps = tensor.ParamSet()
        ps.add("w", [1.0])
        ps.zero_grads()
        opt.step(ps)
        opt.step(ps)
    assert len(clock.intervals()) == 2
    assert tensor.Adam.step is orig

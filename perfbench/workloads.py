"""The benchmark's workloads: set-up and one deterministic round each.

Everything derives from the seed: the task, the external LM (ELM) fitted
on the task's text, the model initialisation and the batch order. A round
restarts from the set-up state, so every round of one seed must give
bit-identical outputs; the runner checks that and pools the timings.

Scale follows the acceptance benchmark (``BENCH_TASK``, ``BENCH_HAT`` and
``BENCH_BEAM`` in ``tests/test_acceptance.py``). Sweep grids, step counts
and corpus slices are cut down so that one round takes seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from hatfusion import data, decode, hat, lfm, lm, sweep, training
from tracer import StepClock

BENCH_TASK = dict(vocab_size=12, rare_count=3, train_size=300, dev_size=60,
                  test_size=100, text_only_size=2500, noise_rate=0.12,
                  max_words=4, acoustic_symbols=8)
BENCH_HAT = dict(vocab_size=12, acoustic_size=8, embed_dim=8, hidden_dim=16,
                 joint_dim=16)
BENCH_BEAM = dict(beam_size=8, max_tokens=8, frame_cap=4)
MLE_RECIPE = dict(batch_size=4, lr=2e-3)
ELM_SMOOTHING = 0.2
FUSION = dict(lam=0.2, gam=0.3)
SWEEP_GRID = dict(ilm_grid=[0.0, 0.2], elm_grid=[0.0, 0.3])
WARMUP_STEPS = 100
IDENTITY_SAMPLE = 4


@dataclass
class Sizes:
    """Work in one round; ``dev`` and ``test`` are utterances per split."""

    steps: int
    dev: int = 0
    test: int = 0


@dataclass
class Context:
    """Set-up state shared by every round of one run."""

    seed: int
    task: data.SynthTask
    elm: object = None
    warm: dict | None = None  # MLE warm-up parameter values
    fingerprint: tuple = ()  # warm-up losses and weights, compared across set-ups


@dataclass
class Round:
    """Timings, outputs and failure counts of one round."""

    wall_s: float = 0.0
    step_s: list = field(default_factory=list)
    decode_s: list = field(default_factory=list)
    rescore_s: list = field(default_factory=list)
    sweep_s: float | None = None
    losses: list = field(default_factory=list)
    wer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)  # compared across rounds
    problems: list = field(default_factory=list)  # failed output checks


# -- set-up -------------------------------------------------------------------


def _task(seed: int) -> data.SynthTask:
    return data.generate_task(data.TaskConfig(seed=seed, **BENCH_TASK))


def setup_task(seed: int) -> Context:
    return Context(seed, _task(seed))


def setup_warm(seed: int) -> Context:
    """Task, ELM and a shortened MLE warm-up at the acceptance recipe."""
    task = _task(seed)
    elm = lm.train_ngram(task.text_only, order=2, smoothing=ELM_SMOOTHING,
                         vocab=list(range(task.config.vocab_size)))
    model, log = training.train_mle(
        training.TrainConfig(regime="mle", steps=WARMUP_STEPS, seed=seed, **MLE_RECIPE),
        task.train, hat_config=hat.HatConfig(**BENCH_HAT))
    return Context(seed, task, elm, model.params.copy_values(),
                   fingerprint=(tuple(log.losses()), model.params.to_bytes()))


def _warm_model(ctx: Context) -> hat.HatModel:
    model = hat.HatModel(hat.HatConfig(**BENCH_HAT), seed=ctx.seed)
    model.params.set_values(ctx.warm)
    return model


# -- shared pieces ------------------------------------------------------------


def _open(tracer, kind: str) -> None:
    if tracer is not None:
        tracer.open_op(kind)


def _train(r: Round, tracer, train, config: training.TrainConfig, *args, **kwargs):
    """Run one ``training.train_*`` call under the step clock; count its failures."""
    _open(tracer, "train")
    with StepClock(tracer.close_step if tracer is not None else None) as clock:
        out, log = train(config, *args, **kwargs)
    r.step_s += clock.intervals()
    r.losses += log.losses()
    r.outputs.append(tuple(r.losses))
    events = [rec["event"] for rec in log.records if "event" in rec]
    skipped = max((rec.get("skipped", 0) for rec in log.records), default=0)
    lists_per_step = 0 if config.regime == "mle" else config.batch_size
    r.attempted += config.steps * (1 + lists_per_step)
    r.failed += len(events) + skipped
    return out


def _sweep(r: Round, tracer, spec: sweep.SweepSpec, model, elm, dev_sets) -> None:
    _open(tracer, "sweep")
    t0 = time.perf_counter()
    r.attempted += len(spec.points())
    try:
        result = sweep.run_sweep(spec, model, elm, dev_sets,
                                 beam_cfg=decode.BeamConfig(**BENCH_BEAM))
    except RuntimeError:  # every grid point failed
        r.failed += len(spec.points())
        return
    finally:
        r.sweep_s = time.perf_counter() - t0
    r.failed += sum(row["status"] != "ok" for row in result.rows)
    r.outputs.append(tuple((row["ilm"], row["elm"], row["average"]) for row in result.rows))
    if len(result.rows) != len(spec.points()):
        r.problems.append("sweep returned a row count other than its grid size")


def _list_ok(r: Round, nb: decode.NBestList) -> bool:
    """Count one N-best list; an empty or non-finite list is a failure."""
    r.attempted += 1
    ok = bool(nb.hyps) and all(np.isfinite(h.combined) for h in nb.hyps)
    r.failed += not ok
    return ok


def _wer(r: Round, split: str, corpus: list, lists: list) -> None:
    tops = [list(nb.hyps[0].tokens) if nb.hyps else [] for nb in lists]
    value = data.wer(tops, [list(u.reference) for u in corpus])
    if not np.isfinite(value) or value < 0:
        r.problems.append(f"WER on {split} is {value}")
    r.wer[split] = value
    r.outputs.append(tuple(map(tuple, tops)))


def _test_pair(ctx: Context, n: int) -> dict:
    return {"common": ctx.task.test_common[:n], "rare": ctx.task.test_rare[:n]}


def _dev_pair(ctx: Context, n: int) -> tuple:
    return ctx.task.dev_common[:n], ctx.task.dev_rare[:n]


def check_search_identity(ctx: Context) -> list:
    """Fused search at zero weights must equal plain search bit for bit."""
    model = _warm_model(ctx)
    cfg = decode.BeamConfig(**BENCH_BEAM)
    problems = []
    for utt in ctx.task.test_rare[:IDENTITY_SAMPLE]:
        fused = decode.beam_search(utt, model, ctx.elm, cfg)
        plain = decode.beam_search_plain(utt, model, cfg)
        a = [(h.tokens, h.e2e_search, h.combined) for h in fused.hyps]
        b = [(h.tokens, h.e2e_search, h.combined) for h in plain.hyps]
        if a != b:
            problems.append(f"zero-weight fused search differs from plain search on {utt.uid}")
    return problems


# -- rounds -------------------------------------------------------------------


def mle_round(ctx: Context, sizes: Sizes, tracer=None) -> Round:
    """MLE training from random init at the acceptance recipe."""
    r = Round()
    config = training.TrainConfig(regime="mle", steps=sizes.steps, seed=ctx.seed,
                                  log_every=1, **MLE_RECIPE)
    _train(r, tracer, training.train_mle, config, ctx.task.train,
           hat_config=hat.HatConfig(**BENCH_HAT))
    return r


def fusion_round(ctx: Context, sizes: Sizes, tracer=None) -> Round:
    """Shallow-fusion sweep, LM-aware MWER, then fused decoding of the test pair."""
    r = Round()
    model = _warm_model(ctx)
    _sweep(r, tracer, sweep.SweepSpec(**SWEEP_GRID), model, ctx.elm, _dev_pair(ctx, sizes.dev))
    config = training.TrainConfig(regime="mwer", steps=sizes.steps, batch_size=4,
                                  seed=ctx.seed, tie_weights=True, log_every=1,
                                  beam_size=BENCH_BEAM["beam_size"],
                                  max_tokens=BENCH_BEAM["max_tokens"], **FUSION)
    _train(r, tracer, training.train_mwer, config, ctx.task.train, model, elm=ctx.elm)
    fused = decode.BeamConfig(ilm_weight=FUSION["lam"], elm_weight=FUSION["gam"], **BENCH_BEAM)
    for split, corpus in _test_pair(ctx, sizes.test).items():
        lists = []
        for utt in corpus:
            _open(tracer, "decode")
            t0 = time.perf_counter()
            nb = decode.beam_search(utt, model, ctx.elm, fused)
            r.decode_s.append(time.perf_counter() - t0)
            _list_ok(r, nb)
            lists.append(nb)
        _wer(r, split, corpus, lists)
    return r


def rescore_round(ctx: Context, sizes: Sizes, tracer=None) -> Round:
    """Rescoring sweep, LFM training, then LFM re-ranking of the test pair."""
    r = Round()
    model = _warm_model(ctx)
    _sweep(r, tracer, sweep.SweepSpec(mode="rescoring", **SWEEP_GRID), model, ctx.elm,
           _dev_pair(ctx, sizes.dev))
    config = training.TrainConfig(regime="lfm", steps=sizes.steps, batch_size=4,
                                  seed=ctx.seed, beam_size=BENCH_BEAM["beam_size"],
                                  max_tokens=BENCH_BEAM["max_tokens"])
    fusion = _train(r, tracer, training.train_lfm, config,
                    ctx.task.dev_common + ctx.task.dev_rare, model, ctx.elm)
    beam = decode.BeamConfig(**BENCH_BEAM)
    for split, corpus in _test_pair(ctx, sizes.test).items():
        lists = []
        for utt in corpus:
            _open(tracer, "decode")
            t0 = time.perf_counter()
            try:
                [(_, prepared)] = sweep.prepare_corpus(model, ctx.elm, [utt], beam)
            except ValueError:  # an empty list cannot be rescored
                prepared = decode.NBestList(utt.uid, list(utt.reference), [])
            r.decode_s.append(time.perf_counter() - t0)
            if not _list_ok(r, prepared):
                lists.append(prepared)
                continue
            _open(tracer, "rescore")
            t0 = time.perf_counter()
            ranked = lfm.rescore_with_lfm(utt, prepared, model, ctx.elm, fusion)
            r.rescore_s.append(time.perf_counter() - t0)
            _list_ok(r, ranked)
            lists.append(ranked)
        _wer(r, split, corpus, lists)
    return r


@dataclass
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    setup: object
    round: object
    sizes: Sizes
    warm_sizes: Sizes
    decodes: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mle-train", setup_task, mle_round, Sizes(steps=100), Sizes(steps=2), decodes=False),
        Workload("fusion-mwer", setup_warm, fusion_round, Sizes(steps=40, dev=6, test=30),
                 Sizes(steps=1, dev=1, test=1)),
        Workload("rescore-lfm", setup_warm, rescore_round, Sizes(steps=40, dev=15, test=30),
                 Sizes(steps=1, dev=1, test=1)),
    )
}

"""Training loops: likelihood warmup, expected-error fine-tuning, and
fusion-weight fitting, all with deterministic batching and line-delimited
run logs.

Each regime shares the same skeleton: sample a batch with the config's
seed, build one loss on one tape, step Adam, log. The expected-error
regime regenerates its lists from the current model every step; the
fusion-weight regime's recognizer is frozen, so it prepares each list once
per call. A search never returns an empty list (see ``decode``), so every
step has a loss. Divergence (a non-finite loss) aborts the run and
restores the last snapshot, taken every ``_CHECKPOINT_EVERY`` steps.

A config field that its regime does not read must keep its default:
``mle`` reads neither the fusion weights nor the beam fields, and ``lfm``
decodes LM-free and takes its weights from the fusion module, so it reads
no fusion weight. Setting such a field raises instead of being ignored;
so does a tied config's ``mu`` or ``nu`` that is neither 0.0 nor its tie.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .decode import BeamConfig, beam_search, beam_search_plain
from .hat import HatConfig, HatModel, check_field_types, read_jsonl
from .lfm import LfmConfig, LfmModel, prepare_rescoring, train_lfm_step, weight_stats
from .mwer import MwerConfig, composite_batch_loss

_REGIMES = ("mle", "mwer", "lfm")
_DEFAULT_LR = {"mle": 1e-3, "mwer": 1e-4, "lfm": 1e-4}
_FUSION_FIELDS = ("lam", "gam", "mu", "nu", "theta", "tie_weights")
_BEAM_FIELDS = ("beam_size", "max_tokens", "frame_cap")
_UNREAD = {"mle": _FUSION_FIELDS + _BEAM_FIELDS, "mwer": (), "lfm": _FUSION_FIELDS}
_CHECKPOINT_EVERY = 100


@dataclass
class TrainConfig:
    regime: str
    steps: int
    batch_size: int = 8
    lr: float = 0.0  # 0 means the regime default
    seed: int = 0
    lam: float = 0.0
    gam: float = 0.0
    mu: float = 0.0
    nu: float = 0.0
    theta: float = 0.005
    tie_weights: bool = False  # reuse the search weights as loss weights
    beam_size: int = 8
    max_tokens: int = 16
    frame_cap: int = 4
    log_every: int = 10

    def __post_init__(self):
        check_field_types(self)
        if self.regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES}, got {self.regime!r}")
        defaults = {f.name: f.default for f in fields(self)}
        for name in _UNREAD[self.regime]:
            if getattr(self, name) != defaults[name]:
                raise ValueError(f"the {self.regime} regime does not read {name}; "
                                 f"leave it at {defaults[name]!r}")
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("need steps >= 0 and batch_size >= 1")
        if min(self.lam, self.gam, self.mu, self.nu, self.theta) < 0:
            raise ValueError("fusion weights must be nonnegative")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.tie_weights:
            for name, tied in (("mu", "lam"), ("nu", "gam")):
                if getattr(self, name) not in (0.0, getattr(self, tied)):
                    raise ValueError(f"tie_weights sets {name} to {tied}; leave {name} at "
                                     f"0.0 or {getattr(self, tied)!r}")
            self.mu, self.nu = self.lam, self.gam
        if self.lr == 0.0:
            self.lr = _DEFAULT_LR[self.regime]
        if self.lr < 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        self.beam_config()  # BeamConfig checks the beam fields

    def beam_config(self) -> BeamConfig:
        return BeamConfig(
            beam_size=self.beam_size,
            ilm_weight=self.lam,
            elm_weight=self.gam,
            max_tokens=self.max_tokens,
            frame_cap=self.frame_cap,
        )


class RunLog:
    """Append-only sequence of JSON records, starting with the config echo."""

    def __init__(self, config: TrainConfig | None = None, records=None):
        self.records: list[dict] = list(records) if records else []
        if config is not None:
            self.records.append({"kind": "config", **asdict(config)})

    def append(self, **record) -> None:
        self.records.append(record)

    def losses(self) -> list[float]:
        return [r["loss"] for r in self.records if "loss" in r]

    def to_bytes(self) -> bytes:
        lines = [json.dumps(r, sort_keys=True) for r in self.records]
        return ("\n".join(lines) + "\n").encode()

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path) -> "RunLog":
        return cls(records=[rec for _, rec in read_jsonl(path, {})])


def _batch_rng(config: TrainConfig) -> np.random.Generator:
    return np.random.default_rng([config.seed, 0x7261])


def _sample(rng, data: list, size: int) -> list:
    return [data[i] for i in rng.integers(0, len(data), size=size)]


def _run_steps(config: TrainConfig, params: T.ParamSet, step_fn, log: RunLog,
               extra_log=None) -> None:
    """Shared driver: step, divergence guard, snapshots, logging.

    ``step_fn`` returns the step's loss. A non-finite loss restores the last
    snapshot, logs a ``diverged`` event and ends the run.
    """
    optimizer = T.Adam(config.lr)
    saved, saved_step = params.copy_values(), 0
    for step in range(1, config.steps + 1):
        loss = step_fn(step, optimizer)
        if not np.isfinite(loss):
            params.set_values(saved)
            log.append(event="diverged", step=step, restored_step=saved_step)
            warnings.warn(f"non-finite loss at step {step}; restored step-{saved_step} snapshot")
            break
        if step % config.log_every == 0 or step == config.steps:
            record = {"step": step, "loss": float(loss)}
            if extra_log is not None:
                record.update(extra_log(step))
            log.append(**record)
        if step % _CHECKPOINT_EVERY == 0:
            saved, saved_step = params.copy_values(), step


def train_mle(config: TrainConfig, train_data: list, hat_config: HatConfig) -> tuple[HatModel, RunLog]:
    """Fit a fresh lattice model, built from ``hat_config`` and initialised
    from ``config.seed``, by maximum likelihood on reference transcripts;
    each step's batch is one graph (``HatModel.mle_loss``)."""
    if config.regime != "mle":
        raise ValueError(f"train_mle got a {config.regime!r} config")
    if not train_data:
        raise ValueError("empty training set")
    model = HatModel(hat_config, seed=config.seed)
    log = RunLog(config)
    rng = _batch_rng(config)

    def step_fn(step, optimizer):
        batch = _sample(rng, train_data, config.batch_size)
        model.params.zero_grads()
        with T.Tape() as tape:
            loss = model.mle_loss(batch)
            tape.backward(loss)
        value = float(loss.data)
        if np.isfinite(value):
            optimizer.step(model.params)
        return value

    _run_steps(config, model.params, step_fn, log)
    return model, log


def train_mwer(config: TrainConfig, train_data: list, model: HatModel,
               elm=None) -> tuple[HatModel, RunLog]:
    """Minimize expected word errors over freshly decoded hypothesis lists.

    The loss is the one LM-aware objective; regular MWER is its zero-weight
    case. Lists come from the fused search whenever an external LM or an ILM
    weight is given, and from the LM-free search otherwise, which at zero
    weights gives the same lists. gamma or nu > 0 without an external LM is
    refused, as its term would silently read zeros. Every search returns
    at least one hypothesis, so each utterance of a batch adds one list. A
    step's lists are scored as one graph (``mwer.composite_batch_loss``):
    one encoder recurrence and one lattice sweep, whatever the batch size.
    """
    if config.regime != "mwer":
        raise ValueError(f"train_mwer got a {config.regime!r} config")
    if not train_data:
        raise ValueError("empty training set")
    if elm is None and (config.gam > 0 or config.nu > 0):
        raise ValueError("gamma > 0 or nu > 0 needs an external LM")
    fused = elm is not None or config.lam > 0
    beam_cfg = config.beam_config()
    mwer_cfg = MwerConfig(mu=config.mu, nu=config.nu, theta=config.theta)
    log = RunLog(config)
    rng = _batch_rng(config)

    def step_fn(step, optimizer):
        batch = _sample(rng, train_data, config.batch_size)
        pairs = [(utt, beam_search(utt, model, elm, beam_cfg) if fused
                  else beam_search_plain(utt, model, beam_cfg)) for utt in batch]
        model.params.zero_grads()
        with T.Tape() as tape:
            loss = composite_batch_loss(pairs, model, mwer_cfg)
            tape.backward(loss)
        value = float(loss.data)
        if np.isfinite(value):
            optimizer.step(model.params)
        return value

    _run_steps(config, model.params, step_fn, log)
    return model, log


def train_lfm(config: TrainConfig, train_data: list, hat: HatModel, elm,
              lfm_config: LfmConfig | None = None,
              stats_data: list | None = None) -> tuple[LfmModel, RunLog]:
    """Fit per-token fusion weights against a frozen recognizer and LM.

    The fusion module is built fresh from ``lfm_config`` (by default one
    sized to ``hat``) and initialised from ``config.seed``. Each list is an
    LM-free decode of the frozen model with scores attached, made once per
    call: for a ``train_data`` position on its first draw, for ``stats_data``
    up front. Each logging step records the emitted-weight statistics of the
    step's batch and, when ``stats_data`` is given, of that fixed set.
    """
    if config.regime != "lfm":
        raise ValueError(f"train_lfm got a {config.regime!r} config")
    if not train_data:
        raise ValueError("empty training set")
    if lfm_config is None:
        lfm_config = LfmConfig(vocab_size=hat.config.vocab_size, enc_dim=hat.config.hidden_dim)
    lfm = LfmModel(lfm_config, seed=config.seed)
    beam_cfg = config.beam_config()
    log = RunLog(config)
    rng = _batch_rng(config)

    def prepare(utt):
        return utt, prepare_rescoring(utt, beam_search_plain(utt, hat, beam_cfg), hat, elm)
    fixed_pairs = [prepare(utt) for utt in stats_data] if stats_data else None
    prepared: dict = {}  # train_data position -> its prepared pair, for this call
    batch_pairs: list = []

    def step_fn(step, optimizer):
        nonlocal batch_pairs
        batch = _sample(rng, range(len(train_data)), config.batch_size)
        for i in batch:
            if i not in prepared:  # a position's first draw
                prepared[i] = prepare(train_data[i])
        batch_pairs = [prepared[i] for i in batch]
        return train_lfm_step(batch_pairs, hat, lfm, optimizer)

    def extra_log(step):
        record = {"train_stats": asdict(weight_stats(batch_pairs, lfm, hat))}
        if fixed_pairs:
            record["dev_stats"] = asdict(weight_stats(fixed_pairs, lfm, hat))
        return record

    _run_steps(config, lfm.params, step_fn, log, extra_log=extra_log)
    return lfm, log

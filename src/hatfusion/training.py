"""Training loops: likelihood warmup, expected-error fine-tuning, and
fusion-weight fitting, all with deterministic batching and line-delimited
run logs.

Each regime shares the same skeleton: sample a batch with the config's
seed, build one loss on one tape, step Adam, log. The expected-error
regime regenerates its hypothesis lists from the current model every step;
nothing is cached across steps. Divergence (a non-finite loss) aborts the
run and restores the last snapshot taken at the checkpoint cadence.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .decode import BeamConfig, beam_search, beam_search_plain
from .hat import HatConfig, HatModel
from .lfm import LfmConfig, LfmModel, prepare_rescoring, train_lfm_step, weight_stats
from .mwer import MwerConfig, composite_loss

_REGIMES = ("mle", "mwer", "lfm")
_DEFAULT_LR = {"mle": 1e-3, "mwer": 1e-4, "lfm": 1e-4}


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
    checkpoint_every: int = 100
    log_every: int = 10

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES}, got {self.regime!r}")
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("need steps >= 0 and batch_size >= 1")
        if min(self.lam, self.gam, self.mu, self.nu, self.theta) < 0:
            raise ValueError("fusion weights must be nonnegative")
        if self.checkpoint_every < 1 or self.log_every < 1:
            raise ValueError("cadences must be >= 1")
        if self.tie_weights:
            self.mu, self.nu = self.lam, self.gam
        if self.regime == "lfm":
            # weights come from the fusion model; the search stays LM-free
            self.lam = 0.0
            self.gam = 0.0
        if self.lr == 0.0:
            self.lr = _DEFAULT_LR[self.regime]
        if self.lr < 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")

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
        records = [json.loads(line) for line in Path(path).read_text().splitlines()]
        return cls(records=records)


def _batch_rng(config: TrainConfig) -> np.random.Generator:
    return np.random.default_rng([config.seed, 0x7261])


def _sample(rng, data: list, size: int) -> list:
    return [data[i] for i in rng.integers(0, len(data), size=size)]


class _Snapshot:
    """Rolling restore point for divergence aborts."""

    def __init__(self, params: T.ParamSet, every: int):
        self.params = params
        self.every = every
        self.values = params.copy_values()
        self.step = 0

    def update(self, step: int) -> None:
        if step % self.every == 0:
            self.values = self.params.copy_values()
            self.step = step

    def restore(self) -> int:
        self.params.set_values(self.values)
        return self.step


def _run_steps(config: TrainConfig, params: T.ParamSet, step_fn, log: RunLog,
               extra_log=None) -> None:
    """Shared driver: step, divergence guard, snapshots, logging.

    ``step_fn`` returns the step's loss, or None when its batch came back
    empty; such a step logs an ``empty_batch`` event, records no loss and
    takes no snapshot.
    """
    optimizer = T.make_optimizer("adam", config.lr)
    snap = _Snapshot(params, config.checkpoint_every)
    for step in range(1, config.steps + 1):
        loss = step_fn(step, optimizer)
        if loss is None:
            log.append(event="empty_batch", step=step)
            continue
        if not np.isfinite(loss):
            restored = snap.restore()
            log.append(event="diverged", step=step, restored_step=restored)
            warnings.warn(
                f"non-finite loss at step {step}; restored step-{restored} snapshot"
            )
            break
        if step % config.log_every == 0 or step == config.steps:
            record = {"step": step, "loss": float(loss)}
            if extra_log is not None:
                record.update(extra_log(step))
            log.append(**record)
        snap.update(step)


def train_mle(config: TrainConfig, train_data: list, hat_config: HatConfig | None = None,
              model: HatModel | None = None) -> tuple[HatModel, RunLog]:
    """Fit the lattice model by maximum likelihood on reference transcripts."""
    if config.regime != "mle":
        raise ValueError(f"train_mle got a {config.regime!r} config")
    if model is None:
        if hat_config is None:
            raise ValueError("need either a model or a model config")
        model = HatModel(hat_config, seed=config.seed)
    if not train_data:
        raise ValueError("empty training set")
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


def train_mwer(config: TrainConfig, train_data: list, model: HatModel, elm=None,
               lm_path: bool | None = None) -> tuple[HatModel, RunLog]:
    """Minimize expected word errors over freshly decoded hypothesis lists.

    ``lm_path`` selects the LM-aware machinery explicitly; by default it is
    on whenever an external LM or any nonzero weight is configured. A batch
    whose every list comes back empty is skipped and counted, not fatal.
    """
    if config.regime != "mwer":
        raise ValueError(f"train_mwer got a {config.regime!r} config")
    if not train_data:
        raise ValueError("empty training set")
    if lm_path is None:
        lm_path = elm is not None or any((config.lam, config.gam, config.mu, config.nu))
    if config.gam > 0 and elm is None:
        raise ValueError("gamma > 0 needs an external LM")
    beam_cfg = config.beam_config()
    plain_cfg = BeamConfig(beam_size=config.beam_size, max_tokens=config.max_tokens,
                           frame_cap=config.frame_cap)
    mwer_cfg = MwerConfig(mu=config.mu, nu=config.nu, theta=config.theta,
                          k=config.beam_size)
    log = RunLog(config)
    rng = _batch_rng(config)
    skipped = 0

    def step_fn(step, optimizer):
        nonlocal skipped
        batch = _sample(rng, train_data, config.batch_size)
        pairs = []
        for utt in batch:
            if lm_path:
                nb = beam_search(utt, model, elm, beam_cfg)
            else:
                nb = beam_search_plain(utt, model, plain_cfg)
            if not nb.hyps:
                skipped += 1
                warnings.warn(f"empty hypothesis list for {utt.uid}; skipped")
                continue
            pairs.append((utt, nb))
        if not pairs:
            return None
        model.params.zero_grads()
        with T.Tape() as tape:
            parts = [composite_loss(u, nb, model, mwer_cfg, lm_aware=lm_path)[None]
                     for u, nb in pairs]
            loss = T.mean_vec(T.concat(parts, axis=0))
            tape.backward(loss)
        value = float(loss.data)
        if np.isfinite(value):
            optimizer.step(model.params)
        return value

    _run_steps(config, model.params, step_fn, log,
               extra_log=lambda step: {"skipped": skipped})
    return model, log


def train_lfm(config: TrainConfig, train_data: list, hat: HatModel, elm,
              lfm: LfmModel | None = None, lfm_config: LfmConfig | None = None,
              stats_data: list | None = None) -> tuple[LfmModel, RunLog]:
    """Fit per-token fusion weights against a frozen recognizer and LM.

    Hypothesis lists are decoded LM-free from the frozen model each step.
    At every logging step the emitted-weight statistics are recorded for
    the step's batch and, when ``stats_data`` is given, for that fixed set
    (decoded once up front; the frozen model makes reuse exact).
    """
    if config.regime != "lfm":
        raise ValueError(f"train_lfm got a {config.regime!r} config")
    if not train_data:
        raise ValueError("empty training set")
    if lfm is None:
        if lfm_config is None:
            lfm_config = LfmConfig(vocab_size=hat.config.vocab_size,
                                   enc_dim=hat.config.hidden_dim)
        lfm = LfmModel(lfm_config, seed=config.seed)
    plain_cfg = BeamConfig(beam_size=config.beam_size, max_tokens=config.max_tokens,
                           frame_cap=config.frame_cap)
    mwer_cfg = MwerConfig(mu=config.mu, nu=config.nu, theta=config.theta,
                          k=config.beam_size)
    log = RunLog(config)
    rng = _batch_rng(config)

    def decode_pairs(utts):
        pairs = []
        for utt in utts:
            nb = beam_search_plain(utt, hat, plain_cfg)
            if nb.hyps:
                pairs.append((utt, prepare_rescoring(utt, nb, hat, elm)))
        return pairs

    fixed_pairs = decode_pairs(stats_data) if stats_data else None
    batch_pairs: list = []

    def step_fn(step, optimizer):
        nonlocal batch_pairs
        batch_pairs = decode_pairs(_sample(rng, train_data, config.batch_size))
        if not batch_pairs:
            return None
        return train_lfm_step(batch_pairs, hat, elm, lfm, mwer_cfg, optimizer)

    def extra_log(step):
        record = {"train_stats": asdict(weight_stats(batch_pairs, lfm, hat))}
        if fixed_pairs:
            record["dev_stats"] = asdict(weight_stats(fixed_pairs, lfm, hat))
        return record

    _run_steps(config, lfm.params, step_fn, log, extra_log=extra_log)
    return lfm, log

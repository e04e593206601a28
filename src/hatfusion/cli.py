"""Command-line pipeline over an append-only experiment directory.

Every command takes --exp-dir. gen-data, train-*, decode and sweep take an
optional JSON --config whose sections override the built-in defaults, and
their flags override the config in turn; of these, gen-data and train-*
draw random numbers and take --seed over the config's "seed". rescore, eval
and report only re-read artifacts. Each section holds one constructor's
keyword arguments (task: TaskConfig, hat: HatConfig, elm: train_ngram,
train_<regime>: TrainConfig, lfm: LfmConfig, sweep: SweepSpec, decode:
BeamConfig); "decode" is the beam for every search, below a training
section's own beam keys. A command builds all it needs, refusing a bad key,
before it writes anything. Artifacts are named <stage>-<hash>, plus -s<seed>
for seeded stages, the hash covering what the stage built and its parent, so
reruns with different settings never collide, and existing artifacts are
never overwritten. A .lock file in the experiment directory keeps
concurrent invocations out.

Exit codes: 0 success, 2 usage or configuration, 3 missing artifact,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import MISSING, asdict, fields, is_dataclass
from pathlib import Path

from . import data as data_mod
from .data import TaskConfig, generate_task, load_task, save_task, wer
from .decode import NUMBER, BeamConfig, beam_search, beam_search_plain, load_nbest, save_nbest
from .hat import HatConfig, check_keys, load_checkpoint, read_jsonl, save_checkpoint
from .lfm import (LfmConfig, WeightStats, load_lfm, prepare_rescoring, rescore_scalar,
                  rescore_with_lfm, save_lfm)
from .lm import load_lm, require_smoothing, save_lm, train_ngram
from .sweep import SweepSpec, load_sweep, run_sweep, save_sweep
from .training import TrainConfig, train_lfm, train_mle, train_mwer

_CODES = {"usage": 2, "missing-artifact": 3, "numerical": 4}

# only the CLI's own choices; every other value is its constructor's default
_DEFAULTS = {
    "seed": 0,
    "task": {},
    "hat": {},
    "elm": {"order": 2, "smoothing": 0.1},
    "train_mle": {"steps": 2000},
    "train_mwer": {"steps": 500},
    "train_lfm": {"steps": 2000},
    "lfm": {},
    "decode": {"max_tokens": 16},
    "sweep": {},
}

_SPLITS = ("train", "dev-common", "dev-rare", "test-common", "test-rare")


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category
        self.code = _CODES[category]


# -- config handling -----------------------------------------------------------


def _load_config(path) -> dict:
    cfg = json.loads(json.dumps(_DEFAULTS))  # deep copy
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise CliError("missing-artifact", f"config file {p} not found")
        try:
            user = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise CliError("usage", f"config file {p} is not valid JSON: {e}")
        if type(user) is not dict:
            raise CliError("usage", f"config file {p} is not a JSON object")
        for key, value in user.items():
            if key == "seed":
                if type(value) is not int:  # a bool is no seed either
                    raise CliError("usage", f"config seed must be an integer, got {value!r}")
                cfg["seed"] = value
            elif key in cfg and isinstance(value, dict):
                cfg[key].update(value)
            else:
                raise CliError("usage", f"unknown config section {key!r}")
    return cfg


def _override(cfg: dict, section: str, key: str, value) -> None:
    """Write a given flag value over the config's."""
    if value is not None:
        (cfg if section == "" else cfg[section])[key] = value


def _build(what: str, make, section: dict, **given):
    """``make(**section, **given)``; a bad or unknown argument is a usage error."""
    try:
        return make(**section, **given)
    except (TypeError, ValueError) as e:
        raise CliError("usage", f"bad {what} config: {e}")


def _changed_fields(obj) -> dict:
    """Fields that differ from their defaults; one without a default always counts."""
    return {f.name: v for f, v in zip(fields(obj), asdict(obj).values())
            if v != (f.default if f.default_factory is MISSING else f.default_factory())}


def _stage_hash(stage: str, *built, parent: str | None = None) -> str:
    """Name hash over what a stage built: a kwargs dict as given, a dataclass
    by its changed fields, so a field that no run sets renames nothing."""
    built = [_changed_fields(b) if is_dataclass(b) else b for b in built]
    blob = json.dumps({"stage": stage, "built": built, "parent": parent},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


def _fmt_weight(x: float) -> str:
    return f"{x:g}"


# -- experiment directory ------------------------------------------------------


class ExpDir:
    def __init__(self, root, create: bool = False):
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise CliError("missing-artifact", f"experiment dir {self.root} not found")

    def subdir(self, name: str) -> Path:
        d = self.root / name
        d.mkdir(exist_ok=True)
        return d

    def fresh(self, relative: str) -> Path:
        """Path for a new artifact; refuses to clobber an existing one."""
        path = self.root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            raise CliError("usage", f"artifact {path} already exists; the "
                           "experiment dir is append-only")
        return path

    def existing(self, relative: str) -> Path:
        path = self.root / relative
        if not path.exists():
            raise CliError("missing-artifact", f"{path} not found")
        return path

    def latest(self, pattern: str, what: str) -> Path:
        hits = sorted(self.root.glob(pattern), key=lambda p: (p.stat().st_mtime, p.name))
        if not hits:
            raise CliError("missing-artifact",
                           f"no {what} found (looked for {pattern})")
        return hits[-1]


class _Lock:
    def __init__(self, exp: ExpDir, command: str):
        self.path = exp.root / ".lock"
        self.command = command

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            holder = self.path.read_text().strip()
            raise CliError("usage", f"experiment dir is locked ({holder}); "
                           "remove .lock if that run is dead")
        with os.fdopen(fd, "w") as f:
            f.write(f"pid={os.getpid()} cmd={self.command}")
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)


# -- shared loading ------------------------------------------------------------


def _read(loader, path):
    """Run an artifact loader; a corrupt file counts as a missing artifact."""
    try:
        return loader(path)
    except KeyError as e:
        raise CliError("missing-artifact", f"corrupt artifact {path}: no key {e}")
    except (IndexError, TypeError, ValueError) as e:
        raise CliError("missing-artifact", f"corrupt artifact {path}: {e}")


def _load_task(exp: ExpDir) -> data_mod.SynthTask:
    if not (exp.root / "data" / "manifest.json").exists():
        raise CliError("missing-artifact", "no data/ in this experiment; run gen-data")
    return _read(load_task, exp.root / "data")


def _split(task, name: str) -> list:
    if name not in _SPLITS:
        raise CliError("usage", f"unknown split {name!r}; pick from {_SPLITS}")
    return getattr(task, name.replace("-", "_"))


def _resolve_base(exp: ExpDir, name: str, what: str) -> Path:
    """Checkpoint base path (no extension) from a bare name or a path."""
    for cand in (Path(name), exp.root / "models" / name):
        if Path(str(cand) + ".json").exists():
            return cand
    raise CliError("missing-artifact", f"{what} {name!r} not found")


def _load_hat(exp: ExpDir, init: str | None) -> tuple:
    if init is None:
        # mle-* and mwer-* but not lfm-*; newest wins
        newest = exp.latest("models/m*-*.json", "model checkpoint")
        base = newest.parent / newest.stem
    else:
        base = _resolve_base(exp, init, "checkpoint")
    return _read(load_checkpoint, str(base)), base.name


def _load_elm(exp: ExpDir):
    return _read(load_lm, exp.latest("models/elm-*.lm", "external LM"))


def _beam_config(cfg: dict, lam: float, gam: float) -> BeamConfig:
    return _build("decode", BeamConfig, cfg["decode"], ilm_weight=lam, elm_weight=gam)


def _train_config(cfg: dict, regime: str) -> TrainConfig:
    # mle runs no search, so it takes no beam field
    beam = cfg["decode"] if regime != "mle" else {}
    return _build(f"train_{regime}", TrainConfig, {**beam, **cfg[f"train_{regime}"]},
                  regime=regime, seed=cfg["seed"])


def _nbest_wer(lists: list, src: Path) -> float:
    """WER of the lists' top hypotheses; ``src`` names their file."""
    hyps = [list(nb.hyps[0].tokens) if nb.hyps else [] for nb in lists]
    refs = [list(nb.reference) for nb in lists]
    if not any(refs):
        raise CliError("missing-artifact", f"{src} holds no reference words to score")
    return wer(hyps, refs)


def _check_converged(log, what: str) -> None:
    if any(r.get("event") == "diverged" for r in log.records):
        raise CliError("numerical", f"{what} diverged; kept the last snapshot")


# -- commands ------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config)
    _override(cfg, "", "seed", args.seed)
    task_cfg = _build("task", TaskConfig, {"seed": cfg["seed"], **cfg["task"]})
    task = generate_task(task_cfg)
    elm = _build("elm", train_ngram, cfg["elm"], corpus=task.text_only,
                 vocab=list(range(task_cfg.vocab_size)))
    _build("elm", require_smoothing, {"smoothing": elm.smoothing})
    h = _stage_hash("gen-data", task_cfg, cfg["elm"])
    exp = ExpDir(args.exp_dir, create=True)
    with _Lock(exp, "gen-data"):
        if (exp.root / "data" / "manifest.json").exists():
            raise CliError("usage", "data/ already generated in this experiment")
        elm_file = exp.fresh(f"models/elm-{h}-s{task_cfg.seed}.lm")
        save_task(task, exp.root / "data")
        save_lm(elm, elm_file)
        counts = data_mod.rare_train_counts(task)
        print(f"data: {len(task.train)} train utts, rare counts "
              f"{min(counts.values())}..{max(counts.values())}, elm {elm_file.name}")
    return 0


def cmd_train_mle(args) -> int:
    cfg = _load_config(args.config)
    _override(cfg, "", "seed", args.seed)
    _override(cfg, "train_mle", "steps", args.steps)
    train_cfg = _train_config(cfg, "mle")
    exp = ExpDir(args.exp_dir)
    with _Lock(exp, "train-mle"):
        task = _load_task(exp)
        hat_cfg = _build("hat", HatConfig, cfg["hat"], vocab_size=task.config.vocab_size,
                         acoustic_size=task.config.acoustic_symbols)
        h = _stage_hash("train-mle", task.config, hat_cfg, train_cfg)
        ckpt = exp.fresh(f"models/mle-{h}-s{cfg['seed']}.json")
        model, log = train_mle(train_cfg, task.train, hat_config=hat_cfg)
        save_checkpoint(model, str(ckpt.parent / ckpt.stem))
        log.save(exp.subdir("logs") / f"mle-{h}-s{cfg['seed']}.jsonl")
        _check_converged(log, "MLE training")
        losses = log.losses()
        print(f"mle: {train_cfg.steps} steps, loss {losses[0]:.3f} -> "
              f"{losses[-1]:.3f}, saved {ckpt.stem}" if losses
              else f"mle: 0 steps, saved {ckpt.stem}")
    return 0


def cmd_train_mwer(args) -> int:
    cfg = _load_config(args.config)
    _override(cfg, "", "seed", args.seed)
    for key in ("lam", "gam", "mu", "nu", "theta"):
        _override(cfg, "train_mwer", key, getattr(args, key))
    _override(cfg, "train_mwer", "tie_weights", True if args.tie else None)
    _override(cfg, "train_mwer", "steps", args.steps)
    # the training section's beam keys outrank "decode", so the flag goes there
    _override(cfg, "train_mwer", "beam_size", args.beam)
    train_cfg = _train_config(cfg, "mwer")
    exp = ExpDir(args.exp_dir)
    with _Lock(exp, "train-mwer"):
        task = _load_task(exp)
        model, parent = _load_hat(exp, args.init)
        # only the gamma and nu terms read the external LM
        elm = _load_elm(exp) if train_cfg.gam > 0 or train_cfg.nu > 0 else None
        h = _stage_hash("train-mwer", task.config, train_cfg, parent=parent)
        ckpt = exp.fresh(f"models/mwer-{h}-s{cfg['seed']}.json")
        model, log = train_mwer(train_cfg, task.train, model, elm=elm)
        save_checkpoint(model, str(ckpt.parent / ckpt.stem))
        log.save(exp.subdir("logs") / f"mwer-{h}-s{cfg['seed']}.jsonl")
        _check_converged(log, "MWER training")
        weights = (train_cfg.lam, train_cfg.gam, train_cfg.mu, train_cfg.nu)
        kind = "lm-aware" if any(weights) else "regular"
        print(f"mwer ({kind}): {train_cfg.steps} steps from {parent}, "
              f"saved {ckpt.stem}")
    return 0


def cmd_train_lfm(args) -> int:
    cfg = _load_config(args.config)
    _override(cfg, "", "seed", args.seed)
    _override(cfg, "train_lfm", "steps", args.steps)
    _override(cfg, "train_lfm", "beam_size", args.beam)
    train_cfg = _train_config(cfg, "lfm")
    exp = ExpDir(args.exp_dir)
    with _Lock(exp, "train-lfm"):
        task = _load_task(exp)
        hat, parent = _load_hat(exp, args.init)
        lfm_cfg = _build("lfm", LfmConfig, cfg["lfm"], vocab_size=hat.config.vocab_size,
                         enc_dim=hat.config.hidden_dim)
        elm = _load_elm(exp)
        h = _stage_hash("train-lfm", task.config, train_cfg, lfm_cfg, parent=parent)
        ckpt = exp.fresh(f"models/lfm-{h}-s{cfg['seed']}.json")
        lfm, log = train_lfm(train_cfg, task.train, hat, elm, lfm_config=lfm_cfg,
                             stats_data=task.dev_common[:8] + task.dev_rare[:8])
        save_lfm(lfm, str(ckpt.parent / ckpt.stem))
        log.save(exp.subdir("logs") / f"lfm-{h}-s{cfg['seed']}.jsonl")
        _check_converged(log, "fusion-weight training")
        print(f"lfm: {train_cfg.steps} steps against frozen {parent}, "
              f"saved {ckpt.stem}")
    return 0


def cmd_decode(args) -> int:
    cfg = _load_config(args.config)
    _override(cfg, "decode", "beam_size", args.beam)
    if args.k is not None and args.k < 1:
        raise CliError("usage", f"--k must be >= 1, got {args.k}")
    beam_cfg = _beam_config(cfg, args.lam or 0.0, args.gam or 0.0)
    lam, gam = beam_cfg.ilm_weight, beam_cfg.elm_weight
    exp = ExpDir(args.exp_dir)
    with _Lock(exp, "decode"):
        task = _load_task(exp)
        model, parent = _load_hat(exp, args.init)
        corpus = _split(task, args.split)
        elm = _load_elm(exp)
        fused = lam > 0 or gam > 0
        lists = []
        for utt in corpus:
            if fused:
                nb = beam_search(utt, model, elm, beam_cfg)
            else:
                nb = beam_search_plain(utt, model, beam_cfg)
            # persist full components so every later stage is a pure re-rank
            nb = prepare_rescoring(utt, nb, model, elm)
            if args.k is not None:
                nb.hyps = nb.hyps[: args.k]
            lists.append(nb)
        h = _stage_hash("decode", beam_cfg, {"k": args.k}, parent=parent)
        tag = (f"{args.split}-{Path(parent).stem}-i{_fmt_weight(lam)}"
               f"-e{_fmt_weight(gam)}-{h}")
        out = exp.fresh(f"nbest/{tag}.jsonl")
        save_nbest(lists, out)
        value = _nbest_wer(lists, out)
        print(f"decode: {args.split} ilm={_fmt_weight(lam)} elm={_fmt_weight(gam)} "
              f"wer={value:.3f} -> {out.name}")
    return 0


def _find_nbest(exp: ExpDir, name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    return exp.existing(f"nbest/{name if name.endswith('.jsonl') else name + '.jsonl'}")


def cmd_rescore(args) -> int:
    if args.lfm is not None and (args.mu is not None or args.nu is not None):
        raise CliError("usage", "--lfm emits its own per-token weights; "
                       "--mu/--nu are for constant-weight rescoring only")
    if args.lfm is None and args.init is not None:
        raise CliError("usage", "--init names the recognizer that --lfm reads; "
                       "constant-weight rescoring reads none")
    exp = ExpDir(args.exp_dir)
    with _Lock(exp, "rescore"):
        src = _find_nbest(exp, args.nbest)
        lists = _read(load_nbest, src)
        try:
            if args.lfm is not None:
                task = _load_task(exp)
                hat, _ = _load_hat(exp, args.init)
                lfm = _read(load_lfm, str(_resolve_base(exp, args.lfm, "fusion model")))
                by_uid = {u.uid: u for split in _SPLITS for u in _split(task, split)}
                ranked = []
                for nb in lists:
                    if nb.uid not in by_uid:
                        raise CliError("missing-artifact", f"utterance {nb.uid!r} of {src} "
                                       "is not in this experiment's task")
                    # the ELM scores ride on the list; rescore_with_lfm reads no ELM
                    ranked.append(rescore_with_lfm(by_uid[nb.uid], nb, hat, None, lfm))
                tag = f"{src.stem}-lfm"
            else:
                mu = args.mu if args.mu is not None else 0.0
                nu = args.nu if args.nu is not None else 0.0
                ranked = [rescore_scalar(nb, mu=mu, nu=nu) for nb in lists]
                tag = f"{src.stem}-r{_fmt_weight(mu)}-{_fmt_weight(nu)}"
        except ValueError as e:
            raise CliError("usage", f"cannot rescore {src.name}: {e}")
        value = _nbest_wer(ranked, src)
        out = exp.fresh(f"nbest/{tag}.jsonl")
        save_nbest(ranked, out)
        print(f"rescore: {src.name} -> {out.name} wer={value:.3f}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    _override(cfg, "decode", "beam_size", args.beam)
    for key in ("ilm_grid", "elm_grid"):
        if getattr(args, key) is not None:
            cfg["sweep"][key] = getattr(args, key)
    spec = _build("sweep", SweepSpec, cfg["sweep"], mode=args.mode)
    beam_cfg = _beam_config(cfg, 0.0, 0.0)
    exp = ExpDir(args.exp_dir)
    with _Lock(exp, "sweep"):
        task = _load_task(exp)
        model, parent = _load_hat(exp, args.init)
        elm = _load_elm(exp)
        h = _stage_hash("sweep", spec, beam_cfg, parent=parent)
        out = exp.fresh(f"sweeps/sweep-{args.mode}-{h}.jsonl")
        result = run_sweep(spec, model, elm, (task.dev_common, task.dev_rare), beam_cfg)
        save_sweep(result, out)
        print(f"sweep ({args.mode}): best ilm={_fmt_weight(result.best_ilm)} "
              f"elm={_fmt_weight(result.best_elm)} "
              f"avg-wer={result.best_average:.3f} -> {out.name}")
    return 0


def cmd_eval(args) -> int:
    exp = ExpDir(args.exp_dir)
    with _Lock(exp, "eval"):
        src = _find_nbest(exp, args.nbest)
        lists = _read(load_nbest, src)
        if not lists:
            raise CliError("missing-artifact", f"{src} holds no hypothesis lists")
        value = _nbest_wer(lists, src)
        record = {"source": src.name, "utterances": len(lists), "wer": value}
        out = exp.fresh(f"evals/{src.stem}.json")
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"eval: {src.name} wer={value:.3f} ({len(lists)} utts)")
    return 0


# a weight-statistics record: its ``token_count`` an int, the rest numbers
_STATS_KEYS = {f.name: (int,) if f.type == "int" else NUMBER for f in fields(WeightStats)}


def _lfm_stats_rows(log_path: Path) -> list:
    """The weight-statistics rows of a fusion-module run log; a line off
    the schema raises ``ValueError`` naming the file and line. Each
    ``*_stats`` record must hold every ``WeightStats`` field, checked by
    type, so a bool is no number; ``dev_stats`` may be absent."""
    def row(rec) -> dict | None:
        if "train_stats" not in rec:
            return None
        check_keys(rec, {"step": (int,)})
        out = {"log": log_path.name, "step": rec["step"]}
        for side in ("train", "dev"):
            stats = rec.get(f"{side}_stats")
            if side == "dev" and stats is None:
                continue
            try:
                check_keys(stats, _STATS_KEYS)
            except ValueError as e:
                raise ValueError(f"{side}_stats: {e}") from None
            out.update({f"{side}_{k}": stats[k] for k in _STATS_KEYS})
        return out
    return [r for _, r in read_jsonl(log_path, {}, row) if r is not None]


def _lfm_stats_series(exp: ExpDir) -> list:
    return [row for log_path in sorted(exp.root.glob("logs/lfm-*.jsonl"))
            for row in _read(_lfm_stats_rows, log_path)]


def cmd_report(args) -> int:
    exp = ExpDir(args.exp_dir)
    with _Lock(exp, "report"):
        rows = []
        for nb_path in sorted(exp.root.glob("nbest/*.jsonl")):
            lists = _read(load_nbest, nb_path)
            if not lists:
                continue
            rows.append({"nbest": nb_path.name, "utterances": len(lists),
                         "wer": _nbest_wer(lists, nb_path)})
        if not rows:
            raise CliError("missing-artifact", "no N-best files to report on")
        sweeps = []
        for sw_path in sorted(exp.root.glob("sweeps/*.jsonl")):
            res = _read(load_sweep, sw_path)
            sweeps.append({"table": sw_path.name, "mode": res.mode,
                           "best_ilm": res.best_ilm, "best_elm": res.best_elm,
                           "best_average": res.best_average})
        report = {"wer_table": rows, "sweeps": sweeps,
                  "lfm_weight_series": _lfm_stats_series(exp)}
        (exp.root / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        width = max(len(r["nbest"]) for r in rows)
        lines = ["method (n-best file)".ljust(width) + "  utts   wer",
                 "-" * (width + 13)]
        for r in rows:
            lines.append(f"{r['nbest'].ljust(width)}  {r['utterances']:4d}  "
                         f"{r['wer']:6.3f}")
        for s in sweeps:
            lines.append(f"sweep[{s['mode']}] best ilm={_fmt_weight(s['best_ilm'])} "
                         f"elm={_fmt_weight(s['best_elm'])} "
                         f"avg-wer={s['best_average']:.3f}")
        for row in report["lfm_weight_series"]:
            parts = [f"step={row['step']}"]
            for k in ("train_mean_mu", "train_mean_nu", "dev_mean_mu", "dev_mean_nu"):
                if k in row:
                    parts.append(f"{k.replace('train_', 't.').replace('dev_', 'd.')}"
                                 f"={row[k]:.4f}")
            lines.append("lfm-weights " + " ".join(parts))
        text = "\n".join(lines) + "\n"
        (exp.root / "report.txt").write_text(text)
        print(text, end="")
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_common(p, config=True, seed=True):
    p.add_argument("--exp-dir", required=True, help="experiment directory")
    if config:
        p.add_argument("--config", help="JSON config file")
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (overrides the config's)")


def _add_weights(p):
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="internal-LM subtraction weight at search time")
    p.add_argument("--gamma", dest="gam", type=float, default=None,
                   help="external-LM weight at search time")


def _grid(text: str) -> list:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatfusion",
        description="LM-aware transducer training and decoding pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize the task and fit the text LM")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-mle", help="likelihood warmup of the recognizer")
    _add_common(p)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(fn=cmd_train_mle)

    p = sub.add_parser("train-mwer", help="expected-word-error fine-tuning")
    _add_common(p)
    p.add_argument("--init", help="starting checkpoint (default: newest)")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--beam", type=int, default=None)
    _add_weights(p)
    p.add_argument("--mu", type=float, default=None,
                   help="internal-LM weight inside the loss")
    p.add_argument("--nu", type=float, default=None,
                   help="external-LM weight inside the loss")
    p.add_argument("--theta", type=float, default=None,
                   help="likelihood anchor weight")
    p.add_argument("--tie", action="store_true",
                   help="reuse the search weights inside the loss")
    p.set_defaults(fn=cmd_train_mwer)

    p = sub.add_parser("train-lfm", help="fit per-token fusion weights")
    _add_common(p)
    p.add_argument("--init", help="frozen recognizer checkpoint (default: newest)")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--beam", type=int, default=None)
    p.set_defaults(fn=cmd_train_lfm)

    p = sub.add_parser("decode", help="beam-search a split and persist N-best")
    _add_common(p, seed=False)
    p.add_argument("--init", help="checkpoint to decode with (default: newest)")
    p.add_argument("--split", required=True, choices=_SPLITS)
    _add_weights(p)
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="keep only the top K")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("rescore", help="re-rank a persisted N-best file")
    _add_common(p, config=False, seed=False)
    p.add_argument("--nbest", required=True, help="file name under nbest/ or a path")
    p.add_argument("--mu", type=float, default=None,
                   help="constant internal-LM weight (not with --lfm)")
    p.add_argument("--nu", type=float, default=None,
                   help="constant external-LM weight (not with --lfm)")
    p.add_argument("--lfm", help="fusion-weight checkpoint for per-token weights")
    p.add_argument("--init", help="recognizer checkpoint (only with --lfm)")
    p.set_defaults(fn=cmd_rescore)

    p = sub.add_parser("sweep", help="grid-search fusion weights on the dev pair")
    _add_common(p, seed=False)
    p.add_argument("--init", help="checkpoint to sweep (default: newest)")
    p.add_argument("--mode", choices=("shallow-fusion", "rescoring"),
                   default="shallow-fusion")
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--ilm-grid", type=_grid, help="comma list, e.g. 0,0.1,0.2")
    p.add_argument("--elm-grid", type=_grid, help="comma list, e.g. 0,0.1,0.2")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("eval", help="score a persisted N-best file")
    _add_common(p, config=False, seed=False)
    p.add_argument("--nbest", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("report", help="summarize the experiment directory")
    _add_common(p, config=False, seed=False)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error[{e.category}]: {e}", file=sys.stderr)
        return e.code
    except FileNotFoundError as e:
        print(f"error[missing-artifact]: {e}", file=sys.stderr)
        return _CODES["missing-artifact"]


if __name__ == "__main__":
    sys.exit(main())

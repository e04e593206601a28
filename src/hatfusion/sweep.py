"""Grid search over the two fusion weights on a pair of dev sets.

Shallow-fusion mode re-decodes every dev utterance at each grid point.
Rescoring mode decodes each dev set once without any LM, attaches the
full-sum and per-token LM scores, and then only re-ranks, so the grid adds
no lattice or search work; the counter tests pin that down.

A grid point that raises is recorded with a failed status and excluded
from the argmin instead of killing the sweep. Ties on the averaged WER
break toward the smaller (ilm, elm) pair, compared lexicographically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .data import wer
from .decode import BeamConfig, beam_search, beam_search_plain
from .hat import HatModel
from .lfm import prepare_rescoring, rescore_scalar

_DEFAULT_GRID = [round(0.1 * i, 1) for i in range(9)]  # 0.0 .. 0.8

_COUNTERS = {"points": 0}


def sweep_eval_count() -> int:
    """Total grid points evaluated in this process; paths that claim to need
    no weight search are checked against it."""
    return _COUNTERS["points"]


@dataclass
class SweepSpec:
    ilm_grid: list = field(default_factory=lambda: list(_DEFAULT_GRID))
    elm_grid: list = field(default_factory=lambda: list(_DEFAULT_GRID))
    mode: str = "shallow-fusion"

    def __post_init__(self):
        if self.mode not in ("shallow-fusion", "rescoring"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        for name, grid in (("ilm", self.ilm_grid), ("elm", self.elm_grid)):
            if not grid:
                raise ValueError(f"empty {name} grid")
            if min(grid) < 0:
                raise ValueError(f"{name} grid has a negative weight")

    def points(self) -> list:
        return [(float(a), float(b)) for a in self.ilm_grid for b in self.elm_grid]


@dataclass
class SweepResult:
    mode: str
    rows: list
    best_ilm: float
    best_elm: float
    best_average: float

    def row(self, ilm: float, gam: float) -> dict:
        for r in self.rows:
            if r["ilm"] == ilm and r["elm"] == gam:
                return r
        raise KeyError(f"no grid point ({ilm}, {gam})")


def _argmin(rows: list) -> dict:
    ok = [r for r in rows if r["status"] == "ok"]
    if not ok:
        raise RuntimeError("every sweep point failed")
    return min(ok, key=lambda r: (r["average"], r["ilm"], r["elm"]))


def _shallow_eval(point, model, elm, dev_sets, base: BeamConfig):
    lam, gam = point
    cfg = BeamConfig(beam_size=base.beam_size, ilm_weight=lam, elm_weight=gam,
                     max_tokens=base.max_tokens, frame_cap=base.frame_cap,
                     elm_eos=base.elm_eos)
    wers = []
    for corpus in dev_sets:
        hyps, refs = [], []
        for utt in corpus:
            nb = beam_search(utt, model, elm, cfg)
            hyps.append(list(nb.hyps[0].tokens) if nb.hyps else [])
            refs.append(list(utt.reference))
        wers.append(wer(hyps, refs))
    return wers


def prepare_corpus(model: HatModel, elm, corpus: list, base: BeamConfig) -> list:
    """LM-free decode plus score attachment; the one-off cost of rescoring."""
    plain = BeamConfig(beam_size=base.beam_size, max_tokens=base.max_tokens,
                       frame_cap=base.frame_cap)
    return [(utt, prepare_rescoring(utt, beam_search_plain(utt, model, plain),
                                    model, elm))
            for utt in corpus]


def _rescore_eval(point, prepared_sets):
    lam, gam = point
    wers = []
    for pairs in prepared_sets:
        hyps = []
        refs = []
        for utt, nbest in pairs:
            ranked = rescore_scalar(nbest, mu=lam, nu=gam)
            hyps.append(list(ranked.hyps[0].tokens) if ranked.hyps else [])
            refs.append(list(utt.reference))
        wers.append(wer(hyps, refs))
    return wers


def run_sweep(spec: SweepSpec, model: HatModel, elm, dev_sets: tuple,
              beam_cfg: BeamConfig | None = None) -> SweepResult:
    """Evaluate every grid point on both dev sets and pick the best average."""
    if len(dev_sets) != 2:
        raise ValueError(f"expected two dev sets, got {len(dev_sets)}")
    base = beam_cfg or BeamConfig()
    if spec.mode == "rescoring":
        prepared = tuple(prepare_corpus(model, elm, c, base) for c in dev_sets)
        evaluate = lambda pt: _rescore_eval(pt, prepared)
    else:
        evaluate = lambda pt: _shallow_eval(pt, model, elm, dev_sets, base)

    def one_point(pt):
        lam, gam = pt
        try:
            w1, w2 = evaluate(pt)
        except Exception as e:  # a bad point must not kill the sweep
            return {"ilm": lam, "elm": gam, "wer_dev1": None, "wer_dev2": None,
                    "average": None, "status": f"failed: {e}"}
        return {"ilm": lam, "elm": gam, "wer_dev1": w1, "wer_dev2": w2,
                "average": 0.5 * (w1 + w2), "status": "ok"}

    points = spec.points()
    _COUNTERS["points"] += len(points)
    rows = [one_point(pt) for pt in points]
    best = _argmin(rows)
    return SweepResult(mode=spec.mode, rows=rows, best_ilm=best["ilm"],
                       best_elm=best["elm"], best_average=best["average"])


def save_sweep(result: SweepResult, path) -> None:
    with open(path, "w") as f:
        f.write(json.dumps({"kind": "sweep", "mode": result.mode}) + "\n")
        for row in result.rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
        f.write(json.dumps({"kind": "summary", "best_ilm": result.best_ilm,
                            "best_elm": result.best_elm,
                            "best_average": result.best_average},
                           sort_keys=True) + "\n")


def load_sweep(path) -> SweepResult:
    lines = [json.loads(line) for line in Path(path).read_text().splitlines()]
    head, rows, tail = lines[0], lines[1:-1], lines[-1]
    if head.get("kind") != "sweep" or tail.get("kind") != "summary":
        raise ValueError(f"{path} is not a sweep table")
    return SweepResult(mode=head["mode"], rows=rows, best_ilm=tail["best_ilm"],
                       best_elm=tail["best_elm"], best_average=tail["best_average"])

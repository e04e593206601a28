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
from dataclasses import dataclass, field, replace
from numbers import Real

from .data import wer
from .decode import NUMBER, BeamConfig, beam_search, beam_search_plain, require_fusion_weights
from .hat import HatModel, check_keys, read_jsonl
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
        for name, grid in (("ilm_grid", self.ilm_grid), ("elm_grid", self.elm_grid)):
            # a bool is no weight, though Python counts it as an int
            if not isinstance(grid, list) or not all(
                    isinstance(w, Real) and not isinstance(w, bool) for w in grid):
                raise ValueError(f"{name} must be a list of numbers, got {grid!r}")
            if not grid:
                raise ValueError(f"empty {name}")
            require_fusion_weights(*grid)

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


def _top_wer(lists: list) -> float:
    """WER of each list's top hypothesis against its reference."""
    return wer([list(nb.hyps[0].tokens) for nb in lists], [list(nb.reference) for nb in lists])


def _shallow_eval(point, model, elm, dev_sets, base: BeamConfig):
    lam, gam = point
    cfg = replace(base, ilm_weight=lam, elm_weight=gam)
    return [_top_wer([beam_search(utt, model, elm, cfg) for utt in corpus])
            for corpus in dev_sets]


def prepare_corpus(model: HatModel, elm, corpus: list, base: BeamConfig) -> list:
    """LM-free decode plus score attachment; the one-off cost of rescoring.
    Rescoring ``run_sweep`` calls it once per dev set. ``training.train_lfm``
    prepares its lists the same way, once per list and call."""
    return [(utt, prepare_rescoring(utt, beam_search_plain(utt, model, base), model, elm))
            for utt in corpus]


def _rescore_eval(point, prepared_sets):
    lam, gam = point
    return [_top_wer([rescore_scalar(nbest, mu=lam, nu=gam) for _, nbest in pairs])
            for pairs in prepared_sets]


def run_sweep(spec: SweepSpec, model: HatModel, elm, dev_sets: tuple,
              beam_cfg: BeamConfig) -> SweepResult:
    """Evaluate every grid point on both dev sets and pick the best average.

    Every search takes its beam from ``beam_cfg``; shallow fusion replaces
    its fusion weights by the point's, and rescoring's one LM-free decode
    reads none.
    """
    if len(dev_sets) != 2:
        raise ValueError(f"expected two dev sets, got {len(dev_sets)}")
    if spec.mode == "rescoring":
        prepared = tuple(prepare_corpus(model, elm, c, beam_cfg) for c in dev_sets)
        evaluate = lambda pt: _rescore_eval(pt, prepared)
    else:
        evaluate = lambda pt: _shallow_eval(pt, model, elm, dev_sets, beam_cfg)

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


_MAYBE = NUMBER + (type(None),)  # a failed point has no WER
# the keys of the header, of a grid point and of the summary line
_HEAD_KEYS = {"kind": (str,), "mode": (str,)}
_ROW_KEYS = {"ilm": NUMBER, "elm": NUMBER, "wer_dev1": _MAYBE, "wer_dev2": _MAYBE,
             "average": _MAYBE, "status": (str,)}
_SUMMARY_KEYS = {"kind": (str,), "best_ilm": NUMBER, "best_elm": NUMBER,
                 "best_average": NUMBER}


def _sweep_line(rec) -> dict:
    kind = rec.get("kind") if type(rec) is dict else None
    if kind not in ("sweep", None, "summary"):
        raise ValueError(f"'kind' is {kind!r}, not 'sweep', None or 'summary'")
    check_keys(rec, {"sweep": _HEAD_KEYS, None: _ROW_KEYS, "summary": _SUMMARY_KEYS}[kind])
    return rec


def load_sweep(path) -> SweepResult:
    """Read a sweep table: a header, one line per grid point, a summary. A
    missing line, one off the schema or one out of place raises
    ``ValueError`` naming the file and line."""
    recs = read_jsonl(path, build=_sweep_line)
    if len(recs) < 2:
        raise ValueError(f"{path}:{recs[-1][0] + 1 if recs else 1}: "
                         f"no {'summary' if recs else 'header'} line")
    for (lineno, rec), kind in zip(recs, ["sweep"] + [None] * (len(recs) - 2) + ["summary"]):
        if rec.get("kind") != kind:
            raise ValueError(f"{path}:{lineno}: 'kind' is {rec.get('kind')!r}, not {kind!r}")
    head, rows, tail = recs[0][1], [rec for _, rec in recs[1:-1]], recs[-1][1]
    return SweepResult(mode=head["mode"], rows=rows, best_ilm=tail["best_ilm"],
                       best_elm=tail["best_elm"], best_average=tail["best_average"])

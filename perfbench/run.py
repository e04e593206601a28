"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload fusion-mwer --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; ``hatfusion`` is imported from its
``src/``. Set-up runs several times and its median is ``setup_s``. An
untimed warm pass and the output checks come next, then deterministic
rounds of the workload repeat until ``--seconds`` is spent. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` installs the outside-in
tracer, reports per-layer metrics per round and writes the spans as JSONL
under ``perfbench/out/``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Model dimensions are at most 16; a threaded BLAS only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# Set-up repeats at least SETUP_MIN times and, while cheap, for SETUP_SECONDS.
SETUP_MIN = 3
SETUP_SECONDS = 1.0
# Enough rounds for step_ms_p75 to have ten steps beyond it.
MIN_ROUNDS = 2
MIN_STEPS = 40


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _percentile(samples: list, q: float) -> float:
    """Linear-interpolation percentile; needs ten samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) * (100 - q) / 100 < 10:
        raise ValueError(f"p{q:g} needs ten samples beyond it, got {len(ordered)} samples")
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _machine() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "platform": platform.platform(),
            "git_commit": _git_commit()}


def _rounds(workload, ctx, seconds: float, min_rounds: int = 1, min_steps: int = 0,
            tracer=None) -> list:
    """Repeat rounds until another one would overrun ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        r = workload.round(ctx, workload.sizes, tracer)
        r.wall_s = time.perf_counter() - t0
        rounds.append(r)
        typical = statistics.median(x.wall_s for x in rounds)
        enough = len(rounds) >= min_rounds and sum(len(x.step_s) for x in rounds) >= min_steps
        elapsed = time.perf_counter() - start
        if enough and elapsed + typical > seconds or elapsed > 4 * seconds + typical:
            return rounds


def _check_rounds(rounds: list) -> list:
    problems = [p for r in rounds for p in r.problems]
    if any(r.outputs != rounds[0].outputs for r in rounds[1:]):
        problems.append("rounds of one seed gave different outputs")
    if not all(math.isfinite(x) for r in rounds for x in r.losses):
        problems.append("a training loss is not finite")
    return problems


def end_to_end(setup_s: list, rounds: list) -> dict:
    steps = [s * 1e3 for r in rounds for s in r.step_s]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "step_ms_p50": (_percentile(steps, 50), "ms"),
        "step_ms_p75": (_percentile(steps, 75), "ms"),
        "round_s": (statistics.median(r.wall_s for r in rounds), "s"),
    }


def details(rounds: list) -> dict:
    """Stage figures that only some workloads have: (value, unit, samples)."""
    out = {}

    def timing(name, samples, scale, unit, qs):
        for q in qs:
            if len(samples) * (100 - q) / 100 >= 10:
                out[f"{name}_p{q}"] = (_percentile(samples, q) * scale, unit, len(samples))

    steps = [s for r in rounds for s in r.step_s]
    timing("step_ms", steps, 1e3, "ms", (90, 95, 99))
    timing("decode_ms", [s for r in rounds for s in r.decode_s], 1e3, "ms", (50, 90, 95))
    timing("rescore_ms", [s for r in rounds for s in r.rescore_s], 1e3, "ms", (50, 90, 95))
    sweeps = [r.sweep_s for r in rounds if r.sweep_s is not None]
    if sweeps:
        out["sweep_s"] = (statistics.median(sweeps), "s", len(sweeps))
    first = rounds[0]
    for split, value in first.wer.items():
        out[f"wer_{split}"] = (value, "%", 1)
    if first.losses:
        out["train_loss_last"] = (first.losses[-1], "loss", 1)
    attempted = sum(r.attempted for r in rounds)
    out["failed_share"] = (sum(r.failed for r in rounds) / max(1, attempted), "ratio", attempted)
    return out


def _self_checks(tracer, moved: dict, traced_wall: float, workload) -> list:
    """The tracer's call counts must match the program's own counters."""
    st = tracer.stats
    seen = {"decode.search": st["decode.search"].calls,
            "hat.score_sequences": st["hat.score_sequences"].calls,
            "sweep.points": tracer.points}
    problems = [f"{name}: tracer saw {seen[name]}, the program counted {moved[name]}"
                for name in seen if seen[name] != moved[name]]
    if tracer.self_seconds() > traced_wall:
        problems.append("summed self time exceeds the traced wall time")
    if not workload.decodes:
        busy = [n for n in st if n.split(".")[0] in ("decode", "lm", "lfm") and st[n].calls]
        if busy:
            problems.append(f"unexpected calls in a workload without search: {busy}")
    return problems


def _counters() -> dict:
    """The program's own counters, keyed by the traced metric they match."""
    from hatfusion import decode, hat, sweep

    return {"decode.search": decode.beam_call_count(),
            "hat.score_sequences": hat.lattice_sweep_count(),
            "sweep.points": sweep.sweep_eval_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hatfusion" / "__init__.py").is_file():
        return _fail(f"no hatfusion sources under {SRC}")
    if os.environ.get("HATFUSION_WORKERS", "1") != "1":
        return _fail("HATFUSION_WORKERS must be unset or 1: the benchmark is one thread")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import hatfusion

    if Path(hatfusion.__file__).resolve().parent != SRC / "hatfusion":
        return _fail(f"imported hatfusion from {hatfusion.__file__}, not {SRC}")
    from tracer import Tracer
    from workloads import WORKLOADS, check_search_identity

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    setup_s, ctx, problems = [], None, []
    while not setup_s or not args.trace and (
            len(setup_s) < SETUP_MIN or sum(setup_s) < SETUP_SECONDS):
        t0 = time.perf_counter()
        c = workload.setup(args.seed)
        setup_s.append(time.perf_counter() - t0)
        if ctx is None:
            ctx = c
        elif (c.task, c.fingerprint) != (ctx.task, ctx.fingerprint):
            problems.append("repeated set-ups of one seed differ")

    warm = workload.round(ctx, workload.warm_sizes)
    problems += warm.problems
    if workload.decodes:
        problems += check_search_identity(ctx)

    t_start = time.perf_counter()
    if args.trace:
        plain = _rounds(workload, ctx, 0.0)
        tracer = Tracer()
        before = _counters()
        with tracer:
            traced = _rounds(workload, ctx, args.seconds - (time.perf_counter() - t_start),
                             tracer=tracer)
        moved = {k: v - before[k] for k, v in _counters().items()}
        problems += _self_checks(tracer, moved, sum(r.wall_s for r in traced), workload)
        problems += _check_rounds(plain + traced)
        rounds = traced
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace_overhead"] = (statistics.median(r.wall_s for r in traced) / plain[0].wall_s,
                                     "ratio")
    else:
        rounds = _rounds(workload, ctx, args.seconds, MIN_ROUNDS, MIN_STEPS)
        problems += _check_rounds(rounds)
        metrics = end_to_end(setup_s, rounds)
    measured_s = time.perf_counter() - t_start

    extra = details(rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    steps = sum(len(r.step_s) for r in rounds)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured_s, "rounds": len(rounds), "steps": steps,
        "setup_s": setup_s, "machine": _machine(), "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in extra.items()},
        "attempted": attempted, "failed": failed,
    }
    if args.trace:
        tracer.write_jsonl(OUT / f"{tag}.spans.jsonl", t_start)
        report["spans"] = {"recorded": tracer.span_count, "kept": len(tracer.spans)}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {steps} training steps "
          f"in {measured_s:.1f} s")
    for k, (v, u) in metrics.items():
        print(f"  {k:40s} {v:14.6g} {u}")
    for k, (v, u, n) in extra.items():
        print(f"  {k:40s} {v:14.6g} {u}  (n={n})")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracer: spans around calls into hatfusion's public functions.

The tracer patches the program from the benchmark's side and removes every
patch when it exits; nothing under ``src/`` knows it exists. Class methods
are wrapped once on the class. A module-level function is wrapped in its
defining module and rebound in every ``hatfusion`` module that imported it
by name (``decode`` holds its own ``advance_state``, ``training`` its own
``beam_search``, ...), otherwise those calls would go untraced.

Each wrapped call becomes one span: id, name, start, end, parent span id
and the id of the workload operation that was open. Spans stay in memory
and are written as JSONL when the run ends. Self time is a span's duration
minus the durations of its direct wrapped children. The tracer is
single-threaded, which is why the runner refuses ``HATFUSION_WORKERS`` > 1.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

from hatfusion import decode, hat, lfm, lm, mwer, sweep, tensor

# Search-side calls whose inputs are hashed per search: the share of
# distinct inputs is the ceiling on what a per-search prefix cache saves.
DISTINCT_ARGS = {
    "hat.joint_np": lambda a: a[1].tobytes() + a[2].tobytes(),
    "hat.pred_step_np": lambda a: a[1].tobytes() + int(a[2]).to_bytes(8, "little"),
    "hat.ilm_logprobs_np": lambda a: a[1].tobytes(),
}

# Spans past this many are counted but not kept, which bounds memory.
SPAN_LIMIT = 400_000

# span name -> (owner, attribute names); a class owner means a method.
TARGETS = {
    "tensor.backward": (tensor.Tape, ("backward",)),
    "tensor.adam": (tensor.Adam, ("step",)),
    "hat.encode": (hat.HatModel, ("encode",)),
    "hat.encode_np": (hat.HatModel, ("encode_np",)),
    "hat.score_sequences": (hat.HatModel, ("score_sequences",)),
    "hat.joint_np": (hat.HatModel, ("joint_np",)),
    "hat.pred_step_np": (hat.HatModel, ("pred_step_np",)),
    "hat.ilm_logprobs_np": (hat.HatModel, ("ilm_logprobs_np",)),
    "hat.internal_lm_log_prob": (hat.HatModel, ("internal_lm_log_prob",)),
    "hat.mle_loss": (hat.HatModel, ("mle_loss",)),
    "decode.search": (decode, ("beam_search", "beam_search_plain")),
    "decode.rescore_components": (decode, ("rescore_components",)),
    "lm.next_token_logprobs": (lm, ("next_token_logprobs",)),
    "lm.advance_state": (lm, ("advance_state",)),
    "lm.score_tokens": (lm, ("score_tokens",)),
    "mwer.composite_loss": (mwer, ("composite_loss",)),
    "mwer.nwe": (mwer, ("nwe",)),
    "lfm.forward": (lfm.LfmModel, ("forward",)),
    "lfm.lfm_loss": (lfm, ("lfm_loss",)),
    "lfm.rescore_scalar": (lfm, ("rescore_scalar",)),
    "lfm.rescore_with_lfm": (lfm, ("rescore_with_lfm",)),
    "lfm.prepare_rescoring": (lfm, ("prepare_rescoring",)),
    "sweep.run_sweep": (sweep, ("run_sweep",)),
}

# The part of a training step each span's inclusive time belongs to.
STEP_PART = {
    "decode.search": "decode",
    "hat.mle_loss": "loss",
    "mwer.composite_loss": "loss",
    "lfm.lfm_loss": "loss",
    "tensor.backward": "backward",
    "tensor.adam": "update",
}


@dataclass
class LayerStat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    distinct: int = 0


def _hatfusion_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hatfusion" or name.startswith("hatfusion."))]


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class StepClock:
    """Timestamps the end of every optimizer step (``Adam.step``).

    A training step is the interval between two consecutive ticks, the
    first starting when the clock is entered. It costs one clock read per step, so it
    stays on in untraced runs, which keeps traced and untraced runs apart
    by the tracer alone.
    """

    def __init__(self, on_tick=None):
        self.on_tick = on_tick
        self.ticks: list = []
        self._patches = _Patches()

    def intervals(self) -> list:
        """Step durations in seconds."""
        t = self.ticks
        return [b - a for a, b in zip(t, t[1:])]

    def __enter__(self) -> "StepClock":
        inner = tensor.Adam.step

        def step(optimizer, params):
            inner(optimizer, params)
            now = time.perf_counter()
            self.ticks.append(now)
            if self.on_tick is not None:
                self.on_tick(now)

        self._patches.set(tensor.Adam, "step", step)
        self.ticks.append(time.perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


class Tracer:
    """Records one span per wrapped call while installed (``with`` block)."""

    def __init__(self):
        self.spans: list = []  # (id, name, start, end, parent id, op id)
        self.span_count = 0
        self.op_parts: dict = {}  # op id -> {step part: seconds}
        self.stats = {name: LayerStat() for name in TARGETS}
        self.ops: list = []  # op id -> [kind, start, end]
        self.op = 0
        self.open_op("idle")
        self.tape_entries = 0
        self.seqs = 0
        self.lists = self.hyps = self.truncated = self.empty_lists = 0
        self.gap_sum, self.gap_n = 0.0, 0
        self.points = 0
        self._stack: list = []  # open spans: [id, child seconds]
        self._seen = {name: set() for name in DISTINCT_ARGS}
        self._patches = _Patches()

    # -- workload operations ----------------------------------------------

    def open_op(self, kind: str, now: float | None = None) -> None:
        """Start a workload operation; spans opened from now on carry its id."""
        now = time.perf_counter() if now is None else now
        if self.ops:
            self.ops[-1][2] = now
        self.ops.append([kind, now, None])
        self.op = len(self.ops) - 1

    def close_step(self, now: float) -> None:
        """The open operation was one training step; the next one starts."""
        self.ops[-1][0] = "step"
        self.open_op("step-tail", now)

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = _hatfusion_modules()
        for name, (owner, attrs) in TARGETS.items():
            for attr in attrs:
                orig = owner.__dict__[attr]
                wrapped = self._wrap(name, orig)
                if isinstance(owner, type):
                    self._patches.set(owner, attr, wrapped)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patches.set(m, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()
        self.open_op("idle")

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        part = STEP_PART.get(name)
        digest = DISTINCT_ARGS.get(name)
        seen = self._seen.get(name)
        before = self._before(name)
        after = self._after(name)

        def wrapper(*args, **kwargs):
            if digest is not None:
                key = hash(digest(args))
                if key not in seen:
                    seen.add(key)
                    stat.distinct += 1
            if before is not None:
                before(args, kwargs)
            sid = self.span_count
            self.span_count += 1
            op = self.op
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.incl_s += dur
                stat.self_s += dur - frame[1]
                if part is not None:
                    parts = self.op_parts.setdefault(op, {})
                    parts[part] = parts.get(part, 0.0) + dur
                if sid < SPAN_LIMIT:
                    spans.append((sid, name, t0, t1, parent, op))
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _before(self, name: str):
        if name == "tensor.backward":
            def before(args, kwargs):
                self.tape_entries += len(args[0])
            return before
        if name == "hat.score_sequences":
            def before(args, kwargs):
                self.seqs += len(args[2] if len(args) > 2 else kwargs["seqs"])
            return before
        if name == "decode.search":
            def before(args, kwargs):
                for s in self._seen.values():
                    s.clear()  # distinct inputs are counted per search
            return before
        return None

    def _after(self, name: str):
        if name == "decode.search":
            def after(nb):
                self.lists += 1
                self.hyps += len(nb.hyps)
                self.truncated += sum(h.truncated for h in nb.hyps)
                self.empty_lists += not nb.hyps
            return after
        if name == "decode.rescore_components":
            def after(nb):
                for h in nb.hyps:
                    if h.e2e_fullsum is not None:
                        self.gap_sum += h.e2e_fullsum - h.e2e_search
                        self.gap_n += 1
            return after
        if name == "sweep.run_sweep":
            def after(result):
                self.points += len(result.rows)
            return after
        return None

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def step_shares(self) -> dict:
        """Share of training-step wall time spent in each part of a step."""
        steps = [i for i, (kind, _, _) in enumerate(self.ops) if kind == "step"]
        wall = sum(self.ops[i][2] - self.ops[i][1] for i in steps)
        shares = dict.fromkeys(("decode", "loss", "backward", "update"), 0.0)
        for i in steps:
            for part, seconds in self.op_parts.get(i, {}).items():
                shares[part] += seconds / wall
        return shares

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics, counts and seconds per round: (value, unit)."""
        st = self.stats
        per = 1.0 / rounds
        m = {}

        def calls(name):
            m[f"{name}.calls"] = (st[name].calls * per, "count")

        def self_s(name):
            m[f"{name}.self_s"] = (st[name].self_s * per, "s")

        calls("tensor.backward")
        self_s("tensor.backward")
        m["tensor.backward.tape_entries"] = (
            self.tape_entries / max(1, st["tensor.backward"].calls), "count")
        self_s("tensor.adam")
        calls("hat.score_sequences")
        self_s("hat.score_sequences")
        m["hat.score_sequences.seqs"] = (self.seqs * per, "count")
        calls("hat.encode")
        self_s("hat.encode")
        for name in DISTINCT_ARGS:
            calls(name)
            self_s(name)
            m[f"{name}.distinct_share"] = (st[name].distinct / max(1, st[name].calls), "ratio")
        self_s("hat.encode_np")
        calls("hat.internal_lm_log_prob")
        self_s("hat.internal_lm_log_prob")
        calls("decode.search")
        self_s("decode.search")
        m["decode.hyps_per_list"] = (self.hyps / max(1, self.lists), "count")
        m["decode.truncated_share"] = (self.truncated / max(1, self.hyps), "ratio")
        m["decode.empty_lists"] = (self.empty_lists * per, "count")
        m["decode.search_gap"] = (self.gap_sum / max(1, self.gap_n), "nat")
        m["decode.search_gap_hyps"] = (self.gap_n * per, "count")
        for name in ("lm.next_token_logprobs", "lm.advance_state", "lm.score_tokens"):
            calls(name)
            self_s(name)
        self_s("mwer.composite_loss")
        calls("mwer.nwe")
        self_s("mwer.nwe")
        for name in ("lfm.forward", "lfm.rescore_scalar"):
            calls(name)
            self_s(name)
        m["lfm.prepare_rescoring.incl_s"] = (st["lfm.prepare_rescoring"].incl_s * per, "s")
        m["sweep.points"] = (self.points * per, "count")
        for part, share in self.step_shares().items():
            m[f"training.step.{part}_share"] = (share, "ratio")
        return m

    def write_jsonl(self, path, t_base: float) -> None:
        """Operations, then spans, one JSON object per line; seconds from t_base."""
        def rel(t):
            return None if t is None else round(t - t_base, 7)

        with open(path, "w") as f:
            for i, (kind, start, end) in enumerate(self.ops):
                f.write(json.dumps({"op": i, "kind": kind, "start": rel(start), "end": rel(end)},
                                   separators=(",", ":")) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                f.write(json.dumps({"span": sid, "name": name, "start": rel(start),
                                    "end": rel(end), "parent": parent, "op": op},
                                   separators=(",", ":")) + "\n")

"""Frame-synchronous beam search over the transducer lattice.

Each frame allows up to ``frame_cap`` label emissions before a forced blank
move to the next frame. Partial hypotheses with identical token sequences
are merged by logsumexp of their path scores, so the search score of a
finished hypothesis estimates its full-sum probability from the paths
actually visited. Fusion follows

    combined = e2e - lam * sum(s_l) + gam * sum(r_l),

with the internal-LM (ILM) view read straight off the model's own decoder
(zeroed encoder contribution) by its numpy head, ``HatModel.ilm_logprobs_np``.
Rescoring's ``HatModel.internal_lm_log_prob`` replays these steps, so the
search and rescoring rank by one ILM; the tape head of
``HatModel.score_sequences`` serves the MWER loss and its gradients, and
``exhaustive_search``. Fusion weights must be finite and nonnegative
(``require_fusion_weights``). LM scores must be finite too, so
``beam_search``, ``exhaustive_search`` and ``lfm.prepare_rescoring`` refuse
an n-gram without smoothing: it scores an unseen token -inf, and a zero
weight times -inf is NaN. The two searches also refuse an n-gram over a
different number of labels than the model's.

Each expansion stage is scored as one stack: one ``joint_np`` call on the
frontier's (F, J) decoder projections, then a partition of the (F, V) score
matrix that keeps every candidate tying the k-th score, and a sort of that
shortlist by the (-score, tokens) key of a full sort. What depends on the
tokens alone (prediction state, projection, ILM and ELM rows, per-token
arrays and their sums) is made once per search and cached by token tuple.
Stacked products go row by row (``hat._row_products``), so the lists equal
those of a hypothesis-at-a-time search bit for bit.

``beam_search_plain`` is the fusion-free twin: it never touches LM
machinery, and with lam = gam = 0 the fused search is bit-identical to it.
Its hypotheses carry empty ILM and ELM score arrays, not per-token zeros,
so a plain list cannot pass for one whose LM scores are attached.

Both searches return at least one hypothesis: the acoustics are never
empty, each frame's pool holds every frontier prefix, and the beam keeps
the pool's best ``beam_size >= 1``. An empty list can come only from a file.

``rescore_components`` only adds the exact full sum. The per-token ILM and
ELM scores of a list are attached once, by ``lfm.prepare_rescoring``; every
later stage reads them off the hypotheses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .hat import HatModel, Utterance
from .lm import (advance_state, initial_state, next_token_logprobs, require_smoothing,
                 score_tokens)

_COUNTERS = {"beam_search": 0}


def beam_call_count() -> int:
    """Total beam searches run in this process; training uses it to prove
    hypotheses are regenerated every step."""
    return _COUNTERS["beam_search"]


def require_fusion_weights(*weights) -> None:
    """Each weight must be a finite number >= 0: a NaN weight ranks at
    random, and an infinite one times a zero score is NaN."""
    if not all(0 <= w < np.inf for w in weights):
        raise ValueError(f"fusion weights must be finite and nonnegative, got {list(weights)}")


@dataclass
class BeamConfig:
    beam_size: int = 8
    ilm_weight: float = 0.0
    elm_weight: float = 0.0
    max_tokens: int = 24
    frame_cap: int = 4

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError(f"beam size must be >= 1, got {self.beam_size}")
        require_fusion_weights(self.ilm_weight, self.elm_weight)
        if self.max_tokens < 0 or self.frame_cap < 1:
            raise ValueError("max_tokens must be >= 0 and frame_cap >= 1")


@dataclass
class Hypothesis:
    tokens: tuple
    e2e_search: float
    ilm_scores: np.ndarray
    elm_scores: np.ndarray
    combined: float
    truncated: bool = False
    e2e_fullsum: float | None = None

    def recombined(self, lam: float, gam: float) -> float:
        """Combined score recomputed from stored components (bit-equal)."""
        return _combine(self.e2e_search, lam, self.ilm_scores, gam, self.elm_scores)


@dataclass
class NBestList:
    uid: str
    reference: list
    hyps: list
    ilm_weight: float = 0.0
    elm_weight: float = 0.0

    def token_lists(self) -> list:
        return [list(h.tokens) for h in self.hyps]


def _combine(e2e, lam, ilm_arr, gam, elm_arr) -> float:
    return (e2e - lam * float(np.sum(ilm_arr))) + gam * float(np.sum(elm_arr))


class _Prefix:
    """What the search knows about one token prefix; made once per search.

    ``ilm_sum``/``elm_sum`` are ``np.sum`` of the per-token arrays, taken
    when the prefix is made so no stage or sort re-sums them.
    """

    __slots__ = ("tokens", "dstate", "dproj", "ilm", "elm", "ilm_sum", "elm_sum",
                 "elm_state", "ilm_vec", "elm_vec")

    def __init__(self, tokens, dstate, ilm, elm, elm_state=None):
        self.tokens = tokens
        self.dstate = dstate
        self.ilm = ilm
        self.elm = elm
        self.ilm_sum = float(np.sum(ilm))
        self.elm_sum = float(np.sum(elm))
        self.elm_state = elm_state
        self.dproj = self.ilm_vec = self.elm_vec = None


def _require_aligned_vocab(model: HatModel, elm) -> None:
    require_smoothing(elm.smoothing)
    if elm.vocab_size != model.config.vocab_size:
        raise ValueError(f"external LM has {elm.vocab_size} labels, the model "
                         f"{model.config.vocab_size}")


def _make_prefix(model: HatModel, elm, parent: _Prefix, v: int, with_lm: bool) -> _Prefix:
    """The prefix ``parent.tokens + (v,)``; its stacked rows (dproj, ilm_vec) come later."""
    tokens = parent.tokens + (v,)
    dstate = model.pred_step_np(parent.dstate, v)
    if not with_lm:
        return _Prefix(tokens, dstate, parent.ilm, parent.elm)
    # the parent's ELM row already scores v; only the new state is queried
    elm_state, r = (advance_state(elm, parent.elm_state, v, parent.elm_vec)
                    if elm is not None else (None, 0.0))
    p = _Prefix(tokens, dstate, np.append(parent.ilm, parent.ilm_vec[v]),
                np.append(parent.elm, r), elm_state)
    p.elm_vec = next_token_logprobs(elm, elm_state) if elm is not None else parent.elm_vec
    return p


def _search(utterance: Utterance, model: HatModel, elm, lam: float, gam: float,
            cfg: BeamConfig, with_lm: bool):
    _COUNTERS["beam_search"] += 1
    vocab_size = model.config.vocab_size
    enc = model.encode_np(utterance.acoustics)
    eproj = model.eproj_np(enc)
    root = _Prefix((), model.pred_start_np(), np.zeros(0), np.zeros(0))
    root.dproj = model.dproj_np(root.dstate[None])[0]
    if with_lm:
        root.ilm_vec = model.ilm_logprobs_np(root.dproj[None])[0]
        if elm is not None:
            root.elm_state = initial_state(elm)
            root.elm_vec = next_token_logprobs(elm, root.elm_state)
        else:
            root.elm_vec = np.zeros(vocab_size)
    cache = {(): root}

    # a hypothesis is [prefix, e2e]: the score belongs to the search, the
    # rest is shared by every hypothesis with those tokens
    beam = [[root, 0.0]]
    k = cfg.beam_size
    for t in range(enc.shape[0]):
        pool: dict = {}
        frontier = beam
        for stage in range(cfg.frame_cap + 1):
            prefixes = [p for p, _ in frontier]
            e2e = np.array([s for _, s in frontier])
            blank_logit, label_lp = model.joint_np(eproj[t], np.stack([p.dproj for p in prefixes]))
            moved = e2e + (-np.logaddexp(0.0, -blank_logit))
            for p, s in zip(prefixes, moved):
                cur = pool.get(p.tokens)
                if cur is None:
                    pool[p.tokens] = [p, s]
                else:
                    cur[1] = np.logaddexp(cur[1], s)
            rows = [i for i, p in enumerate(prefixes) if len(p.tokens) < cfg.max_tokens]
            if stage == cfg.frame_cap or not rows:
                break
            e2e_new = (e2e + (-np.logaddexp(0.0, blank_logit)))[rows, None] + label_lp[rows]
            if with_lm:
                live = [prefixes[i] for i in rows]
                si = np.array([p.ilm_sum for p in live])[:, None]
                sr = np.array([p.elm_sum for p in live])[:, None]
                ilm_vec = np.stack([p.ilm_vec for p in live])
                elm_vec = np.stack([p.elm_vec for p in live])
                comb = (e2e_new - lam * (si + ilm_vec)) + gam * (sr + elm_vec)
            else:
                comb = e2e_new
            # ties of the k-th score stay on the shortlist: a full sort's top k
            neg = -comb.ravel()
            short = range(neg.size)
            if neg.size > k:
                short = np.flatnonzero(neg <= neg[np.argpartition(neg, k - 1)[k - 1]]).tolist()
            chosen = sorted((neg[c], prefixes[rows[c // vocab_size]].tokens + (c % vocab_size,), c)
                            for c in short)[:k]
            frontier, made = [], []
            for _, tokens, c in chosen:
                r, v = divmod(c, vocab_size)
                p = cache.get(tokens)
                if p is None:
                    p = cache[tokens] = _make_prefix(model, elm, prefixes[rows[r]], v, with_lm)
                    made.append(p)
                frontier.append([p, e2e_new[r, v]])
            if made:  # one stacked projection (and ILM head) for the new prefixes
                dproj = model.dproj_np(np.stack([p.dstate for p in made]))
                for p, d in zip(made, dproj):
                    p.dproj = d
                if with_lm:
                    for p, iv in zip(made, model.ilm_logprobs_np(dproj)):
                        p.ilm_vec = iv

        merged = sorted(pool.values(), key=lambda h: (
            -((h[1] - lam * h[0].ilm_sum) + gam * h[0].elm_sum), h[0].tokens))
        beam = merged[:k]

    out = []
    for p, s in beam:
        out.append(
            Hypothesis(
                tokens=p.tokens,
                e2e_search=float(s),
                ilm_scores=p.ilm,
                elm_scores=p.elm,
                combined=_combine(s, lam, p.ilm, gam, p.elm),
                truncated=len(p.tokens) >= cfg.max_tokens,
            )
        )
    out.sort(key=lambda h: (-h.combined, h.tokens))
    return NBestList(uid=utterance.uid, reference=list(utterance.reference), hyps=out,
                     ilm_weight=lam, elm_weight=gam)


def beam_search(utterance: Utterance, model: HatModel, elm, config: BeamConfig) -> NBestList:
    """Fusion beam search; ``elm`` may be None only when the ELM weight is 0."""
    if config.elm_weight > 0 and elm is None:
        raise ValueError("an external LM is required when its fusion weight is positive")
    if elm is not None:
        _require_aligned_vocab(model, elm)
    return _search(utterance, model, elm, config.ilm_weight, config.elm_weight, config, with_lm=True)


def beam_search_plain(utterance: Utterance, model: HatModel, config: BeamConfig) -> NBestList:
    """LM-free twin of beam_search; never computes ILM or ELM scores."""
    return _search(utterance, model, None, 0.0, 0.0, config, with_lm=False)


def exhaustive_search(utterance: Utterance, model: HatModel, elm, lam: float, gam: float,
                      max_len: int) -> list:
    """Argmax of the fused score over every label sequence up to max_len.

    Scores use the exact full-sum, so this is the reference the beam is
    checked against. Enumeration is guarded at 1e6 candidates.
    """
    v = model.config.vocab_size
    total = sum(v**n for n in range(max_len + 1))
    if total > 10**6:
        raise ValueError(f"enumeration of {total} sequences exceeds the 1e6 guard")
    if elm is not None:
        _require_aligned_vocab(model, elm)
    enc = model.encode(utterance.acoustics)
    best_key = None
    best_tokens: list = []
    for n in range(max_len + 1):
        seqs = [[]] if n == 0 else [list(s) for s in np.ndindex(*([v] * n))]
        full, ilm_tot = model.score_sequences(enc, seqs)
        for seq, fs, si in zip(seqs, full.data, ilm_tot.data):
            sr = float(np.sum(score_tokens(elm, seq))) if elm is not None else 0.0
            score = (fs - lam * si) + gam * sr
            key = (-score, tuple(seq))
            if best_key is None or key < best_key:
                best_key = key
                best_tokens = seq
    return best_tokens


def rescore_components(nbest: NBestList, model: HatModel, utterance: Utterance) -> NBestList:
    """Attach exact full-sum scores; the search estimates stay untouched."""
    if not nbest.hyps:
        raise ValueError("cannot rescore an empty hypothesis list")
    enc = model.encode(utterance.acoustics)
    full = model.full_sum_log_probs(enc, nbest.token_lists()).data
    hyps = [replace(h, e2e_fullsum=float(fs)) for h, fs in zip(nbest.hyps, full)]
    return NBestList(nbest.uid, list(nbest.reference), hyps, nbest.ilm_weight, nbest.elm_weight)


# -- persistence: one record per utterance ----------------------------------


def save_nbest(lists, path) -> None:
    with open(path, "w") as f:
        for nb in lists:
            rec = {
                "uid": nb.uid,
                "reference": list(nb.reference),
                "ilm_weight": nb.ilm_weight,
                "elm_weight": nb.elm_weight,
                "hyps": [
                    {
                        "tokens": list(h.tokens),
                        "e2e_search": h.e2e_search,
                        "e2e_fullsum": h.e2e_fullsum,
                        "ilm": h.ilm_scores.tolist(),
                        "elm": h.elm_scores.tolist(),
                        "combined": h.combined,
                        "truncated": h.truncated,
                    }
                    for h in nb.hyps
                ],
            }
            f.write(json.dumps(rec) + "\n")


NUMBER = (int, float)  # compared by type(), so a bool is no number
# key -> its allowed types, or [types] for a list of such items
_RECORD_KEYS = {"uid": (str,), "reference": [(int,)], "ilm_weight": NUMBER,
                "elm_weight": NUMBER, "hyps": (list,)}
_HYP_KEYS = {"tokens": [(int,)], "e2e_search": NUMBER, "e2e_fullsum": NUMBER + (type(None),),
             "ilm": [NUMBER], "elm": [NUMBER], "combined": NUMBER, "truncated": (bool,)}


def check_keys(rec, keys: dict) -> None:
    if type(rec) is not dict:
        raise ValueError("not a JSON object")
    for key, kind in keys.items():
        value = rec.get(key)
        ok = (type(value) is list and all(type(v) in kind[0] for v in value)
              if isinstance(kind, list) else type(value) in kind)
        if key not in rec or not ok:
            raise ValueError(f"{key!r} is missing or of the wrong type")


def load_nbest(path) -> list:
    """Read an N-best file; a record that breaks the schema (keys and their
    types) raises ``ValueError`` naming the file and line."""
    out = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            check_keys(rec, _RECORD_KEYS)
            for h in rec["hyps"]:
                check_keys(h, _HYP_KEYS)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        hyps = [
            Hypothesis(
                tokens=tuple(h["tokens"]),
                e2e_search=h["e2e_search"],
                ilm_scores=np.array(h["ilm"]),
                elm_scores=np.array(h["elm"]),
                combined=h["combined"],
                truncated=h["truncated"],
                e2e_fullsum=h["e2e_fullsum"],
            )
            for h in rec["hyps"]
        ]
        out.append(NBestList(rec["uid"], rec["reference"], hyps,
                             rec["ilm_weight"], rec["elm_weight"]))
    return out

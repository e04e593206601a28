"""Frame-synchronous beam search over the transducer lattice.

Each frame allows up to ``frame_cap`` label emissions before a forced blank
move to the next frame. Partial hypotheses with identical token sequences
are merged by logsumexp of their path scores, so the search score of a
finished hypothesis estimates its full-sum probability from the paths
actually visited. Fusion follows

    combined = e2e - lam * sum(s_l) + gam * sum(r_l),

with the internal-LM view read straight off the model's own decoder
(zeroed encoder contribution), never a detached copy. LM scores must be
finite, so ``beam_search``, ``exhaustive_search`` and
``lfm.prepare_rescoring`` refuse an n-gram without smoothing: it scores an
unseen token -inf, and a zero weight times -inf is NaN. The two searches
also refuse an n-gram over a different number of labels than the model's.

``beam_search_plain`` is the fusion-free twin: it never touches LM
machinery, and with lam = gam = 0 the fused search is bit-identical to it.
Its hypotheses carry empty ILM and ELM score arrays, not per-token zeros,
so a plain list cannot pass for one whose LM scores are attached.

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
        if self.ilm_weight < 0 or self.elm_weight < 0:
            raise ValueError("fusion weights must be nonnegative")
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


class _SearchHyp:
    __slots__ = ("tokens", "e2e", "dstate", "dproj", "ilm", "elm", "elm_state", "ilm_vec", "elm_vec")

    def __init__(self, tokens, e2e, dstate, dproj, ilm, elm, elm_state, ilm_vec=None, elm_vec=None):
        self.tokens = tokens
        self.e2e = e2e
        self.dstate = dstate
        self.dproj = dproj
        self.ilm = ilm
        self.elm = elm
        self.elm_state = elm_state
        self.ilm_vec = ilm_vec
        self.elm_vec = elm_vec

    def moved_blank(self, e2e):
        return _SearchHyp(self.tokens, e2e, self.dstate, self.dproj, self.ilm, self.elm,
                          self.elm_state, self.ilm_vec, self.elm_vec)


def _require_aligned_vocab(model: HatModel, elm) -> None:
    require_smoothing(elm.smoothing)
    if elm.vocab_size != model.config.vocab_size:
        raise ValueError(f"external LM has {elm.vocab_size} labels, the model "
                         f"{model.config.vocab_size}")


def _search(utterance: Utterance, model: HatModel, elm, lam: float, gam: float,
            cfg: BeamConfig, with_lm: bool):
    _COUNTERS["beam_search"] += 1
    vocab_size = model.config.vocab_size
    enc = model.encode_np(utterance.acoustics)
    eproj = model.eproj_np(enc)
    d0 = model.pred_start_np()
    zero_vec = np.zeros(vocab_size)
    root = _SearchHyp((), 0.0, d0, model.dproj_np(d0), np.zeros(0), np.zeros(0), None)
    if with_lm:
        root.ilm_vec = model.ilm_logprobs_np(root.dproj)
        if elm is not None:
            root.elm_state = initial_state(elm)
            root.elm_vec = next_token_logprobs(elm, root.elm_state)
        else:
            root.elm_vec = zero_vec

    beam = [root]
    k = cfg.beam_size
    for t in range(enc.shape[0]):
        ep = eproj[t]
        pool: dict = {}
        frontier = beam
        for stage in range(cfg.frame_cap + 1):
            locals_ = [model.joint_np(ep, h.dproj) for h in frontier]
            for h, (blank_logit, _) in zip(frontier, locals_):
                moved = h.e2e + (-np.logaddexp(0.0, -blank_logit))
                cur = pool.get(h.tokens)
                if cur is None:
                    pool[h.tokens] = h.moved_blank(moved)
                else:
                    cur.e2e = float(np.logaddexp(cur.e2e, moved))
            if stage == cfg.frame_cap:
                break
            cands = []
            for h, (blank_logit, label_lp) in zip(frontier, locals_):
                if len(h.tokens) >= cfg.max_tokens:
                    continue
                e2e_new = h.e2e + (-np.logaddexp(0.0, blank_logit)) + label_lp
                if with_lm:
                    si = float(np.sum(h.ilm))
                    sr = float(np.sum(h.elm))
                    comb = (e2e_new - lam * (si + h.ilm_vec)) + gam * (sr + h.elm_vec)
                else:
                    comb = e2e_new
                for v in range(vocab_size):
                    cands.append((-comb[v], h.tokens + (v,), h, v, e2e_new[v]))
            if not cands:
                frontier = []
                continue
            cands.sort(key=lambda c: (c[0], c[1]))
            survivors = []
            for _, tokens, h, v, e2e_val in cands[:k]:
                dstate = model.pred_step_np(h.dstate, v)
                dproj = model.dproj_np(dstate)
                if with_lm:
                    ilm = np.append(h.ilm, h.ilm_vec[v])
                    if elm is not None:
                        elm_state, r = advance_state(elm, h.elm_state, v)
                        elm_arr = np.append(h.elm, r)
                        elm_vec = next_token_logprobs(elm, elm_state)
                    else:
                        elm_state, elm_arr, elm_vec = None, np.append(h.elm, 0.0), zero_vec
                    nh = _SearchHyp(tokens, e2e_val, dstate, dproj, ilm, elm_arr, elm_state,
                                    model.ilm_logprobs_np(dproj), elm_vec)
                else:
                    nh = _SearchHyp(tokens, e2e_val, dstate, dproj, h.ilm, h.elm, None)
                survivors.append(nh)
            frontier = survivors

        merged = list(pool.values())
        if with_lm:
            merged.sort(key=lambda h: (-_combine(h.e2e, lam, h.ilm, gam, h.elm), h.tokens))
        else:
            merged.sort(key=lambda h: (-h.e2e, h.tokens))
        beam = merged[:k]

    out = []
    for h in beam:
        out.append(
            Hypothesis(
                tokens=h.tokens,
                e2e_search=float(h.e2e),
                ilm_scores=h.ilm,
                elm_scores=h.elm,
                combined=_combine(h.e2e, lam, h.ilm, gam, h.elm),
                truncated=len(h.tokens) >= cfg.max_tokens,
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
            sr = float(np.sum(score_tokens(elm, seq).per_token)) if elm is not None else 0.0
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


def load_nbest(path) -> list:
    out = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
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

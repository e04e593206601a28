"""Acceptance gate: every capability criterion in one numbered suite.

Each test re-derives its expected values from an independent oracle
(path enumeration, closed forms, finite differences, exhaustive search,
recursive edit distance) or runs the full recognition benchmark at a fixed
scale. Every test enforces a wall-clock budget and emits one verdict line,
visible under ``pytest -s``.

The recognition criteria (07, 08, 11) share per-seed artifacts through a
lazily built module cache, so the suite can run whole or filtered without
retraining the same models twice.
"""

import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import check_gradients, fd_gradients, relative_grad_error
from hatfusion import cli
from hatfusion import tensor as T
from hatfusion.data import TaskConfig, generate_task, wer
from hatfusion.decode import (BeamConfig, Hypothesis, NBestList,
                              beam_call_count, beam_search, beam_search_plain,
                              exhaustive_search, rescore_components,
                              save_nbest)
from hatfusion.hat import (HatConfig, HatModel, Utterance,
                           lattice_sweep_count)
from hatfusion.lfm import (LfmConfig, LfmModel, lfm_loss, prepare_rescoring,
                           rescore_scalar, rescore_with_lfm, train_lfm_step)
from hatfusion.lm import train_ngram
from hatfusion.mwer import (MwerConfig, composite_loss, mwer_loss_scores,
                            nwe, renormalize, renormalized_expectation)
from hatfusion.sweep import SweepSpec, prepare_corpus, run_sweep, sweep_eval_count
from hatfusion.training import TrainConfig, train_lfm, train_mle, train_mwer


class criterion:
    """Times a criterion body, enforces its budget, prints the verdict."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget
        print(f"criterion {self.number:02d} {self.label}: "
              f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s / {self.budget:.0f}s)")
        if exc_type is None and not ok:
            raise AssertionError(
                f"criterion {self.number} exceeded its budget: "
                f"{elapsed:.1f}s >= {self.budget}s")
        return False


# -- small-model helpers -------------------------------------------------------


def tiny_model(v=3, a=4, seed=0):
    cfg = HatConfig(vocab_size=v, acoustic_size=a, embed_dim=3, hidden_dim=4,
                    joint_dim=4)
    return HatModel(cfg, seed=seed)


def random_utt(rng, a=4, t=3, uid="u", ref=()):
    return Utterance(uid, [int(x) for x in rng.integers(0, a, size=t)], list(ref))


def tiny_elm(rng, v=3, order=2, smoothing=0.5, n=30):
    corpus = [[int(x) for x in rng.integers(0, v, size=rng.integers(1, 4))]
              for _ in range(n)]
    return train_ngram(corpus, order=order, smoothing=smoothing,
                       vocab=list(range(v)))


def local_grids(model, acoustics, labels):
    """Numpy (log b, log(1-b), label log-probs) grids for one pair."""
    enc = model.encode(list(acoustics))
    locs = model.joint_locals(enc, list(labels))
    logit = locs.blank_logit.data
    lb = -np.logaddexp(0.0, -logit)
    l1mb = -np.logaddexp(0.0, logit)
    return lb, l1mb, locs.label_logprob.data


def enumerated_full_sum(lb, l1mb, lab, labels):
    """Log-sum over every monotonic alignment, walked recursively."""
    t_len = lb.shape[0]
    u_len = len(labels)
    done = []

    def walk(t, u, w):
        wb = w + lb[t, u]
        if t == t_len - 1:
            if u == u_len:
                done.append(wb)
        else:
            walk(t + 1, u, wb)
        if u < u_len:
            walk(t, u + 1, w + l1mb[t, u] + lab[t, u, labels[u]])

    walk(0, 0, 0.0)
    if not done:
        return -np.inf
    m = max(done)
    return m + math.log(sum(math.exp(x - m) for x in done))


def fake_nbest(rng, k, uid="u", ref=(0, 1)):
    """Rescored list with random score components, for invariant checks."""
    hyps = []
    for i in range(k):
        n = int(rng.integers(0, 4))
        score = float(rng.normal(-5.0, 2.0))
        hyps.append(Hypothesis(
            tokens=tuple(int(x) for x in rng.integers(0, 3, size=n)),
            e2e_search=score,
            ilm_scores=rng.normal(-1.0, 0.5, size=n),
            elm_scores=rng.normal(-1.2, 0.5, size=n),
            elm_eos=0.0, combined=score, e2e_fullsum=score))
    return NBestList(uid=uid, reference=list(ref), hyps=hyps)


# -- shared recognition benchmark ---------------------------------------------

BENCH_TASK = dict(vocab_size=12, rare_count=3, train_size=300, dev_size=60,
                  test_size=100, text_only_size=2500, noise_rate=0.12,
                  max_words=4, acoustic_symbols=8)
BENCH_HAT = dict(vocab_size=12, acoustic_size=8, embed_dim=8, hidden_dim=16,
                 joint_dim=16)
BENCH_MLE_STEPS = 2500
BENCH_BEAM = dict(beam_size=8, max_tokens=8, frame_cap=4)
BENCH_GRID = dict(ilm_grid=[0.0, 0.2, 0.4], elm_grid=[0.0, 0.3, 0.6])

_BENCH_CACHE: dict = {}


def bench(seed: int):
    """Task, text LM, and likelihood-trained recognizer for one seed."""
    if seed not in _BENCH_CACHE:
        task = generate_task(TaskConfig(seed=seed, **BENCH_TASK))
        elm = train_ngram(task.text_only, order=2, smoothing=0.2,
                          vocab=list(range(task.config.vocab_size)))
        model, _ = train_mle(
            TrainConfig(regime="mle", steps=BENCH_MLE_STEPS, batch_size=4,
                        lr=2e-3, seed=seed),
            task.train, hat_config=HatConfig(**BENCH_HAT))
        _BENCH_CACHE[seed] = SimpleNamespace(
            task=task, elm=elm, model=model, warm=model.params.copy_values())
    return _BENCH_CACHE[seed]


def split_wer(model, corpus, elm=None, beam_cfg=None):
    cfg = beam_cfg or BeamConfig(**BENCH_BEAM)
    hyps = []
    for utt in corpus:
        nb = (beam_search(utt, model, elm, cfg) if elm is not None
              else beam_search_plain(utt, model, cfg))
        hyps.append(list(nb.hyps[0].tokens) if nb.hyps else [])
    return wer(hyps, [list(u.reference) for u in corpus])


# -- criteria -------------------------------------------------------------------


def test_criterion_01_lattice_oracle():
    with criterion(1, "full-sum equals path enumeration", 10.0):
        for t_len, u_len, v in itertools.product((1, 2, 3, 4), (0, 1, 2, 3),
                                                 (1, 2, 3)):
            for draw in range(20):
                seed = 10000 * t_len + 1000 * u_len + 100 * v + draw
                model = tiny_model(v=v, seed=seed)
                rng = np.random.default_rng(seed)
                utt = random_utt(rng, t=t_len, uid=f"c1-{seed}")
                labels = [int(x) for x in rng.integers(0, v, size=u_len)]
                got = model.full_sum_log_prob(utt, labels).item()
                lb, l1mb, lab = local_grids(model, utt.acoustics, labels)
                want = enumerated_full_sum(lb, l1mb, lab, labels)
                assert got == pytest.approx(want, abs=1e-10)


def test_criterion_02_normalization():
    with criterion(2, "sequence mass reaches one", 5.0):
        # truncated sum + analytic tail bound, T = 2, |V| = 2
        m = tiny_model(v=2, seed=3)
        m.params["blank_w"].data[...] *= 0.1
        m.params["blank_b"].data[...] = 2.5
        utt = Utterance("c2", [1, 2], [])
        enc = m.encode(utt.acoustics)
        mass = 0.0
        partials = []
        for n in range(11):
            seqs = [list(y) for y in itertools.product(range(2), repeat=n)]
            mass += float(np.exp(m.full_sum_log_probs(enc, seqs).data).sum())
            partials.append(mass)
        assert all(b >= a for a, b in zip(partials, partials[1:]))
        assert mass <= 1 + 1e-9
        # per node the blank logit is at least bias - |w|_1 because the
        # joint activation lies in (-1, 1)^J; summing out the label
        # distribution bounds length-n mass by C(T-1+n, n) q^n
        q = 1 - 1 / (1 + math.exp(
            -(2.5 - float(np.abs(m.params["blank_w"].data).sum()))))
        tail = sum(math.comb(len(utt.acoustics) - 1 + n, n) * q**n
                   for n in range(11, 600))
        assert tail < 1e-6
        assert mass == pytest.approx(1.0, abs=1e-6)

        # geometric closed form: constant blank, uniform labels
        for t_len, v, bias in ((1, 1, 1.1), (2, 2, 0.7)):
            g = tiny_model(v=v, seed=7)
            g.params["blank_w"].data[...] = 0.0
            g.params["blank_b"].data[...] = bias
            g.params["label_w"].data[...] = 0.0
            g.params["label_b"].data[...] = 0.0
            b = 1.0 / (1.0 + math.exp(-bias))
            gutt = Utterance("c2g", [1] * t_len, [])
            genc = g.encode(gutt.acoustics)
            for n in range(6):
                seqs = [list(y) for y in itertools.product(range(v), repeat=n)]
                probs = np.exp(g.full_sum_log_probs(genc, seqs).data)
                want = math.comb(t_len - 1 + n, n) * b**t_len * ((1 - b) / v)**n
                np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)


class _GradProbe:
    """Optimizer stand-in that records gradients and never updates."""

    def __init__(self):
        self.grads = None

    def step(self, params):
        self.grads = [np.array(t.grad) for t in params.tensors()]


def test_criterion_03_gradient_suites():
    with criterion(3, "losses match central differences", 120.0):
        # likelihood loss, 20 instances
        for i in range(20):
            rng = np.random.default_rng(300 + i)
            model = tiny_model(v=3, seed=300 + i)
            batch = [Utterance(f"g{i}", [int(x) for x in rng.integers(0, 4, 3)],
                               [int(x) for x in rng.integers(0, 3, 2)])]
            check_gradients(lambda: model.mle_loss(batch), model.params,
                            step=1e-4, rtol=1e-4)

        # renormalized expected errors from raw score vectors, 20 instances
        for i in range(20):
            rng = np.random.default_rng(330 + i)
            k = int(rng.integers(2, 6))
            ps = T.ParamSet()
            e2e = ps.add("e2e", rng.normal(-4, 1, size=k))
            ilm = ps.add("ilm", rng.normal(-2, 1, size=k))
            elm_v = rng.normal(-2, 1, size=k)
            errs = rng.integers(0, 4, size=k).astype(float)
            while np.ptp(errs) == 0:
                # all-equal errors make the loss constant and the true
                # gradient exactly zero; redraw so the check is informative
                errs = rng.integers(0, 4, size=k).astype(float)
            mu, nu = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            check_gradients(
                lambda: mwer_loss_scores(e2e, errs, ilm, elm_v, mu, nu),
                ps, step=1e-4, rtol=1e-4)

        # composite training loss through decode + shared lattice, 20 instances
        for i in range(20):
            rng = np.random.default_rng(360 + i)
            model = tiny_model(v=3, seed=360 + i)
            elm = tiny_elm(rng)
            utt = random_utt(rng, t=3, uid=f"c{i}",
                             ref=[int(x) for x in rng.integers(0, 3, 2)])
            nb = beam_search(utt, model, elm,
                             BeamConfig(beam_size=3, max_tokens=2, frame_cap=2))
            cfg = MwerConfig(mu=0.3, nu=0.2, theta=0.01)
            check_gradients(lambda: composite_loss(utt, nb, model, cfg),
                            model.params, step=1e-4, rtol=1e-4)

        # fusion-module training step, 20 instances; the probe captures the
        # exact gradients the optimizer would consume
        for i in range(20):
            rng = np.random.default_rng(390 + i)
            hat = tiny_model(v=3, seed=390 + i)
            elm = tiny_elm(rng)
            lfm = LfmModel(LfmConfig(vocab_size=3, enc_dim=4, model_dim=4,
                                     num_heads=1, num_layers=1, ffn_dim=8),
                           seed=390 + i)
            utt = random_utt(rng, t=2, uid=f"l{i}",
                             ref=[int(x) for x in rng.integers(0, 3, 2)])
            nb = beam_search_plain(utt, hat,
                                   BeamConfig(beam_size=2, max_tokens=2,
                                              frame_cap=2))
            assert len(nb.hyps) >= 2
            if len({nwe(h.tokens, utt.reference) for h in nb.hyps}) == 1:
                # equal errors make the loss constant and its gradient
                # exactly zero; anchor the reference to the top hypothesis
                # so the expected-error objective has signal
                utt.reference = list(nb.hyps[0].tokens)
            batch = [(utt, prepare_rescoring(utt, nb, hat, elm))]
            probe = _GradProbe()
            train_lfm_step(batch, hat, lfm, probe)
            numeric = fd_gradients(
                lambda: float(lfm_loss(batch, hat, lfm).data),
                list(lfm.params.tensors()), step=1e-4)
            err = relative_grad_error(probe.grads, numeric)
            assert err <= 1e-4, f"lfm step: relative gradient error {err:.2e}"


def test_criterion_04_search_oracle():
    with criterion(4, "beam equals exhaustive argmax", 60.0):
        rng = np.random.default_rng(4)
        for i in range(50):
            model = tiny_model(v=3, seed=400 + i)
            elm = tiny_elm(rng, smoothing=0.3)
            utt = random_utt(rng, t=int(rng.integers(2, 4)), uid=f"s{i}")
            lam = float(rng.choice([0.0, 0.2, 0.5, 0.8]))
            gam = float(rng.choice([0.0, 0.3, 0.6]))
            cfg = BeamConfig(beam_size=64, ilm_weight=lam, elm_weight=gam,
                             max_tokens=3, frame_cap=3)
            nb = beam_search(utt, model, elm, cfg)
            want = exhaustive_search(utt, model, elm, lam, gam, max_len=3)
            assert list(nb.hyps[0].tokens) == want

        # zero-weight fusion must be bit-identical to the plain decoder
        for i in range(10):
            model = tiny_model(v=3, seed=450 + i)
            elm = tiny_elm(rng)
            utt = random_utt(rng, t=int(rng.integers(2, 6)), uid=f"z{i}")
            cfg = BeamConfig(beam_size=4, ilm_weight=0.0, elm_weight=0.0,
                             max_tokens=4, frame_cap=2)
            fused = beam_search(utt, model, elm, cfg)
            plain = beam_search_plain(utt, model, cfg)
            assert [h.tokens for h in fused.hyps] == [h.tokens for h in plain.hyps]
            for a, b in zip(fused.hyps, plain.hyps):
                assert a.e2e_search == b.e2e_search
                assert a.combined == b.combined == b.e2e_search


def test_criterion_05_renormalization_invariants():
    with criterion(5, "top-K posterior invariants", 10.0):
        rng = np.random.default_rng(5)
        for i in range(30):
            nb = fake_nbest(rng, k=int(rng.integers(2, 8)), uid=f"p{i}")
            mu, nu = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            post = renormalize(nb, mu, nu)
            assert abs(post.probs.sum() - 1.0) <= 1e-12

            # shift invariance: adding c to every end-to-end score
            c = float(rng.normal(0, 5))
            for h in nb.hyps:
                h.e2e_fullsum += c
            shifted = renormalize(nb, mu, nu)
            np.testing.assert_allclose(shifted.log_phat, post.log_phat,
                                       rtol=0, atol=1e-12)

        # a single hypothesis is certain
        one = fake_nbest(rng, k=1)
        assert renormalize(one, 0.3, 0.3).probs[0] == 1.0

        # shifting every error count by c moves the loss by exactly c
        # and leaves gradients untouched
        for i in range(10):
            rng2 = np.random.default_rng(50 + i)
            k = int(rng2.integers(2, 6))
            ps = T.ParamSet()
            raw = ps.add("raw", rng2.normal(-3, 2, size=k))
            errs = rng2.integers(0, 5, size=k).astype(float)
            c = float(rng2.integers(1, 7))

            def run(err_vec):
                ps.zero_grads()
                with T.Tape() as tape:
                    loss = renormalized_expectation(raw, err_vec)
                    tape.backward(loss)
                return float(loss.data), raw.grad.copy()

            base, g_base = run(errs)
            moved, g_moved = run(errs + c)
            assert moved - base == pytest.approx(c, abs=1e-10)
            np.testing.assert_allclose(g_moved, g_base, rtol=0, atol=1e-10)


def test_criterion_06_regular_mwer_reduction():
    with criterion(6, "zero weights reduce to plain mwer", 120.0):
        b = bench(0)
        hat_cfg = HatConfig(**BENCH_HAT)
        arms = {}
        for name, kwargs in (("lm-path", dict(elm=b.elm)),
                             ("plain", dict())):
            model = HatModel(hat_cfg, seed=0)
            model.params.set_values(b.warm)
            cfg = TrainConfig(regime="mwer", steps=100, batch_size=4, seed=0,
                              lam=0.0, gam=0.0, mu=0.0, nu=0.0,
                              beam_size=8, max_tokens=8)
            _, log = train_mwer(cfg, b.task.train, model, **kwargs)
            arms[name] = (model, log.losses())
        lm_model, lm_losses = arms["lm-path"]
        pl_model, pl_losses = arms["plain"]
        assert len(lm_losses) == len(pl_losses) > 0
        assert lm_losses == pl_losses  # bit-equal floats, every step
        for key in lm_model.params.names():
            np.testing.assert_array_equal(lm_model.params[key].data,
                                          pl_model.params[key].data)


def test_criterion_07_fusion_gain():
    with criterion(7, "lm-aware mwer beats regular mwer", 900.0):
        hat_cfg = HatConfig(**BENCH_HAT)
        rows = []
        for seed in range(5):
            b = bench(seed)
            sw = run_sweep(SweepSpec(**BENCH_GRID), b.model, b.elm,
                           (b.task.dev_common, b.task.dev_rare),
                           beam_cfg=BeamConfig(**BENCH_BEAM))
            lam, gam = sw.best_ilm, sw.best_elm

            reg = HatModel(hat_cfg, seed=seed)
            reg.params.set_values(b.warm)
            train_mwer(TrainConfig(regime="mwer", steps=150, batch_size=4,
                                   seed=seed, beam_size=8, max_tokens=8),
                       b.task.train, reg)

            fus = HatModel(hat_cfg, seed=seed)
            fus.params.set_values(b.warm)
            train_mwer(TrainConfig(regime="mwer", steps=150, batch_size=4,
                                   seed=seed, lam=lam, gam=gam,
                                   tie_weights=True, beam_size=8,
                                   max_tokens=8),
                       b.task.train, fus, elm=b.elm)

            fused_cfg = BeamConfig(ilm_weight=lam, elm_weight=gam, **BENCH_BEAM)
            rows.append({
                "reg_rare": split_wer(reg, b.task.test_rare),
                "reg_common": split_wer(reg, b.task.test_common),
                "fus_rare": split_wer(fus, b.task.test_rare, b.elm, fused_cfg),
                "fus_common": split_wer(fus, b.task.test_common, b.elm,
                                        fused_cfg),
            })
        reg_rare = float(np.mean([r["reg_rare"] for r in rows]))
        fus_rare = float(np.mean([r["fus_rare"] for r in rows]))
        reg_common = float(np.mean([r["reg_common"] for r in rows]))
        fus_common = float(np.mean([r["fus_common"] for r in rows]))
        rel = [(r["reg_rare"] - r["fus_rare"]) / r["reg_rare"] for r in rows]
        print(f"  rare {reg_rare:.2f} -> {fus_rare:.2f} "
              f"(mean rel {100 * np.mean(rel):+.1f}%), "
              f"common {reg_common:.2f} -> {fus_common:.2f}")
        assert fus_rare < reg_rare
        assert np.mean(rel) >= 0.03
        assert fus_common - reg_common <= 1.0


def test_criterion_08_rescoring_parity():
    with criterion(8, "learned weights match swept scalars", 900.0):
        scalar_avgs, lfm_avgs = [], []
        for seed in range(3):
            b = bench(seed)
            beam = BeamConfig(**BENCH_BEAM)
            sw = run_sweep(SweepSpec(mode="rescoring", **BENCH_GRID), b.model,
                           b.elm, (b.task.dev_common, b.task.dev_rare),
                           beam_cfg=beam)
            test_c = prepare_corpus(b.model, b.elm, b.task.test_common, beam)
            test_r = prepare_corpus(b.model, b.elm, b.task.test_rare, beam)

            def scored(prepared, rank):
                hyps = [rank(u, nb).hyps[0].tokens for u, nb in prepared]
                return wer(hyps, [list(u.reference) for u, _ in prepared])

            mu, nu = sw.best_ilm, sw.best_elm
            scalar_avgs.append(0.5 * (
                scored(test_c, lambda u, nb: rescore_scalar(nb, mu, nu)) +
                scored(test_r, lambda u, nb: rescore_scalar(nb, mu, nu))))

            # the learned path consumes no grid evaluations at all, and
            # re-ranking the prepared lists adds no search or lattice work
            evals_before = sweep_eval_count()
            lfm, _ = train_lfm(
                TrainConfig(regime="lfm", steps=300, batch_size=4, seed=seed,
                            beam_size=8, max_tokens=8),
                b.task.dev_common + b.task.dev_rare, b.model, b.elm)
            beams_before = beam_call_count()
            sweeps_before = lattice_sweep_count()
            lfm_avgs.append(0.5 * (
                scored(test_c, lambda u, nb: rescore_with_lfm(u, nb, b.model,
                                                              b.elm, lfm)) +
                scored(test_r, lambda u, nb: rescore_with_lfm(u, nb, b.model,
                                                              b.elm, lfm))))
            assert sweep_eval_count() == evals_before
            assert beam_call_count() == beams_before
            assert lattice_sweep_count() == sweeps_before
        scalar = float(np.mean(scalar_avgs))
        learned = float(np.mean(lfm_avgs))
        print(f"  scalar {scalar:.2f} vs learned {learned:.2f} "
              f"(ratio {learned / scalar:.4f})")
        assert learned <= 1.02 * scalar


def test_criterion_09_lfm_reductions():
    with criterion(9, "constant head reduces to scalar fusion", 120.0):
        rng = np.random.default_rng(9)
        # identical ordering on 100 lists under the shared tie-break
        for i in range(100):
            hat = tiny_model(v=3, seed=900 + i)
            elm = tiny_elm(rng)
            lfm = LfmModel(LfmConfig(vocab_size=3, enc_dim=4), seed=900 + i)
            c_mu, c_nu = lfm.set_constant_head(float(rng.uniform(0, 0.8)),
                                               float(rng.uniform(0, 0.8)))
            utt = random_utt(rng, t=4, uid=f"o{i}")
            nb = beam_search_plain(utt, hat, BeamConfig(beam_size=4,
                                                        max_tokens=3,
                                                        frame_cap=2))
            prepared = prepare_rescoring(utt, nb, hat, elm)
            via_lfm = rescore_with_lfm(utt, prepared, hat, elm, lfm)
            via_scalar = rescore_scalar(prepared, c_mu, c_nu)
            assert [h.tokens for h in via_lfm.hyps] == \
                [h.tokens for h in via_scalar.hyps]
            for a, s in zip(via_lfm.hyps, via_scalar.hyps):
                assert a.combined == s.combined

        # causality: weights before a mutated position are bit-stable,
        # weights from it onward respond
        for i in range(20):
            lfm = LfmModel(LfmConfig(vocab_size=5, enc_dim=4), seed=950 + i)
            enc = rng.normal(size=(3, 4))
            n = int(rng.integers(2, 7))
            toks = [int(x) for x in rng.integers(0, 5, size=n)]
            cut = int(rng.integers(1, n))
            alt = list(toks)
            alt[cut] = (alt[cut] + 1) % 5
            a = lfm.forward(enc, toks).data
            c = lfm.forward(enc, alt).data
            np.testing.assert_array_equal(a[:cut], c[:cut])
            assert not np.array_equal(a[cut:], c[cut:])

        # freeze integrity across a full training run
        b = bench(0)
        hat_before = {k: b.model.params[k].data.copy()
                      for k in b.model.params.names()}
        train_lfm(TrainConfig(regime="lfm", steps=40, batch_size=4, seed=0,
                              beam_size=8, max_tokens=8),
                  b.task.dev_rare, b.model, b.elm)
        for k, v in hat_before.items():
            np.testing.assert_array_equal(b.model.params[k].data, v)


def test_criterion_10_nwe_oracle():
    with criterion(10, "edit counts match recursion", 5.0):
        def edit_oracle(a, b):
            def go(i, j):
                if i == 0:
                    return j
                if j == 0:
                    return i
                return min(go(i - 1, j) + 1, go(i, j - 1) + 1,
                           go(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
            return go(len(a), len(b))

        seqs = [list(s) for n in range(5)
                for s in itertools.product(range(3), repeat=n)]
        for a in seqs:
            for b in seqs:
                assert nwe(a, b) == edit_oracle(a, b)

        # corpus-level rate is word-weighted, unlike the mean of rates
        refs = [[1], [2, 3, 4, 5, 6, 7, 8, 9, 10]]
        hyps = [[1], [2, 3, 4, 5, 0, 0, 0, 0, 0]]
        corpus = wer(hyps, refs)
        per_sentence = [wer([h], [r]) for h, r in zip(hyps, refs)]
        assert corpus == pytest.approx(100.0 * 5 / 10)
        assert np.mean(per_sentence) == pytest.approx((0.0 + 100.0 * 5 / 9) / 2)
        assert abs(corpus - float(np.mean(per_sentence))) > 5.0


def test_criterion_11_weight_series_report(tmp_path, capsys):
    with criterion(11, "weight series logged and reported", 120.0):
        b = bench(0)
        _, log = train_lfm(
            TrainConfig(regime="lfm", steps=8, batch_size=4, seed=0,
                        log_every=2, beam_size=8, max_tokens=8),
            b.task.dev_rare, b.model, b.elm,
            stats_data=b.task.dev_common[:6])
        stat_records = [r for r in log.records if "train_stats" in r]
        assert [r["step"] for r in stat_records] == [2, 4, 6, 8]
        for rec in stat_records:
            for side in ("train_stats", "dev_stats"):
                stats = rec[side]
                for key in ("mean_mu", "std_mu", "mean_nu", "std_nu"):
                    assert np.isfinite(stats[key])
                    assert stats[key] >= 0.0
                assert stats["token_count"] > 0

        # the report command renders the series from persisted artifacts
        exp = tmp_path / "exp"
        (exp / "logs").mkdir(parents=True)
        (exp / "nbest").mkdir()
        log.save(exp / "logs" / "lfm-000.jsonl")
        beam = BeamConfig(**BENCH_BEAM)
        lists = [rescore_components(beam_search_plain(u, b.model, beam),
                                    b.model, u)
                 for u in b.task.test_rare[:5]]
        save_nbest(lists, exp / "nbest" / "test.jsonl")
        assert cli.main(["report", "--exp-dir", str(exp)]) == 0
        shown = capsys.readouterr().out
        weight_lines = [ln for ln in shown.splitlines()
                        if ln.startswith("lfm-weights ")]
        assert len(weight_lines) == len(stat_records)
        assert all("t.mean_mu=" in ln and "d.mean_nu=" in ln
                   for ln in weight_lines)
        assert (exp / "report.txt").exists()
        assert (exp / "report.json").exists()

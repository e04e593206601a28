"""Training loops: determinism, logging, divergence handling, freezing."""

import warnings

import numpy as np
import pytest

from hatfusion import decode, hat, tensor as T, training
from hatfusion.data import TaskConfig, generate_task
from hatfusion.hat import HatConfig, HatModel
from hatfusion.lfm import LfmConfig, LfmModel
from hatfusion.lm import train_ngram
from hatfusion.training import RunLog, TrainConfig, train_lfm, train_mle, train_mwer


def tiny_task():
    cfg = TaskConfig(vocab_size=10, rare_count=2, train_size=40, dev_size=8,
                     test_size=8, text_only_size=150, noise_rate=0.1,
                     acoustic_symbols=6, max_words=4, seed=3)
    return generate_task(cfg)


def tiny_hat(task, seed=0):
    cfg = HatConfig(vocab_size=task.config.vocab_size,
                    acoustic_size=task.config.acoustic_symbols,
                    embed_dim=4, hidden_dim=6, joint_dim=6)
    return HatModel(cfg, seed=seed)


def tiny_elm(task):
    return train_ngram(task.text_only, order=2, smoothing=0.1,
                       vocab=list(range(task.config.vocab_size)))


@pytest.fixture(scope="module")
def task():
    return tiny_task()


@pytest.fixture(scope="module")
def warm(task):
    model, _ = train_mle(TrainConfig(regime="mle", steps=80, batch_size=4, seed=0),
                         task.train, hat_config=tiny_hat(task).config)
    return model


@pytest.fixture(scope="module")
def frozen(task, warm):
    return warm, tiny_elm(task)


class TestConfig:
    def test_bad_regime_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(regime="sgd", steps=1)

    def test_lfm_regime_forces_lm_free_search(self):
        cfg = TrainConfig(regime="lfm", steps=1, lam=0.4, gam=0.2)
        assert cfg.lam == 0.0 and cfg.gam == 0.0

    def test_tied_weights_copied(self):
        cfg = TrainConfig(regime="mwer", steps=1, lam=0.3, gam=0.5, tie_weights=True)
        assert (cfg.mu, cfg.nu) == (0.3, 0.5)

    def test_regime_default_lr(self):
        assert TrainConfig(regime="mle", steps=1).lr == 1e-3
        assert TrainConfig(regime="mwer", steps=1).lr == 1e-4
        assert TrainConfig(regime="lfm", steps=1).lr == 1e-4
        assert TrainConfig(regime="mle", steps=1, lr=0.5).lr == 0.5

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(regime="mwer", steps=1, mu=-0.1)


class TestRunLog:
    def test_header_echoes_config(self):
        cfg = TrainConfig(regime="mle", steps=7, seed=9)
        log = RunLog(cfg)
        head = log.records[0]
        assert head["kind"] == "config"
        assert head["steps"] == 7 and head["seed"] == 9

    def test_roundtrip(self, tmp_path):
        log = RunLog(TrainConfig(regime="mle", steps=1))
        log.append(step=1, loss=2.5)
        log.save(tmp_path / "run.jsonl")
        back = RunLog.load(tmp_path / "run.jsonl")
        assert back.records == log.records
        assert back.losses() == [2.5]


class TestMle:
    def test_zero_steps_is_init(self, task):
        ref = tiny_hat(task, seed=4)
        model, log = train_mle(TrainConfig(regime="mle", steps=0, seed=4),
                               task.train, hat_config=ref.config)
        assert model.params.to_bytes() == ref.params.to_bytes()
        assert len(log.records) == 1  # config header only

    def test_loss_decreases(self, task):
        cfg = TrainConfig(regime="mle", steps=60, batch_size=4, seed=1, log_every=5)
        model, log = train_mle(cfg, task.train, hat_config=tiny_hat(task).config)
        losses = log.losses()
        assert losses[-1] < losses[0]

    def test_deterministic_across_runs(self, task):
        cfg = TrainConfig(regime="mle", steps=25, batch_size=4, seed=2)
        a, log_a = train_mle(cfg, task.train, hat_config=tiny_hat(task).config)
        b, log_b = train_mle(cfg, task.train, hat_config=tiny_hat(task).config)
        assert a.params.to_bytes() == b.params.to_bytes()
        assert log_a.to_bytes() == log_b.to_bytes()

    def test_divergence_restores_snapshot(self, task):
        cfg = TrainConfig(regime="mle", steps=50, batch_size=4, seed=1,
                          lr=1.0, checkpoint_every=5)
        # a huge step size blows the loss up; the run must stop at the last
        # snapshot instead of returning garbage
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, log = train_mle(cfg, task.train, hat_config=tiny_hat(task).config)
        events = [r for r in log.records if r.get("event") == "diverged"]
        if events:  # divergence is expected but not certain at any fixed lr
            assert np.all(np.isfinite(model.params.to_vector())) \
                if hasattr(model.params, "to_vector") else True
            for v in model.params.copy_values().values():
                assert np.all(np.isfinite(v))


class TestMwer:
    def clone(self, warm, task):
        model = tiny_hat(task)
        model.params.set_values(warm.params.copy_values())
        return model

    def test_decodes_fresh_lists_every_step(self, task, warm):
        model = self.clone(warm, task)
        before = decode.beam_call_count()
        cfg = TrainConfig(regime="mwer", steps=4, batch_size=3, seed=5, beam_size=4)
        train_mwer(cfg, task.train, model)
        assert decode.beam_call_count() - before == 4 * 3

    def test_regular_equals_lm_path_with_zero_weights(self, task, warm):
        elm = tiny_elm(task)
        cfg = TrainConfig(regime="mwer", steps=6, batch_size=3, seed=7, beam_size=4)
        a = self.clone(warm, task)
        _, log_a = train_mwer(cfg, task.train, a, elm=elm, lm_path=True)
        b = self.clone(warm, task)
        _, log_b = train_mwer(cfg, task.train, b, lm_path=False)
        assert log_a.losses() == log_b.losses()
        va, vb = a.params.copy_values(), b.params.copy_values()
        for name in va:
            np.testing.assert_array_equal(va[name], vb[name])

    def test_fused_weights_change_the_run(self, task, warm):
        elm = tiny_elm(task)
        base = TrainConfig(regime="mwer", steps=5, batch_size=3, seed=7, beam_size=4)
        fused = TrainConfig(regime="mwer", steps=5, batch_size=3, seed=7, beam_size=4,
                            lam=0.3, gam=0.4, tie_weights=True)
        a = self.clone(warm, task)
        _, log_a = train_mwer(base, task.train, a)
        b = self.clone(warm, task)
        _, log_b = train_mwer(fused, task.train, b, elm=elm)
        assert log_a.losses() != log_b.losses()

    def test_gamma_without_elm_rejected(self, task, warm):
        cfg = TrainConfig(regime="mwer", steps=1, gam=0.2)
        with pytest.raises(ValueError):
            train_mwer(cfg, task.train, self.clone(warm, task))

    def test_deterministic(self, task, warm):
        cfg = TrainConfig(regime="mwer", steps=4, batch_size=2, seed=3, beam_size=4)
        logs = []
        for _ in range(2):
            model = self.clone(warm, task)
            _, log = train_mwer(cfg, task.train, model)
            logs.append(log.to_bytes())
        assert logs[0] == logs[1]


class TestLfm:
    def lfm_cfg(self, task, frozen):
        hat_model, _ = frozen
        return LfmConfig(vocab_size=task.config.vocab_size,
                         enc_dim=hat_model.config.hidden_dim,
                         model_dim=8, num_heads=2, num_layers=1, ffn_dim=8)

    def test_hat_and_elm_frozen(self, task, frozen):
        hat_model, elm = frozen
        before = hat_model.params.to_bytes()
        cfg = TrainConfig(regime="lfm", steps=5, batch_size=2, seed=1, beam_size=4)
        train_lfm(cfg, task.train, hat_model, elm,
                  lfm_config=self.lfm_cfg(task, frozen))
        assert hat_model.params.to_bytes() == before

    def test_logs_weight_stats_series(self, task, frozen):
        hat_model, elm = frozen
        cfg = TrainConfig(regime="lfm", steps=6, batch_size=2, seed=2, beam_size=4,
                          log_every=2)
        _, log = train_lfm(cfg, task.train, hat_model, elm,
                           lfm_config=self.lfm_cfg(task, frozen),
                           stats_data=task.dev_common[:3])
        stat_records = [r for r in log.records if "train_stats" in r]
        assert [r["step"] for r in stat_records] == [2, 4, 6]
        for r in stat_records:
            for block in (r["train_stats"], r["dev_stats"]):
                assert block["mean_mu"] >= 0 and block["mean_nu"] >= 0
                assert np.isfinite(list(block.values())).all()

    def test_loss_decreases_on_fixed_set(self, task, frozen):
        # per-step losses bounce with the random batch, so compare the
        # expected-error objective on one held-out list before and after
        from hatfusion.decode import BeamConfig, beam_search_plain
        from hatfusion.lfm import lfm_loss, prepare_rescoring

        hat_model, elm = frozen
        bc = BeamConfig(beam_size=4)
        pairs = [(u, prepare_rescoring(u, beam_search_plain(u, hat_model, bc),
                                       hat_model, elm))
                 for u in task.dev_rare[:6]]
        lfm = LfmModel(self.lfm_cfg(task, frozen), seed=4)
        before = float(lfm_loss(pairs, hat_model, elm, lfm).data)
        cfg = TrainConfig(regime="lfm", steps=40, batch_size=3, seed=4, beam_size=4,
                          lr=3e-3)
        train_lfm(cfg, task.train, hat_model, elm, lfm=lfm)
        after = float(lfm_loss(pairs, hat_model, elm, lfm).data)
        assert after < before

    def test_deterministic(self, task, frozen):
        hat_model, elm = frozen
        cfg = TrainConfig(regime="lfm", steps=4, batch_size=2, seed=6, beam_size=4)
        outs = []
        for _ in range(2):
            lfm, log = train_lfm(cfg, task.train, hat_model, elm,
                                 lfm_config=self.lfm_cfg(task, frozen))
            outs.append((lfm.params.to_bytes(), log.to_bytes()))
        assert outs[0] == outs[1]


class TestEmptyBatch:
    """One rule in the shared driver: a step whose every list comes back
    empty logs an ``empty_batch`` event, records no loss, takes no snapshot."""

    @pytest.mark.parametrize("regime", ["mwer", "lfm"])
    def test_event_without_loss_or_snapshot(self, task, warm, regime, monkeypatch):
        empty_steps = {1, 3}
        batch_size = 2
        calls = {"n": 0}
        real_search = training.beam_search_plain

        def search(utt, model, cfg):
            step = calls["n"] // batch_size + 1
            calls["n"] += 1
            if step in empty_steps:
                return decode.NBestList(utt.uid, list(utt.reference), [])
            return real_search(utt, model, cfg)

        snapshots = []
        real_update = training._Snapshot.update

        def update(snap, step):
            snapshots.append(step)
            real_update(snap, step)

        monkeypatch.setattr(training, "beam_search_plain", search)
        monkeypatch.setattr(training._Snapshot, "update", update)
        cfg = TrainConfig(regime=regime, steps=4, batch_size=batch_size, seed=5,
                          beam_size=4, log_every=1, checkpoint_every=1)
        model = tiny_hat(task)
        model.params.set_values(warm.params.copy_values())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # one warning per skipped list
            if regime == "mwer":
                _, log = train_mwer(cfg, task.train, model)
            else:
                lfm_cfg = LfmConfig(vocab_size=task.config.vocab_size,
                                    enc_dim=model.config.hidden_dim, model_dim=8,
                                    num_heads=2, num_layers=1, ffn_dim=8)
                _, log = train_lfm(cfg, task.train, model, tiny_elm(task),
                                   lfm_config=lfm_cfg)
        events = [r for r in log.records if "event" in r]
        assert events == [{"event": "empty_batch", "step": s} for s in sorted(empty_steps)]
        assert [r["step"] for r in log.records if "loss" in r] == [2, 4]
        assert snapshots == [2, 4]

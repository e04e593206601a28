"""Weight-grid sweeps: table shape, argmin rule, rescoring reuse."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hatfusion import decode, hat
from hatfusion.data import TaskConfig, generate_task
from hatfusion.decode import BeamConfig
from hatfusion.hat import HatConfig, HatModel
from hatfusion.lm import train_ngram
from hatfusion.sweep import SweepSpec, load_sweep, run_sweep, save_sweep, sweep_eval_count
from hatfusion.training import TrainConfig, train_mle


@pytest.fixture(scope="module")
def setup():
    task = generate_task(TaskConfig(
        vocab_size=10, rare_count=2, train_size=40, dev_size=6, test_size=6,
        text_only_size=150, noise_rate=0.1, acoustic_symbols=6, max_words=4,
        seed=13))
    hat_cfg = HatConfig(vocab_size=10, acoustic_size=6,
                        embed_dim=4, hidden_dim=6, joint_dim=6)
    model, _ = train_mle(TrainConfig(regime="mle", steps=120, batch_size=4, seed=0),
                         task.train, hat_config=hat_cfg)
    elm = train_ngram(task.text_only, order=2, smoothing=0.1, vocab=list(range(10)))
    return task, model, elm


class TestSpec:
    def test_default_grid(self):
        spec = SweepSpec()
        assert spec.ilm_grid == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        assert len(spec.points()) == 81

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(ilm_grid=[])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(elm_grid=[0.0, -0.1])

    @pytest.mark.parametrize("grid", ["ilm_grid", "elm_grid"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, grid, bad):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(**{grid: [0.0, bad]})

    @pytest.mark.parametrize("grid", ["ilm_grid", "elm_grid"])
    @pytest.mark.parametrize("bad", [[True, 0], [0.1, False], 0.2, (0.1,), ["0.1"], [None]],
                             ids=repr)
    def test_grid_of_non_numbers_rejected(self, grid, bad):
        with pytest.raises(ValueError, match=grid):
            SweepSpec(**{grid: bad})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(mode="oracle")


class TestShallowSweep:
    def test_table_covers_grid_once(self, setup):
        task, model, elm = setup
        spec = SweepSpec(ilm_grid=[0.0, 0.2], elm_grid=[0.0, 0.3])
        res = run_sweep(spec, model, elm, (task.dev_common, task.dev_rare),
                        BeamConfig(beam_size=4))
        assert [(r["ilm"], r["elm"]) for r in res.rows] == spec.points()
        for r in res.rows:
            assert r["status"] == "ok"
            assert r["average"] == pytest.approx(0.5 * (r["wer_dev1"] + r["wer_dev2"]))

    def test_best_no_worse_than_origin(self, setup):
        task, model, elm = setup
        spec = SweepSpec(ilm_grid=[0.0, 0.2, 0.4], elm_grid=[0.0, 0.3])
        res = run_sweep(spec, model, elm, (task.dev_common, task.dev_rare),
                        BeamConfig(beam_size=4))
        assert res.best_average <= res.row(0.0, 0.0)["average"]

    def test_failed_points_marked_and_excluded(self, setup):
        task, model, _ = setup
        # no external LM makes every elm>0 point fail, never the sweep itself
        spec = SweepSpec(ilm_grid=[0.0, 0.2], elm_grid=[0.0, 0.5])
        res = run_sweep(spec, model, None, (task.dev_common, task.dev_rare),
                        BeamConfig(beam_size=4))
        failed = [r for r in res.rows if r["status"] != "ok"]
        assert {(r["ilm"], r["elm"]) for r in failed} == {(0.0, 0.5), (0.2, 0.5)}
        assert all(r["average"] is None for r in failed)
        assert res.best_elm == 0.0

    def test_deterministic(self, setup):
        task, model, elm = setup
        spec = SweepSpec(ilm_grid=[0.0, 0.2], elm_grid=[0.0, 0.3])
        runs = [run_sweep(spec, model, elm, (task.dev_common, task.dev_rare),
                          BeamConfig(beam_size=4)) for _ in range(2)]
        assert runs[0] == runs[1]


class TestRescoringSweep:
    def test_reranks_without_new_search_or_lattice_work(self, setup):
        task, model, elm = setup
        spec = SweepSpec(ilm_grid=[0.0, 0.2, 0.4], elm_grid=[0.0, 0.3],
                         mode="rescoring")
        dev = (task.dev_common[:4], task.dev_rare[:4])
        before_beam = decode.beam_call_count()
        before_sweeps = hat.lattice_sweep_count()
        before_points = sweep_eval_count()
        res = run_sweep(spec, model, elm, dev, BeamConfig(beam_size=4))
        beam_calls = decode.beam_call_count() - before_beam
        lattice_calls = hat.lattice_sweep_count() - before_sweeps
        # one decode and one scoring pass per utterance, none per grid point
        assert beam_calls == 8
        assert lattice_calls == 8
        assert sweep_eval_count() - before_points == 6
        assert len(res.rows) == 6

    def test_zero_point_matches_plain_decode_ranking(self, setup):
        task, model, elm = setup
        spec = SweepSpec(ilm_grid=[0.0], elm_grid=[0.0], mode="rescoring")
        res = run_sweep(spec, model, elm, (task.dev_common, task.dev_rare),
                        BeamConfig(beam_size=4))
        shallow = run_sweep(SweepSpec(ilm_grid=[0.0], elm_grid=[0.0]),
                            model, elm, (task.dev_common, task.dev_rare),
                            BeamConfig(beam_size=4))
        assert res.row(0.0, 0.0)["average"] == shallow.row(0.0, 0.0)["average"]

    def test_tie_breaks_toward_smaller_weights(self, setup):
        task, model, elm = setup
        # beams of size 1 cannot re-rank, so every point ties and the
        # lexicographically smallest pair must win
        spec = SweepSpec(ilm_grid=[0.0, 0.4], elm_grid=[0.0, 0.4],
                         mode="rescoring")
        res = run_sweep(spec, model, elm, (task.dev_common[:3], task.dev_rare[:3]),
                        BeamConfig(beam_size=1))
        assert len({r["average"] for r in res.rows}) == 1
        assert (res.best_ilm, res.best_elm) == (0.0, 0.0)


_HEAD = '{"kind": "sweep", "mode": "rescoring"}\n'
_ROW = ('{"average": 0.5, "elm": 0.0, "ilm": 0.0, "status": "ok", "wer_dev1": 0.5, '
        '"wer_dev2": 0.5}\n')
_SUMMARY = '{"best_average": 0.5, "best_elm": 0.0, "best_ilm": 0.0, "kind": "summary"}\n'


class TestPersistence:
    def test_roundtrip(self, setup, tmp_path):
        task, model, elm = setup
        spec = SweepSpec(ilm_grid=[0.0, 0.2], elm_grid=[0.0], mode="rescoring")
        res = run_sweep(spec, model, elm, (task.dev_common[:3], task.dev_rare[:3]),
                        BeamConfig(beam_size=4))
        save_sweep(res, tmp_path / "sweep.jsonl")
        back = load_sweep(tmp_path / "sweep.jsonl")
        assert back == res

    @pytest.mark.parametrize("text,lineno", [
        ("", 1),
        (_HEAD, 2),
        ('{"kind": "sweep"}\n' + _SUMMARY, 1),
        (_HEAD + '{"ilm": 0.0, "elm": 0.0}\n' + _SUMMARY, 2),
        (_HEAD + '["not", "a", "row"]\n' + _SUMMARY, 2),
        (_HEAD + _ROW + '{"kind": "summary", "best_ilm": 0.0}\n', 3),
        (_HEAD + _ROW + _ROW, 3),
        (_HEAD + '{"ilm": 0.0, "elm": 0.0, "wer_dev1": 0.5, \n' + _SUMMARY, 2),
    ], ids=["empty", "no-summary", "no-mode", "row-keys", "row-list", "summary-keys",
            "row-for-summary", "truncated-row"])
    def test_off_schema_line_names_file_and_line(self, tmp_path, text, lineno):
        p = tmp_path / "sweep.jsonl"
        p.write_text(text)
        with pytest.raises(ValueError, match=rf"sweep\.jsonl:{lineno}: "):
            load_sweep(p)

    def test_blank_lines_are_skipped(self, tmp_path):
        # a blank line used to be read as the next grid point
        p = tmp_path / "sweep.jsonl"
        p.write_text(_HEAD + _ROW + _SUMMARY)
        want = load_sweep(p)
        p.write_text("\n" + _HEAD + "\n" + _ROW + "  \n" + _ROW + "\n" + _SUMMARY + "\n")
        back = load_sweep(p)
        assert back.rows == want.rows * 2
        assert replace(back, rows=want.rows) == want

    @pytest.mark.parametrize("text,lineno", [
        ("\n" + _HEAD + "\n", 3), (_HEAD + _SUMMARY + _ROW, 2), (_HEAD + _HEAD + _SUMMARY, 2),
        (_HEAD + _ROW + '{"kind": "row"}\n' + _SUMMARY, 3),
        (_HEAD + '{"kind": ["sweep"]}\n' + _SUMMARY, 2),
    ], ids=["no-summary-after-blank", "summary-before-row", "second-header", "unknown-kind",
            "list-kind"])
    def test_out_of_place_line_names_file_and_line(self, tmp_path, text, lineno):
        p = tmp_path / "sweep.jsonl"
        p.write_text(text)
        with pytest.raises(ValueError, match=rf"sweep\.jsonl:{lineno}: "):
            load_sweep(p)

    def test_rejects_non_sweep_file(self, tmp_path):
        p = tmp_path / "other.jsonl"
        p.write_text('{"kind": "config"}\n{"kind": "other"}\n')
        with pytest.raises(ValueError):
            load_sweep(p)

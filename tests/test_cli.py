"""End-to-end command-line pipeline against a throwaway experiment dir."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import hatfusion.cli as cli
from hatfusion.cli import main
from hatfusion.decode import load_nbest
from hatfusion.lfm import rescore_scalar
from hatfusion.sweep import load_sweep

TINY = {
    "task": {"vocab_size": 10, "rare_count": 2, "train_size": 40, "dev_size": 6,
             "test_size": 6, "text_only_size": 150, "noise_rate": 0.1,
             "acoustic_symbols": 6, "max_words": 4},
    "hat": {"embed_dim": 4, "hidden_dim": 6, "joint_dim": 6},
    "train_mle": {"steps": 50, "batch_size": 4},
    "train_mwer": {"steps": 2, "batch_size": 2},
    "train_lfm": {"steps": 2, "batch_size": 2},
    "lfm": {"model_dim": 8, "num_heads": 2, "num_layers": 1, "ffn_dim": 8},
    "decode": {"beam_size": 4, "max_tokens": 8, "frame_cap": 4},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One fully populated experiment dir shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY))
    exp = root / "exp"
    args = ["--config", str(cfg_path), "--exp-dir", str(exp), "--seed", "3"]
    assert main(["gen-data", *args]) == 0
    assert main(["train-mle", *args]) == 0
    mle = next(exp.glob("models/mle-*.json")).stem
    assert main(["decode", *args, "--split", "test-rare", "--init", mle]) == 0
    nbest = next(exp.glob("nbest/test-rare-*.jsonl")).stem
    return {"root": root, "exp": exp, "config": cfg_path, "mle": mle,
            "nbest": nbest, "args": args}


class TestParsing:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_unknown_split_rejected(self, pipeline):
        code = main(["decode", *pipeline["args"], "--split", "test-rare",
                     "--init", pipeline["mle"], "--lambda", "-1"])
        assert code == 2

    def test_bad_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["gen-data", "--config", str(bad),
                     "--exp-dir", str(tmp_path / "e")]) == 2

    def test_unknown_config_section(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"optimizer": {"kind": "adam"}}')
        assert main(["gen-data", "--config", str(bad),
                     "--exp-dir", str(tmp_path / "e")]) == 2

    def test_pinned_key_rejects_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "pinned": ["seed"]}))
        assert main(["gen-data", "--config", str(cfg),
                     "--exp-dir", str(tmp_path / "e"), "--seed", "7"]) == 2

    def test_unsmoothed_elm_rejected_before_writing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "elm": {"smoothing": 0.0}}))
        assert main(["gen-data", "--config", str(cfg),
                     "--exp-dir", str(tmp_path / "e")]) == 2
        assert not (tmp_path / "e").exists()


class TestMissingArtifacts:
    def test_missing_exp_dir(self, tmp_path):
        assert main(["decode", "--exp-dir", str(tmp_path / "ghost"),
                     "--split", "train"]) == 3

    def test_train_before_gen_data(self, tmp_path):
        exp = tmp_path / "exp"
        exp.mkdir()
        assert main(["train-mle", "--exp-dir", str(exp)]) == 3

    def test_missing_nbest(self, pipeline):
        assert main(["eval", "--exp-dir", str(pipeline["exp"]),
                     "--nbest", "never-decoded"]) == 3

    def test_missing_checkpoint(self, pipeline):
        assert main(["decode", *pipeline["args"], "--split", "train",
                     "--init", "mle-deadbeef-s9"]) == 3

    def test_decode_needs_elm(self, pipeline, tmp_path):
        # decoded lists carry ELM scores; zeros in their place would be
        # ranked as real scores by rescore
        exp = tmp_path / "exp"
        shutil.copytree(pipeline["exp"], exp)
        for elm in exp.glob("models/elm-*.lm"):
            elm.unlink()
        assert main(["decode", "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                     "--split", "dev-common", "--init", pipeline["mle"]]) == 3
        assert not list(exp.glob("nbest/dev-common-*"))

    def test_rescore_lfm_needs_no_elm(self, pipeline, tmp_path):
        # the list carries its ELM scores, so re-ranking reads no ELM file
        exp = tmp_path / "exp"
        shutil.copytree(pipeline["exp"], exp)
        args = ["--config", str(pipeline["config"]), "--exp-dir", str(exp), "--seed", "5"]
        assert main(["train-lfm", *args, "--init", pipeline["mle"]]) == 0
        for stale in [*exp.glob("models/elm-*.lm"), *exp.glob("nbest/*-lfm.jsonl")]:
            stale.unlink()
        lfm = next(exp.glob("models/lfm-*-s5.json")).stem
        assert main(["rescore", "--exp-dir", str(exp), "--nbest", pipeline["nbest"],
                     "--lfm", lfm, "--init", pipeline["mle"]]) == 0

    def test_corrupt_checkpoint_exits_3(self, pipeline, tmp_path, capsys):
        exp = tmp_path / "exp"
        shutil.copytree(pipeline["exp"], exp)
        params = exp / "models" / (pipeline["mle"] + ".params")
        params.write_bytes(params.read_bytes()[:10])
        assert main(["decode", "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                     "--split", "dev-common", "--init", pipeline["mle"]]) == 3
        assert params.name in capsys.readouterr().err

    def test_corrupt_nbest_exits_3(self, pipeline, tmp_path, capsys):
        exp = tmp_path / "exp"
        shutil.copytree(pipeline["exp"], exp)
        nbest = exp / "nbest" / (pipeline["nbest"] + ".jsonl")
        nbest.write_text(nbest.read_text()[:25])
        assert main(["eval", "--exp-dir", str(exp), "--nbest", pipeline["nbest"]]) == 3
        assert nbest.name in capsys.readouterr().err

    def test_nbest_without_hyps_exits_3(self, pipeline, tmp_path, capsys):
        exp = tmp_path / "exp"
        shutil.copytree(pipeline["exp"], exp)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"uid": "x"}\n')
        assert main(["eval", "--exp-dir", str(exp), "--nbest", str(bad)]) == 3
        assert bad.name in capsys.readouterr().err

    def test_sweep_summary_without_best_ilm_exits_3(self, pipeline, tmp_path, capsys):
        exp = tmp_path / "exp"
        shutil.copytree(pipeline["exp"], exp)
        table = exp / "sweeps" / "sweep-rescoring-0-s3.jsonl"
        table.parent.mkdir(exist_ok=True)
        table.write_text('{"kind": "sweep", "mode": "rescoring"}\n'
                         '{"kind": "summary", "best_elm": 0.1, "best_average": 20.0}\n')
        assert main(["report", "--exp-dir", str(exp)]) == 3
        assert table.name in capsys.readouterr().err

    def test_lm_header_without_order_exits_3(self, pipeline, tmp_path, capsys):
        exp = tmp_path / "exp"
        shutil.copytree(pipeline["exp"], exp)
        [elm] = exp.glob("models/elm-*.lm")
        lines = elm.read_text().splitlines()
        header = json.loads(lines[1])
        del header["order"]
        elm.write_text("\n".join([lines[0], json.dumps(header), *lines[2:]]) + "\n")
        assert main(["decode", "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                     "--split", "dev-common", "--init", pipeline["mle"]]) == 3
        assert elm.name in capsys.readouterr().err


class TestAppendOnly:
    def test_gen_data_refuses_second_run(self, pipeline):
        assert main(["gen-data", *pipeline["args"]]) == 2

    def test_decode_refuses_same_artifact(self, pipeline):
        code = main(["decode", *pipeline["args"], "--split", "test-rare",
                     "--init", pipeline["mle"]])
        assert code == 2

    def test_lock_blocks_and_is_released(self, pipeline):
        lock = pipeline["exp"] / ".lock"
        lock.write_text("pid=0 cmd=test")
        assert main(["report", "--exp-dir", str(pipeline["exp"])]) == 2
        lock.unlink()
        assert main(["report", "--exp-dir", str(pipeline["exp"])]) == 0
        assert not lock.exists()


class TestPipeline:
    def test_artifacts_named_with_hash_and_seed(self, pipeline):
        exp = pipeline["exp"]
        assert pipeline["mle"].startswith("mle-") and pipeline["mle"].endswith("-s3")
        assert len(pipeline["mle"].split("-")[1]) == 8
        assert (exp / "logs" / (pipeline["mle"] + ".jsonl")).exists()
        assert next(exp.glob("models/elm-*-s3.lm"), None) is not None

    def test_decoded_nbest_is_fully_prepared(self, pipeline):
        lists = load_nbest(pipeline["exp"] / "nbest" / (pipeline["nbest"] + ".jsonl"))
        assert lists
        for nb in lists[:3]:
            assert nb.ilm_weight == 0.0 and nb.elm_weight == 0.0
            for h in nb.hyps:
                assert h.e2e_fullsum is not None
                if h.tokens:
                    assert np.any(h.ilm_scores) and np.any(h.elm_scores)

    def test_rescore_matches_rank_time_weights(self, pipeline):
        code = main(["rescore", "--exp-dir", str(pipeline["exp"]),
                     "--nbest", pipeline["nbest"], "--mu", "0.2", "--nu", "0.3"])
        assert code == 0
        out = pipeline["exp"] / "nbest" / (pipeline["nbest"] + "-r0.2-0.3.jsonl")
        ranked = load_nbest(out)
        source = load_nbest(pipeline["exp"] / "nbest" / (pipeline["nbest"] + ".jsonl"))
        for nb_src, nb_out in zip(source, ranked):
            direct = rescore_scalar(nb_src, mu=0.2, nu=0.3)
            assert [h.tokens for h in direct.hyps] == [h.tokens for h in nb_out.hyps]
            assert [h.combined for h in direct.hyps] == [h.combined for h in nb_out.hyps]

    def test_eval_writes_record(self, pipeline):
        assert main(["eval", "--exp-dir", str(pipeline["exp"]),
                     "--nbest", pipeline["nbest"]]) == 0
        rec = json.loads(
            (pipeline["exp"] / "evals" / (pipeline["nbest"] + ".json")).read_text())
        assert rec["utterances"] == 6
        assert 0.0 <= rec["wer"]

    def test_sweep_table_persisted(self, pipeline):
        code = main(["sweep", *pipeline["args"], "--init", pipeline["mle"],
                     "--mode", "rescoring", "--ilm-grid", "0,0.2",
                     "--elm-grid", "0,0.3"])
        assert code == 0
        table = next(pipeline["exp"].glob("sweeps/sweep-rescoring-*.jsonl"))
        res = load_sweep(table)
        assert len(res.rows) == 4
        assert (res.best_ilm, res.best_elm) in [(a, b) for a in (0.0, 0.2)
                                                for b in (0.0, 0.3)]

    def test_mwer_and_lfm_commands(self, pipeline):
        args = pipeline["args"]
        assert main(["train-mwer", *args, "--init", pipeline["mle"],
                     "--lambda", "0.2", "--gamma", "0.3", "--tie"]) == 0
        assert main(["train-lfm", *args, "--init", pipeline["mle"]]) == 0
        exp = pipeline["exp"]
        assert next(exp.glob("models/mwer-*.params"), None) is not None
        assert next(exp.glob("models/lfm-*.params"), None) is not None
        lfm = next(exp.glob("models/lfm-*.json")).stem
        assert main(["rescore", "--exp-dir", str(exp), "--nbest", pipeline["nbest"],
                     "--lfm", lfm, "--init", pipeline["mle"]]) == 0

    def test_report_renders(self, pipeline, capsys):
        assert main(["report", "--exp-dir", str(pipeline["exp"])]) == 0
        out = capsys.readouterr().out
        assert "wer" in out
        report = json.loads((pipeline["exp"] / "report.json").read_text())
        assert report["wer_table"]
        assert (pipeline["exp"] / "report.txt").exists()
        # the weight series exists once train-lfm has run
        for row in report["lfm_weight_series"]:
            for key, value in row.items():
                if key.endswith(("_mu", "_nu")):
                    assert np.isfinite(value)

    def test_numerical_failures_exit_4(self, pipeline, monkeypatch):
        monkeypatch.setattr(cli, "_nbest_wer", lambda lists: float("nan"))
        code = main(["eval", "--exp-dir", str(pipeline["exp"]),
                     "--nbest", pipeline["nbest"]])
        assert code == 4


class TestDeterminism:
    def test_gen_data_reproducible_across_dirs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY))
        for name in ("a", "b"):
            assert main(["gen-data", "--config", str(cfg), "--seed", "4",
                         "--exp-dir", str(tmp_path / name)]) == 0
        for rel in ["data/manifest.json", "data/train.jsonl", "data/text_only.jsonl"]:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()
        elm_a = next((tmp_path / "a").glob("models/elm-*.lm"))
        elm_b = next((tmp_path / "b").glob("models/elm-*.lm"))
        assert elm_a.name == elm_b.name
        assert elm_a.read_bytes() == elm_b.read_bytes()

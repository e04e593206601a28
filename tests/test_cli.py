"""End-to-end command-line pipeline against a throwaway experiment dir."""

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import hatfusion.cli as cli
from hatfusion import tensor as T
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


def write_config(path, **sections):
    """TINY with the given sections updated, written to ``path``."""
    cfg = {name: dict(body) for name, body in TINY.items()}
    for name, body in sections.items():
        cfg.setdefault(name, {}).update(body)
    path.write_text(json.dumps(cfg))
    return path


def copy_exp(pipeline, tmp_path):
    exp = tmp_path / "exp"
    shutil.copytree(pipeline["exp"], exp)
    return exp


def tree(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


def run_log_config(exp, pattern):
    [log] = exp.glob(pattern)
    return json.loads(log.read_text().splitlines()[0])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One fully populated experiment dir shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY))
    exp = root / "exp"
    args = ["--config", str(cfg_path), "--exp-dir", str(exp)]
    # only the commands that draw random numbers take a seed
    seeded = [*args, "--seed", "3"]
    assert main(["gen-data", *seeded]) == 0
    assert main(["train-mle", *seeded]) == 0
    mle = next(exp.glob("models/mle-*.json")).stem
    assert main(["decode", *args, "--split", "test-rare", "--init", mle]) == 0
    nbest = next(exp.glob("nbest/test-rare-*.jsonl")).stem
    return {"root": root, "exp": exp, "config": cfg_path, "mle": mle,
            "nbest": nbest, "args": args, "seeded": seeded}


@pytest.fixture(scope="module")
def lfm_exp(pipeline, tmp_path_factory):
    """A copy of the pipeline with a trained fusion module; tests only read it."""
    exp = tmp_path_factory.mktemp("lfm") / "exp"
    shutil.copytree(pipeline["exp"], exp)
    assert main(["train-lfm", "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                 "--seed", "5", "--init", pipeline["mle"]]) == 0
    return {"exp": exp, "lfm": next(exp.glob("models/lfm-*-s5.json")).stem}


def edited_nbest(pipeline, path, edit):
    """The pipeline's N-best file with ``edit`` applied to every record."""
    src = pipeline["exp"] / "nbest" / (pipeline["nbest"] + ".jsonl")
    records = [json.loads(line) for line in src.read_text().splitlines()]
    for rec in records:
        edit(rec)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    return path


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
        for text in ('{"optimizer": {"kind": "adam"}}', '{"pinned": ["seed"]}'):
            bad.write_text(text)
            assert main(["gen-data", "--config", str(bad),
                         "--exp-dir", str(tmp_path / "e")]) == 2
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("text", ['[{"seed": 1}]', '"seed"', "null", '{"seed": "abc"}',
                                      '{"seed": 1.7}', '{"seed": true}', '{"seed": null}'],
                             ids=["array", "string", "null", "string-seed", "float-seed",
                                  "bool-seed", "null-seed"])
    def test_bad_top_level_config_exits_2_before_writing(self, tmp_path, text):
        # a fractional seed used to run as its floor and name artifacts by it
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["gen-data", "--config", str(bad), "--exp-dir", str(tmp_path / "e")]) == 2
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command,flag", [
        (["decode", "--split", "dev-common"], ["--seed", "7"]),
        (["sweep"], ["--seed", "7"]),
        (["rescore", "--nbest", "x"], ["--seed", "7"]),
        (["rescore", "--nbest", "x"], ["--config", "cfg.json"]),
    ], ids=["decode-seed", "sweep-seed", "rescore-seed", "rescore-config"])
    def test_flag_nothing_reads_exits_2(self, tmp_path, command, flag):
        with pytest.raises(SystemExit) as e:
            main([*command, "--exp-dir", str(tmp_path), *flag])
        assert e.value.code == 2

    @pytest.mark.parametrize("flags", [["--lfm", "lfm-x", "--mu", "0.1"],
                                       ["--lfm", "lfm-x", "--nu", "0.1"],
                                       ["--init", "mle-x"]],
                             ids=["lfm-mu", "lfm-nu", "init-without-lfm"])
    def test_rescore_flags_the_branch_ignores_exit_2(self, pipeline, tmp_path, flags):
        exp = copy_exp(pipeline, tmp_path)
        before = tree(exp)
        assert main(["rescore", "--exp-dir", str(exp), "--nbest", pipeline["nbest"],
                     *flags]) == 2
        assert tree(exp) == before

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

    def test_nan_checkpoint_exits_3(self, pipeline, tmp_path, capsys):
        exp = copy_exp(pipeline, tmp_path)
        path = exp / "models" / (pipeline["mle"] + ".params")
        params = T.ParamSet.load(path)
        params["pred_wh"].data[0, 0] = np.nan
        params.save(path)
        assert main(["decode", "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                     "--split", "dev-common", "--init", pipeline["mle"]]) == 3
        err = capsys.readouterr().err
        assert path.name in err and "'pred_wh'" in err

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

    def test_nbest_with_string_hyps_exits_3(self, pipeline, tmp_path, capsys):
        exp = copy_exp(pipeline, tmp_path)
        bad = edited_nbest(pipeline, exp / "nbest" / "bad.jsonl", lambda rec: rec.update(hyps="x"))
        assert main(["eval", "--exp-dir", str(exp), "--nbest", bad.name]) == 3
        assert f"{bad.name}:1: 'hyps'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "report"])
    def test_nbest_without_reference_words_exits_3(self, pipeline, tmp_path, capsys,
                                                   command):
        exp = copy_exp(pipeline, tmp_path)
        bad = edited_nbest(pipeline, exp / "nbest" / "no-refs.jsonl",
                           lambda rec: rec.update(reference=[]))
        extra = ["--nbest", bad.name] if command == "eval" else []
        assert main([command, "--exp-dir", str(exp), *extra]) == 3
        assert bad.name in capsys.readouterr().err

    def test_rescore_lfm_unknown_uid_exits_3(self, pipeline, lfm_exp, tmp_path, capsys):
        bad = edited_nbest(pipeline, tmp_path / "elsewhere.jsonl",
                           lambda rec: rec.update(uid="elsewhere-1"))
        assert main(["rescore", "--exp-dir", str(lfm_exp["exp"]), "--nbest", str(bad),
                     "--lfm", lfm_exp["lfm"], "--init", pipeline["mle"]]) == 3
        err = capsys.readouterr().err
        assert "elsewhere-1" in err and bad.name in err

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

    def test_lm_duplicate_count_line_exits_3(self, pipeline, tmp_path, capsys):
        exp = copy_exp(pipeline, tmp_path)
        [elm] = exp.glob("models/elm-*.lm")
        lines = elm.read_text().splitlines()
        elm.write_text("\n".join([*lines, lines[2]]) + "\n")
        assert main(["decode", "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                     "--split", "dev-common", "--init", pipeline["mle"]]) == 3
        assert f"{elm.name}:{len(lines) + 1}: duplicate count" in capsys.readouterr().err

    def test_lm_dead_count_line_exits_3(self, pipeline, tmp_path, capsys):
        # a context no query can reach used to load and sit in the counts
        exp = copy_exp(pipeline, tmp_path)
        [elm] = exp.glob("models/elm-*.lm")
        lines = elm.read_text().splitlines()
        elm.write_text("\n".join([*lines, '[["foo"], 0, 1]']) + "\n")
        assert main(["decode", "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                     "--split", "dev-common", "--init", pipeline["mle"]]) == 3
        assert f"{elm.name}:{len(lines) + 1}: context" in capsys.readouterr().err

    def test_task_line_without_acoustics_exits_3(self, pipeline, tmp_path, capsys):
        exp = copy_exp(pipeline, tmp_path)
        split = exp / "data" / "dev_common.jsonl"
        lines = split.read_text().splitlines()
        lines[1] = json.dumps({"uid": "x", "words": [1, 2]})
        split.write_text("\n".join(lines) + "\n")
        assert main(["decode", "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                     "--split", "dev-common", "--init", pipeline["mle"]]) == 3
        assert "dev_common.jsonl:2: 'acoustics'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"step": 1, "train_st',
                                      '{"train_stats": {"mean_mu": 0.1}}',
                                      '{"step": 1, "train_stats": [0.1]}',
                                      '{"step": 1, "train_stats": {"mean_mu": "x"}}'],
                             ids=["truncated", "no-step", "list-stats", "text-stat"])
    def test_corrupt_lfm_log_exits_3(self, pipeline, tmp_path, capsys, text):
        exp = tmp_path / "exp"
        shutil.copytree(pipeline["exp"], exp)
        log = exp / "logs" / "lfm-x.jsonl"
        log.write_text(text + "\n")
        assert main(["report", "--exp-dir", str(exp)]) == 3
        assert log.name in capsys.readouterr().err

    def test_bool_weight_statistic_exits_3(self, lfm_exp, tmp_path, capsys):
        # a bool is no number: it used to print as t.mean_mu=1.0000
        exp = tmp_path / "exp"
        shutil.copytree(lfm_exp["exp"], exp)
        [log] = exp.glob("logs/lfm-*.jsonl")
        lines = log.read_text().splitlines()
        record = json.loads(lines[1])
        record["train_stats"]["mean_mu"] = True
        lines[1] = json.dumps(record)
        log.write_text("\n".join(lines) + "\n")
        assert main(["report", "--exp-dir", str(exp)]) == 3
        assert f"{log.name}:2: train_stats: 'mean_mu'" in capsys.readouterr().err

    @pytest.mark.parametrize("text,what", [('{"step": 2, "train_st', ""),
                                           ('{"step": 2, "train_stats": [0.1]}', "train_stats"),
                                           ('{"train_stats": {"mean_mu": 0.1}}', "'step'")],
                             ids=["truncated", "list-stats", "no-step"])
    def test_corrupt_lfm_log_line_is_named(self, lfm_exp, tmp_path, capsys, text, what):
        exp = tmp_path / "exp"
        shutil.copytree(lfm_exp["exp"], exp)
        [log] = exp.glob("logs/lfm-*.jsonl")
        config, record = log.read_text().splitlines()[:2]
        log.write_text("\n".join([config, "", record, text]) + "\n")
        assert main(["report", "--exp-dir", str(exp)]) == 3
        assert f"{log.name}:4: {what}" in capsys.readouterr().err

    def test_lfm_params_unlike_header_exit_3(self, pipeline, lfm_exp, tmp_path, capsys):
        exp = tmp_path / "exp"
        shutil.copytree(lfm_exp["exp"], exp)
        path = exp / "models" / (lfm_exp["lfm"] + ".params")
        params = T.ParamSet.load(path)
        params.add("stray", np.zeros(3))
        params.save(path)
        assert main(["rescore", "--exp-dir", str(exp), "--nbest", pipeline["nbest"],
                     "--lfm", lfm_exp["lfm"], "--init", pipeline["mle"]]) == 3
        err = capsys.readouterr().err
        assert path.name in err and "stray" in err

    def test_feedforward_checkpoint_exits_3(self, pipeline, tmp_path, capsys):
        # older headers stored the encoder kind; a feed-forward one cannot be built
        exp = tmp_path / "exp"
        shutil.copytree(pipeline["exp"], exp)
        header_path = exp / "models" / (pipeline["mle"] + ".json")
        header = json.loads(header_path.read_text())
        header["config"]["recurrent_encoder"] = False
        header_path.write_text(json.dumps(header))
        assert main(["decode", "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                     "--split", "dev-common", "--init", pipeline["mle"]]) == 3
        assert header_path.name in capsys.readouterr().err

    def test_mu_alone_needs_no_elm(self, pipeline, tmp_path):
        # only the gamma and nu terms read the external LM
        exp = copy_exp(pipeline, tmp_path)
        for elm in exp.glob("models/elm-*.lm"):
            elm.unlink()
        args = ["--config", str(pipeline["config"]), "--exp-dir", str(exp),
                "--init", pipeline["mle"]]
        assert main(["train-mwer", *args, "--mu", "0.1"]) == 0
        assert main(["train-mwer", *args, "--nu", "0.1"]) == 3


# (section, a misspelt key or bad value, the command that reads the section)
BAD_SECTIONS = [
    ("task", {"vocab": 10}, ["gen-data"]),
    ("elm", {"ordr": 3}, ["gen-data"]),
    ("elm", {"order": 0}, ["gen-data"]),
    ("hat", {"embed": 4}, ["train-mle"]),
    ("hat", {"embed_dim": 0}, ["train-mle"]),
    ("train_mle", {"step": 3}, ["train-mle"]),
    ("train_mle", {"lr": float("inf")}, ["train-mle"]),
    ("train_mwer", {"lambda": 0.1}, ["train-mwer"]),
    ("train_lfm", {"batch": 2}, ["train-lfm"]),
    ("lfm", {"heads": 2}, ["train-lfm"]),
    ("decode", {"beam": 2, "max_token": 3}, ["decode", "--split", "dev-common"]),
    # the weights come from the flags; a section may not set them too
    ("decode", {"ilm_weight": 0.3}, ["decode", "--split", "dev-common"]),
    ("sweep", {"grid": [0.0]}, ["sweep", "--mode", "rescoring"]),
    # values of the wrong type that used to pass their config and fail later
    ("task", {"seed": 1.5}, ["gen-data"]),
    ("train_mle", {"batch_size": 1.5}, ["train-mle"]),
    ("train_mwer", {"tie_weights": 1}, ["train-mwer"]),
    ("train_lfm", {"steps": 2.0}, ["train-lfm"]),
    ("lfm", {"num_heads": True}, ["train-lfm"]),
    # sizes that divided by zero
    ("lfm", {"num_heads": 0}, ["train-lfm"]),
    ("lfm", {"ffn_dim": 0}, ["train-lfm"]),
    ("decode", {"beam_size": 2.5}, ["decode", "--split", "dev-common"]),
    ("sweep", {"ilm_grid": [True]}, ["sweep", "--mode", "rescoring"]),
    ("sweep", {"elm_grid": 0.2}, ["sweep", "--mode", "shallow-fusion"]),
]


def _section_ids(rows):
    """``section-key`` for each row; a repeated one also names its value."""
    ids = []
    for section, bad, _ in rows:
        key, value = next(iter(bad.items()))
        name = f"{section}-{key}"
        ids.append(f"{name}={value!r}" if name in ids else name)
    return ids


class TestConfigSections:
    @pytest.mark.parametrize("section,bad,command", BAD_SECTIONS, ids=_section_ids(BAD_SECTIONS))
    def test_bad_key_exits_2_before_writing(self, pipeline, tmp_path, capsys,
                                            section, bad, command):
        cfg = write_config(tmp_path / "cfg.json", **{section: bad})
        if command == ["gen-data"]:
            exp = tmp_path / "fresh"
            assert main(["gen-data", "--config", str(cfg), "--exp-dir", str(exp)]) == 2
            assert not (exp / "data").exists()
            assert main(["gen-data", "--config", str(pipeline["config"]),
                         "--exp-dir", str(exp)]) == 0
        else:
            exp = copy_exp(pipeline, tmp_path)
            before = tree(exp)
            init = [] if command == ["train-mle"] else ["--init", pipeline["mle"]]
            assert main([*command, "--config", str(cfg), "--exp-dir", str(exp),
                         *init]) == 2
            assert tree(exp) == before
        assert next(iter(bad)) in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["decode", "--split", "dev-common"],
                                         ["sweep", "--mode", "rescoring"],
                                         ["train-mwer"], ["train-lfm"]],
                             ids=lambda c: c[0])
    def test_zero_beam_exits_2(self, pipeline, tmp_path, command):
        exp = copy_exp(pipeline, tmp_path)
        before = tree(exp)
        assert main([*command, "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                     "--init", pipeline["mle"], "--beam", "0"]) == 2
        assert tree(exp) == before

    def test_training_searches_use_decode_section(self, pipeline, tmp_path):
        exp = copy_exp(pipeline, tmp_path)
        args = ["--exp-dir", str(exp), "--init", pipeline["mle"]]
        for beam in (4, 3):
            cfg = write_config(tmp_path / f"b{beam}.json", decode={"beam_size": beam})
            assert main(["train-mwer", "--config", str(cfg), *args]) == 0
        # configs that differ only in the beam name different artifacts
        logs = [json.loads(p.read_text().splitlines()[0])
                for p in exp.glob("logs/mwer-*.jsonl")]
        assert sorted(rec["beam_size"] for rec in logs) == [3, 4]
        assert len(list(exp.glob("models/mwer-*.params"))) == 2
        assert main(["train-lfm", "--config", str(pipeline["config"]), *args]) == 0
        for rec in [*logs, run_log_config(exp, "logs/lfm-*.jsonl")]:
            assert rec["max_tokens"] == TINY["decode"]["max_tokens"]
            assert rec["frame_cap"] == TINY["decode"]["frame_cap"]

    def test_beam_flag_outranks_training_section(self, pipeline, tmp_path):
        exp = copy_exp(pipeline, tmp_path)
        cfg = write_config(tmp_path / "cfg.json", train_mwer={"beam_size": 4})
        assert main(["train-mwer", "--config", str(cfg), "--exp-dir", str(exp),
                     "--init", pipeline["mle"], "--beam", "2"]) == 0
        assert run_log_config(exp, "logs/mwer-*.jsonl")["beam_size"] == 2

    def test_rescore_lfm_of_fused_list_exits_2(self, pipeline, lfm_exp, tmp_path, capsys):
        # the scalar path refuses the same list with the same code
        fused = edited_nbest(pipeline, tmp_path / "fused.jsonl",
                             lambda rec: rec.update(ilm_weight=0.3))
        for weights in (["--lfm", lfm_exp["lfm"], "--init", pipeline["mle"]], ["--mu", "0.1"]):
            assert main(["rescore", "--exp-dir", str(lfm_exp["exp"]), "--nbest", str(fused),
                         *weights]) == 2
            assert "without LM fusion" in capsys.readouterr().err

    def test_rescore_lfm_against_another_recognizer_exits_2(self, pipeline, lfm_exp,
                                                            tmp_path, capsys):
        exp = tmp_path / "exp"
        shutil.copytree(lfm_exp["exp"], exp)
        wide = write_config(tmp_path / "wide.json", hat={"hidden_dim": 8})
        assert main(["train-mle", "--config", str(wide), "--exp-dir", str(exp),
                     "--seed", "4", "--steps", "1"]) == 0
        other = next(exp.glob("models/mle-*-s4.json")).stem
        assert main(["rescore", "--exp-dir", str(exp), "--nbest", pipeline["nbest"],
                     "--lfm", lfm_exp["lfm"], "--init", other]) == 2
        assert "encoder states" in capsys.readouterr().err
        assert not list(exp.glob("nbest/*-lfm.jsonl"))

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_decode_k_below_1_exits_2(self, pipeline, tmp_path, k):
        exp = copy_exp(pipeline, tmp_path)
        assert main(["decode", "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                     "--split", "dev-common", "--init", pipeline["mle"], "--k", k]) == 2
        assert not list(exp.glob("nbest/dev-common-*"))

    @pytest.mark.parametrize("command", [
        ["decode", "--split", "dev-common", "--lambda", "nan"],
        ["decode", "--split", "dev-common", "--lambda", "inf"],
        ["decode", "--split", "dev-common", "--gamma", "nan"],
        ["sweep", "--mode", "rescoring", "--ilm-grid", "0,nan"],
        ["sweep", "--elm-grid", "inf"],
    ], ids=["decode-lambda-nan", "decode-lambda-inf", "decode-gamma-nan", "sweep-ilm-nan",
            "sweep-elm-inf"])
    def test_non_finite_fusion_weight_exits_2_before_writing(self, pipeline, tmp_path,
                                                             capsys, command):
        exp = copy_exp(pipeline, tmp_path)
        before = tree(exp)
        assert main([*command, "--config", str(pipeline["config"]), "--exp-dir", str(exp),
                     "--init", pipeline["mle"]]) == 2
        assert tree(exp) == before
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--mu", "nan"], ["--nu", "inf"]], ids=["mu", "nu"])
    def test_rescore_non_finite_weight_exits_2_before_writing(self, pipeline, tmp_path, flags):
        exp = copy_exp(pipeline, tmp_path)
        before = tree(exp)
        assert main(["rescore", "--exp-dir", str(exp), "--nbest", pipeline["nbest"],
                     *flags]) == 2
        assert tree(exp) == before

    @pytest.mark.parametrize("flag", ["--ilm-grid", "--elm-grid"])
    def test_bad_sweep_grid_exits_2(self, pipeline, tmp_path, flag):
        exp = copy_exp(pipeline, tmp_path)
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--exp-dir", str(exp), "--init", pipeline["mle"],
                  flag, "0,x"])
        assert e.value.code == 2


class TestAppendOnly:
    def test_gen_data_refuses_second_run(self, pipeline):
        assert main(["gen-data", *pipeline["args"]]) == 2

    def test_decode_refuses_same_artifact(self, pipeline):
        code = main(["decode", *pipeline["args"], "--split", "test-rare",
                     "--init", pipeline["mle"]])
        assert code == 2

    def test_decode_with_another_beam_is_another_artifact(self, pipeline, tmp_path):
        exp = copy_exp(pipeline, tmp_path)
        args = ["--config", str(pipeline["config"]), "--exp-dir", str(exp),
                "--split", "dev-common", "--init", pipeline["mle"]]
        assert main(["decode", *args]) == 0
        assert main(["decode", *args, "--beam", "2"]) == 0
        assert len(list(exp.glob("nbest/dev-common-*.jsonl"))) == 2
        assert main(["decode", *args, "--beam", "2"]) == 2

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
        args = pipeline["seeded"]
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

    def test_numerical_failures_exit_4(self, pipeline, tmp_path, monkeypatch):
        # the first update blows the weights up: the next loss is NaN, the run
        # restores its snapshot and logs the divergence, and the command exits 4
        real_step = T.Adam.step

        def blow_up(optimizer, params):
            real_step(optimizer, params)
            for _, p in params.items():
                p.data[...] = np.nan

        monkeypatch.setattr(T.Adam, "step", blow_up)
        exp = copy_exp(pipeline, tmp_path)
        with np.errstate(all="ignore"), pytest.warns(UserWarning, match="non-finite loss"):
            code = main(["train-mle", "--config", str(pipeline["config"]),
                         "--exp-dir", str(exp), "--seed", "4"])
        assert code == 4
        records = [json.loads(line) for line in
                   next(exp.glob("logs/mle-*-s4.jsonl")).read_text().splitlines()]
        assert [r["event"] for r in records if "event" in r] == ["diverged"]


class TestArtifactNames:
    def test_field_left_at_default_renames_nothing(self):
        @dataclass
        class Before:
            steps: int
            lr: float = 0.1
            grid: list = field(default_factory=lambda: [0.0, 0.5])

        @dataclass
        class After(Before):
            extra: int = 7

        def name(built):
            return cli._stage_hash("train", built, {"k": 2}, parent="p")

        assert name(After(3, lr=0.2)) == name(Before(3, lr=0.2))
        assert name(After(3, lr=0.2, extra=8)) != name(Before(3, lr=0.2))
        assert name(Before(3, grid=[0.5])) != name(Before(3))
        assert name(Before(4)) != name(Before(3))


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

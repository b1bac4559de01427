import io
import json
import select
import subprocess
import sys

import numpy as np
import pytest

from ruaguard.classifiers import load_model
from ruaguard.cli import main
from ruaguard.dataset import Label, LabeledUtterance, read_dataset, write_dataset
from ruaguard.grammar import enumerate_strings, load_grammar

POS_SRC = 'S -> "are you a " N\nN -> "robot" | "chatbot" | "computer" | "machine"\n'
AIC_SRC = 'S -> "you sound " A\nA -> "robotic" | "automated" | "scripted" | "fake"\n'
NEG_SRC = (
    'S -> "do you like " T\n'
    'T -> "pizza" | "coffee" | "music" | "movies" | "soccer" | "books"\n'
)


@pytest.fixture
def grammars(tmp_path):
    paths = {}
    for name, src in [("pos_tiny", POS_SRC), ("aic_tiny", AIC_SRC), ("neg_tiny", NEG_SRC)]:
        path = tmp_path / f"{name}.cfg"
        path.write_text(src, encoding="utf-8")
        paths[name] = path
    return paths


@pytest.fixture
def dataset_path(tmp_path, grammars):
    rows = []
    for name, label in [
        ("pos_tiny", Label.POS), ("aic_tiny", Label.AIC), ("neg_tiny", Label.NEG),
    ]:
        for text in enumerate_strings(load_grammar(grammars[name])):
            rows.append(LabeledUtterance(text, label, split="train"))
            rows.append(LabeledUtterance(text, label, split="test"))
    path = tmp_path / "data.tsv"
    write_dataset(rows, path)
    return path


class TestGen:
    def test_writes_dataset_tsv(self, tmp_path, grammars):
        out = tmp_path / "gen.tsv"
        code = main([
            "gen", "--grammar", str(grammars["pos_tiny"]),
            "--n", "4", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        rows = read_dataset(out)
        language = set(enumerate_strings(load_grammar(grammars["pos_tiny"])))
        assert len(rows) == 4
        assert {row.text for row in rows} == language
        assert all(row.label is Label.POS for row in rows)
        assert all(row.split == "none" and row.source == "grammar" for row in rows)

    def test_plain_mode_is_deterministic(self, tmp_path, grammars):
        args = [
            "gen", "--grammar", str(grammars["neg_tiny"]),
            "--n", "6", "--seed", "3", "--plain",
        ]
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        language = set(enumerate_strings(load_grammar(grammars["neg_tiny"])))
        assert set(first.read_text().splitlines()) == language

    def test_label_inferred_from_name_and_overridable(self, tmp_path, grammars):
        out = tmp_path / "aic.tsv"
        main(["gen", "--grammar", str(grammars["aic_tiny"]), "--n", "2",
              "--seed", "0", "--out", str(out)])
        assert all(row.label is Label.AIC for row in read_dataset(out))
        main(["gen", "--grammar", str(grammars["aic_tiny"]), "--n", "2",
              "--seed", "0", "--label", "n", "--out", str(out)])
        assert all(row.label is Label.NEG for row in read_dataset(out))

    def test_split_tag_applied(self, tmp_path, grammars):
        out = tmp_path / "train.tsv"
        main(["gen", "--grammar", str(grammars["pos_tiny"]), "--n", "3",
              "--seed", "0", "--split", "train", "--out", str(out)])
        assert all(row.split == "train" for row in read_dataset(out))

    def test_n_zero_rejected_by_argparse(self, grammars):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--grammar", str(grammars["pos_tiny"]), "--n", "0"])
        assert exc.value.code == 2

    def test_default_output_is_stdout(self, capsys, grammars):
        assert main(["gen", "--grammar", str(grammars["pos_tiny"]),
                     "--n", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("text\tlabel\tsplit\tsource\n")

    def test_unknown_grammar_errors(self, tmp_path, capsys):
        code = main(["gen", "--grammar", str(tmp_path / "missing.cfg"),
                     "--n", "1", "--seed", "0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSplit:
    SRC = (
        'S -> "x " W\n'
        'W -> "a" | "b" | "c" | "d" | "e" | "f" | "g" | "h" | "i" | "j"\n'
    )

    def test_writes_sub_grammars_and_manifest(self, tmp_path, capsys):
        grammar_path = tmp_path / "lang.cfg"
        grammar_path.write_text(self.SRC, encoding="utf-8")
        out_dir = tmp_path / "splits"
        code = main(["split", "--grammar", str(grammar_path), "--seed", "0",
                     "--out-dir", str(out_dir)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 4
        for split in ("train", "val", "test"):
            sub = load_grammar(out_dir / f"lang.{split}.cfg")
            strings = set(enumerate_strings(sub))
            assert strings <= set(enumerate_strings(load_grammar(grammar_path)))
            assert strings
        assert (out_dir / "lang.manifest.tsv").exists()

    def test_manifest_rebuild_is_byte_identical(self, tmp_path):
        grammar_path = tmp_path / "lang.cfg"
        grammar_path.write_text(self.SRC, encoding="utf-8")
        first = tmp_path / "one"
        second = tmp_path / "two"
        main(["split", "--grammar", str(grammar_path), "--seed", "5",
              "--out-dir", str(first)])
        main(["split", "--grammar", str(grammar_path),
              "--manifest", str(first / "lang.manifest.tsv"),
              "--out-dir", str(second)])
        for name in ("lang.train.cfg", "lang.val.cfg", "lang.test.cfg",
                     "lang.manifest.tsv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestTrainEval:
    def test_ir_round_trip_scores_perfectly(self, tmp_path, capsys, dataset_path):
        model_path = tmp_path / "ir.npz"
        assert main(["train", "--kind", "ir", "--data", str(dataset_path),
                     "--out", str(model_path), "--seed", "0"]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path),
                     "--data", str(dataset_path), "--split", "test"]) == 0
        assert capsys.readouterr().out == "P_w\tR\tAcc\tM\n100.0\t100.0\t100.0\t100.0\n"

    def test_eval_writes_report_and_audit(self, tmp_path, capsys, dataset_path):
        model_path = tmp_path / "ir.npz"
        main(["train", "--kind", "ir", "--data", str(dataset_path),
              "--out", str(model_path), "--seed", "0"])
        report_path = tmp_path / "report.tsv"
        audit_path = tmp_path / "audit.jsonl"
        main(["eval", "--model", str(model_path), "--data", str(dataset_path),
              "--split", "test", "--out", str(report_path),
              "--audit", str(audit_path)])
        main(["eval", "--model", str(model_path), "--data", str(dataset_path),
              "--split", "test", "--audit", str(audit_path)])
        assert report_path.read_text() == "P_w\tR\tAcc\tM\n100.0\t100.0\t100.0\t100.0\n"
        lines = audit_path.read_text().splitlines()
        assert len(lines) == 2
        payload = json.loads(lines[0])
        assert payload["n"] == 14
        assert payload["split"] == "test"

    def test_ngram_training_with_overrides(self, tmp_path, dataset_path, capsys):
        model_path = tmp_path / "ngram.npz"
        assert main(["train", "--kind", "ngram", "--data", str(dataset_path),
                     "--out", str(model_path), "--seed", "0",
                     "--epochs", "3", "--lr", "0.25"]) == 0
        model = load_model(model_path)
        assert model.params.epochs == 3
        assert model.params.learning_rate == 0.25

    @pytest.mark.parametrize("flag", [["--epochs", "30"], ["--lr", "2.0"]])
    def test_bowlr_rejects_schedule_flags(self, tmp_path, dataset_path, capsys, flag):
        model_path = tmp_path / "bowlr.npz"
        assert main(["train", "--kind", "bowlr", "--data", str(dataset_path),
                     "--out", str(model_path)] + flag) == 1
        assert capsys.readouterr().err == (
            "error: --epochs and --lr apply to --kind ngram, not bowlr\n"
        )
        assert not model_path.exists()

    def test_bowlr_file_independent_of_seed(self, tmp_path, dataset_path):
        files = []
        for seed in ("0", "1"):
            path = tmp_path / f"bowlr.{seed}.npz"
            assert main(["train", "--kind", "bowlr", "--data", str(dataset_path),
                         "--out", str(path), "--seed", seed]) == 0
            files.append(path.read_bytes())
        assert files[0] == files[1]

    @pytest.mark.parametrize("kind", ["ir", "bowlr", "ngram"])
    def test_model_file_independent_of_hash_seed(self, tmp_path, dataset_path, package_env, kind):
        files = []
        for hash_seed in ("1", "2"):
            path = tmp_path / f"{kind}.{hash_seed}.npz"
            subprocess.run(
                [sys.executable, "-m", "ruaguard.cli", "train", "--kind", kind,
                 "--data", str(dataset_path), "--out", str(path), "--seed", "0"],
                check=True, capture_output=True,
                env=dict(package_env, PYTHONHASHSEED=hash_seed),
            )
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_random_kind_records_train_distribution(self, tmp_path, dataset_path):
        model_path = tmp_path / "rand.npz"
        assert main(["train", "--kind", "random", "--data", str(dataset_path),
                     "--out", str(model_path), "--seed", "0"]) == 0
        model = load_model(model_path)
        assert model.distribution == pytest.approx((4 / 14, 4 / 14, 6 / 14))

    def test_eval_with_recognizer(self, capsys, grammars, dataset_path):
        assert main(["eval", "--recognizer",
                     "--pos", str(grammars["pos_tiny"]),
                     "--aic", str(grammars["aic_tiny"]),
                     "--data", str(dataset_path), "--split", "test"]) == 0
        assert capsys.readouterr().out == "P_w\tR\tAcc\tM\n100.0\t100.0\t100.0\t100.0\n"

    def test_eval_requires_a_classifier(self, capsys, dataset_path):
        assert main(["eval", "--data", str(dataset_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_empty_split_errors(self, capsys, tmp_path, dataset_path):
        model_path = tmp_path / "ir.npz"
        main(["train", "--kind", "ir", "--data", str(dataset_path),
              "--out", str(model_path), "--seed", "0"])
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path),
                     "--data", str(dataset_path), "--split", "addtest"]) == 1
        assert "error:" in capsys.readouterr().err


class TestMine:
    @pytest.fixture
    def corpus_path(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(
            "are you robots\n"
            "you like what exactly\n"
            "completely unrelated line\n"
            "zebra xylophone\n",
            encoding="utf-8",
        )
        return path

    def test_candidates_sheet(self, tmp_path, corpus_path, dataset_path):
        out = tmp_path / "cands.tsv"
        args = ["mine", "--corpus", str(corpus_path),
                "--positives", str(dataset_path),
                "--n", "2", "--seed", "4", "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "text\tscore\tsource"
        assert len(lines) == 3
        assert all(line.split("\t")[2] == "corpus.txt" for line in lines[1:])
        again = tmp_path / "cands2.tsv"
        main(args[:-1] + [str(again)])
        assert out.read_bytes() == again.read_bytes()

    def test_reviewed_rows(self, tmp_path, corpus_path, dataset_path):
        out = tmp_path / "mined.tsv"
        assert main(["mine", "--corpus", str(corpus_path),
                     "--positives", str(dataset_path), "--n", "2", "--seed", "4",
                     "--reviewed", "--split", "addtest", "--out", str(out)]) == 0
        rows = read_dataset(out)
        assert all(row.label is Label.NEG for row in rows)
        assert all(row.split == "addtest" for row in rows)

    def test_plain_positives_and_random_method(self, tmp_path, corpus_path):
        positives = tmp_path / "pos.txt"
        positives.write_text("are you a robot\n", encoding="utf-8")
        out = tmp_path / "rand.tsv"
        assert main(["mine", "--corpus", str(corpus_path),
                     "--positives", str(positives), "--n", "3", "--seed", "0",
                     "--method", "random", "--corpus-name", "chitchat",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            text, score, source = line.split("\t")
            assert score == ""
            assert source == "chitchat"

    def test_too_many_requested_errors(self, capsys, tmp_path, corpus_path):
        positives = tmp_path / "pos.txt"
        positives.write_text("are you a robot\n", encoding="utf-8")
        assert main(["mine", "--corpus", str(corpus_path),
                     "--positives", str(positives), "--n", "4", "--seed", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestGuard:
    def test_single_text(self, capsys, grammars):
        assert main(["guard", "--text", "Are you a robot?",
                     "--pos", str(grammars["pos_tiny"]),
                     "--aic", str(grammars["aic_tiny"])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "p"
        assert payload["action"] == "respond"
        assert payload["response"] == "I am a chatbot."
        assert payload["text"] == "Are you a robot?"

    def test_stdin_lines(self, capsys, monkeypatch, grammars):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("are you a robot\ndo you like pizza\n")
        )
        assert main(["guard",
                     "--pos", str(grammars["pos_tiny"]),
                     "--aic", str(grammars["aic_tiny"])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["action"] == "respond"
        assert second["action"] == "pass"
        assert second["response"] is None

    def test_stdin_line_endings_split_as_splitlines(self, capsys, monkeypatch, grammars):
        text = "are you a robot\r\ndo you like pizza\n\nyou sound robotic"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["guard",
                     "--pos", str(grammars["pos_tiny"]),
                     "--aic", str(grammars["aic_tiny"])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["text"] for line in lines] == text.splitlines()

    def test_stdin_line_decided_before_eof(self, grammars, package_env):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ruaguard.cli", "guard",
             "--pos", str(grammars["pos_tiny"]), "--aic", str(grammars["aic_tiny"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=package_env,
        )
        try:
            proc.stdin.write("are you a robot\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "no decision printed while stdin was still open"
            assert json.loads(proc.stdout.readline())["action"] == "respond"
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            proc.wait()

    def test_aic_policy_override(self, capsys, grammars):
        args = ["guard", "--text", "you sound robotic",
                "--pos", str(grammars["pos_tiny"]),
                "--aic", str(grammars["aic_tiny"])]
        main(args)
        assert json.loads(capsys.readouterr().out)["action"] == "pass"
        main(args + ["--aic-policy", "clarify"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["action"] == "respond"
        assert payload["label"] == "a"

    def test_preset_selection(self, capsys, grammars):
        main(["guard", "--text", "are you a robot", "--preset", "cc_wm",
              "--pos", str(grammars["pos_tiny"]),
              "--aic", str(grammars["aic_tiny"])])
        payload = json.loads(capsys.readouterr().out)
        assert payload["response"] == "I am a chatbot made by Example.com."

    def test_guard_config_file(self, capsys, tmp_path, grammars):
        cfg_path = tmp_path / "guard.cfg"
        cfg_path.write_text(
            "clear_confirm = I am an automated assistant.\naic_policy = clarify\n"
        )
        main(["guard", "--text", "you sound automated",
              "--guard-config", str(cfg_path),
              "--pos", str(grammars["pos_tiny"]),
              "--aic", str(grammars["aic_tiny"])])
        payload = json.loads(capsys.readouterr().out)
        assert payload["response"] == "I am an automated assistant."
        assert payload["action"] == "respond"


class TestProbe:
    def test_recall_line_and_verdicts(self, capsys, tmp_path, grammars):
        probes = tmp_path / "probes.txt"
        probes.write_text(
            "are you a robot\nare you a machine\nr u a robot\nhow are you\n",
            encoding="utf-8",
        )
        out = tmp_path / "verdicts.jsonl"
        assert main(["probe", "--probes", str(probes),
                     "--pos", str(grammars["pos_tiny"]),
                     "--aic", str(grammars["aic_tiny"]),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == "recall\t0.500\n"
        verdicts = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(verdicts) == 4
        assert [v["detected"] for v in verdicts] == [True, True, False, False]


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _npz(path, **arrays):
    np.savez(path, **arrays)
    return str(path)


def _npy(path, array):
    np.save(path, array)
    return str(path)


def _guard(model=None, config=None):
    """``guard --text`` over a model file, or the packaged recognizer with a config."""
    argv = ["guard", "--text", "are you a robot"]
    argv += ["--model", model] if model else ["--guard-config", config]
    return argv


def _model_file(tmp, kind, drop=(), **meta):
    """A hand-made, loadable ``ngram`` or ``bowlr`` model file, less the meta
    keys and arrays named in ``drop`` and with ``meta`` merged in."""
    meta = {"version": 1, "classes": ["p", "a", "n"], "kind": kind, "seed": 0,
            "document_count": 2, "params": {"dim": 4} if kind == "ngram" else {"l2": 1e-4}} | meta
    width = 4 if kind == "ngram" else 2
    arrays = {"buckets": np.arange(2), "embeddings": np.zeros((2, 4)),
              "vocab_tokens": np.asarray(["robot", "pizza"]), "vocab_df": np.ones(2),
              "weights": np.zeros((3, width)), "biases": np.zeros(3)}
    for key in drop:
        meta.pop(key, None)
        arrays.pop(key, None)
    return _npz(tmp / "m.npz", meta=np.asarray(json.dumps(meta)), **arrays)


def _train_ngram(tmp, *flags):
    """``train --kind ngram`` on one row per class, with schedule flags."""
    data = tmp / "data.tsv"
    write_dataset([
        LabeledUtterance("are you a robot", Label.POS, split="train"),
        LabeledUtterance("you sound robotic", Label.AIC, split="train"),
        LabeledUtterance("do you like pizza", Label.NEG, split="train"),
    ], data)
    return ["train", "--kind", "ngram", "--data", str(data), "--out", str(tmp / "m.npz"), *flags]


# Inputs a user can get wrong, each to be reported on one line.
INPUT_ERRORS = {
    "split_p_out_of_range": lambda tmp: ["split", "--grammar", "pos", "--p", "2",
                                         "--out-dir", str(tmp)],
    "guard_config_line_without_equals": lambda tmp: _guard(config=_write(
        tmp / "guard.cfg", "clear_confirm = I am a bot\nno equals sign\n")),
    "guard_config_unknown_key": lambda tmp: _guard(config=_write(
        tmp / "guard.cfg", "clear_confirm = I am a bot\ncolour = red\n")),
    "guard_config_unknown_aic_policy": lambda tmp: _guard(config=_write(
        tmp / "guard.cfg", "clear_confirm = I am a bot\naic_policy = shout\n")),
    "config_seed_not_an_integer": lambda tmp: [
        "gen", "--grammar", "toy", "--n", "1", "--config", _write(tmp / "ruag.cfg", "seed = x\n")],
    "probe_file_empty": lambda tmp: ["probe", "--probes", _write(tmp / "probes.txt", "\n")],
    "model_is_text": lambda tmp: _guard(model=_write(tmp / "m.npz", "not a model\n")),
    "model_is_empty": lambda tmp: _guard(model=_write(tmp / "m.npz", "")),
    "model_is_npy_array": lambda tmp: _guard(model=_npy(tmp / "m.npy", np.arange(3))),
    "model_without_meta": lambda tmp: _guard(model=_npz(tmp / "m.npz", weights=np.zeros(3))),
    "model_meta_not_json": lambda tmp: _guard(model=_npz(tmp / "m.npz", meta=np.asarray("{"))),
    "model_class_order": lambda tmp: _guard(model=_npz(
        tmp / "m.npz", meta=np.asarray(json.dumps({"classes": ["n", "a", "p"], "kind": "ir"})))),
    "ngram_epochs_zero": lambda tmp: _train_ngram(tmp, "--epochs", "0"),
    "ngram_epochs_negative": lambda tmp: _train_ngram(tmp, "--epochs", "-2"),
    "ngram_lr_nan": lambda tmp: _train_ngram(tmp, "--lr", "nan"),
    "ngram_lr_negative": lambda tmp: _train_ngram(tmp, "--lr", "-1"),
    "model_ngram_params_unknown_key": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", params={"dim": 4, "colour": "red"})),
    "model_ngram_params_not_a_dict": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", params=[4])),
    "model_ngram_without_params": lambda tmp: _guard(model=_model_file(tmp, "ngram", ["params"])),
    "model_ngram_without_seed": lambda tmp: _guard(model=_model_file(tmp, "ngram", ["seed"])),
    "model_ngram_without_buckets": lambda tmp: _guard(model=_model_file(tmp, "ngram", ["buckets"])),
    "model_ngram_without_embeddings": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", ["embeddings"])),
    "model_ngram_without_weights": lambda tmp: _guard(model=_model_file(tmp, "ngram", ["weights"])),
    "model_bowlr_without_params": lambda tmp: _guard(model=_model_file(tmp, "bowlr", ["params"])),
    "model_bowlr_without_document_count": lambda tmp: _guard(model=_model_file(
        tmp, "bowlr", ["document_count"])),
    "model_bowlr_without_vocab": lambda tmp: _guard(model=_model_file(
        tmp, "bowlr", ["vocab_tokens"])),
    "model_unknown_kind": lambda tmp: _guard(model=_npz(
        tmp / "m.npz", meta=np.asarray(json.dumps({"classes": ["p", "a", "n"], "kind": "svm"})))),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_exits_with_one_error_line(case, tmp_path, capsys):
    assert main(INPUT_ERRORS[case](tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("kind", ["ngram", "bowlr"])
def test_hand_made_model_file_guards_whole(kind, tmp_path, capsys):
    # the INPUT_ERRORS model files are this one with a key taken out or changed
    assert main(_guard(model=_model_file(tmp_path, kind))) == 0
    assert json.loads(capsys.readouterr().out)["label"] in {"p", "a", "n"}


class TestConfigAndEnv:
    def test_config_file_supplies_seed(self, tmp_path, grammars):
        cfg = tmp_path / "ruag.cfg"
        cfg.write_text("seed = 7\n# comment\n", encoding="utf-8")
        by_config = tmp_path / "a.txt"
        by_flag = tmp_path / "b.txt"
        base = ["gen", "--grammar", str(grammars["neg_tiny"]), "--n", "6", "--plain"]
        main(base + ["--config", str(cfg), "--out", str(by_config)])
        main(base + ["--seed", "7", "--out", str(by_flag)])
        assert by_config.read_bytes() == by_flag.read_bytes()

    def test_explicit_seed_beats_config(self, tmp_path, grammars):
        cfg = tmp_path / "ruag.cfg"
        cfg.write_text("seed = 7\n", encoding="utf-8")
        flagged = tmp_path / "a.txt"
        plain_nine = tmp_path / "b.txt"
        base = ["gen", "--grammar", str(grammars["neg_tiny"]), "--n", "6", "--plain"]
        main(base + ["--config", str(cfg), "--seed", "9", "--out", str(flagged)])
        main(base + ["--seed", "9", "--out", str(plain_nine)])
        assert flagged.read_bytes() == plain_nine.read_bytes()

    def test_data_dir_env_resolves_bare_names(self, tmp_path, monkeypatch, capsys):
        data_dir = tmp_path / "grammars"
        data_dir.mkdir()
        (data_dir / "pos.cfg").write_text(
            'S -> "zorp" | "blip" | "quux" | "flurb"\n', encoding="utf-8"
        )
        monkeypatch.setenv("RUAG_DATA_DIR", str(data_dir))
        assert main(["gen", "--grammar", "pos", "--n", "4", "--seed", "0",
                     "--plain"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(lines) == ["blip", "flurb", "quux", "zorp"]

    def test_data_dir_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir()
        flag_dir.mkdir()
        (env_dir / "pos.cfg").write_text('S -> "from env"\n', encoding="utf-8")
        (flag_dir / "pos.cfg").write_text('S -> "from flag"\n', encoding="utf-8")
        monkeypatch.setenv("RUAG_DATA_DIR", str(env_dir))
        assert main(["gen", "--grammar", "pos", "--n", "1", "--seed", "0",
                     "--plain", "--data-dir", str(flag_dir)]) == 0
        assert capsys.readouterr().out == "from flag\n"

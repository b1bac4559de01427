import contextlib
import io
import json
import re
import select
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruaguard import features
from ruaguard.classifiers import MODEL_CODECS, load_model
from ruaguard.cli import _apply_config, build_parser, main
from ruaguard.dataset import Label, LabeledUtterance, format_dataset, parse_dataset, read_dataset
from ruaguard.errors import FormatError, InvalidInputError
from ruaguard.grammar import enumerate_strings, load_grammar, parse_grammar
from ruaguard.partition import PartitionConfig, format_manifest, partition

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
    path.write_text(format_dataset(rows), encoding="utf-8")
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

    def test_a_line_separator_in_a_terminal_reads_back(self, tmp_path, capsys, monkeypatch):
        # U+2028 is a line break to str.splitlines(), but part of the terminal
        texts = {"are you a robot", "are you\u2028a robot"}
        grammar = _write(tmp_path / "pos_ls.cfg", 'S -> "are you a robot" | "are you\u2028a robot"')
        data = tmp_path / "ls.tsv"
        assert main(["gen", "--grammar", grammar, "--n", "2", "--out", str(data)]) == 0
        assert {row.text for row in read_dataset(data)} == texts
        assert main(["eval", "--recognizer", "--data", str(data), "--split", "all"]) == 0
        corpus = _write(tmp_path / "corpus.txt", "are you a bot\nwhat time is it\n")
        assert main(["mine", "--corpus", corpus, "--positives", str(data), "--n", "1"]) == 0
        out = capsys.readouterr()
        assert out.out.startswith("P_w\tR\tAcc\tM\n") and out.err == ""
        # the plain list holds two utterances wherever it is read back
        plain = tmp_path / "ls.txt"
        assert main(["gen", "--grammar", grammar, "--n", "2", "--plain", "--out", str(plain)]) == 0
        verdicts = tmp_path / "verdicts.jsonl"
        assert main(["probe", "--probes", str(plain), "--out", str(verdicts)]) == 0
        assert capsys.readouterr().out == "recall\t1.000\n"
        assert {json.loads(line)["text"] for line in verdicts.read_text().splitlines()} == texts
        monkeypatch.setattr("sys.stdin", io.StringIO(plain.read_text(encoding="utf-8")))
        assert main(["guard"]) == 0
        decisions = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert {d["text"] for d in decisions} == texts and len(decisions) == 2
        assert {d["label"] for d in decisions} == {"p"}
        assert main(["mine", "--corpus", str(plain), "--positives", str(data), "--n", "2",
                     "--reviewed"]) == 0
        assert {row.text for row in parse_dataset(capsys.readouterr().out)} == texts

    def test_an_ambiguous_grammar_asked_below_its_derivations_prints_its_one_string(
        self, tmp_path, capsys
    ):
        grammar = _write(tmp_path / "aaa.cfg", 'S -> "a" | "a" | "a"\n')
        assert main(["gen", "--grammar", grammar, "--n", "2", "--plain"]) == 0
        assert capsys.readouterr() == ("a\n", "")

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

    def test_refuses_to_overwrite_its_input(self, tmp_path, capsys):
        # the input is named like an output: splitting it into its own directory
        grammar_path = tmp_path / "lang.train.cfg"
        grammar_path.write_text(self.SRC, encoding="utf-8")
        assert main(["split", "--grammar", str(grammar_path), "--seed", "0",
                     "--out-dir", str(tmp_path)]) == 1
        assert "overwrite" in capsys.readouterr().err
        assert grammar_path.read_text(encoding="utf-8") == self.SRC
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lang.train.cfg"]

    def test_refuses_to_overwrite_its_input_manifest(self, tmp_path, capsys):
        grammar_path = _write(tmp_path / "lang.cfg", self.SRC)
        assert main(["split", "--grammar", grammar_path, "--seed", "0",
                     "--out-dir", str(tmp_path)]) == 0
        manifest = tmp_path / "lang.manifest.tsv"
        header, *rows = manifest.read_text(encoding="utf-8").splitlines()
        # the same partition with its rows reversed: rewriting would reorder them
        manifest.write_text("\n".join([header, *reversed(rows)]) + "\n", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(["split", "--grammar", grammar_path, "--manifest", str(manifest),
                     "--out-dir", str(tmp_path)]) == 1
        assert "overwrite its input" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_fractions_flag(self, tmp_path, capsys):
        grammar_path = _write(tmp_path / "lang.cfg", self.SRC)
        base = ["split", "--grammar", grammar_path, "--seed", "0", "--out-dir", str(tmp_path)]
        assert main(base + ["--fractions", "0.8,0.1,0.1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        with pytest.raises(SystemExit) as exc:
            main(base + ["--fractions", "0.9,0.1"])
        assert exc.value.code == 2
        assert "expected three comma-separated numbers" in capsys.readouterr().err


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

    def test_stdin_line_endings_split_as_split_lines(self, capsys, monkeypatch, grammars):
        # lines end at "\n", "\r\n" or "\r"; a line separator is part of a line
        text = "are you a robot\r\ndo you\u2028like pizza\n\nyou sound robotic"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["guard",
                     "--pos", str(grammars["pos_tiny"]),
                     "--aic", str(grammars["aic_tiny"])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["text"] for line in lines] == [
            "are you a robot", "do you\u2028like pizza", "", "you sound robotic"
        ]

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

    def test_stdin_line_ended_by_a_carriage_return_decided_when_it_arrives(
        self, grammars, package_env
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ruaguard.cli", "guard",
             "--pos", str(grammars["pos_tiny"]), "--aic", str(grammars["aic_tiny"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=package_env,
        )
        try:
            for text, sent in (("are you a robot", "are you a robot\r"),
                               ("you sound robotic", "\nyou sound robotic\r")):
                proc.stdin.write(sent)
                proc.stdin.flush()
                ready, _, _ = select.select([proc.stdout], [], [], 60)
                assert ready, f"{text!r} not decided while its line end was the last byte sent"
                assert json.loads(proc.stdout.readline())["text"] == text
            # the "\n" sent after the first "\r" ended no line of its own
            proc.stdin.write("\nhello\n")
            proc.stdin.close()
            assert [json.loads(line)["text"] for line in proc.stdout] == ["hello"]
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

    @pytest.mark.parametrize("text", ["\udcff", "caf\udcff"])
    def test_ngram_model_decides_a_lone_surrogate(self, capsys, tmp_path, text):
        # the CLI reads an undecodable byte of --text as a lone surrogate
        assert main(["guard", "--model", _model_file(tmp_path, "ngram"), "--text", text]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["text"] == text and payload["label"] in {"p", "a", "n"}


# Locales and stream encodings under which stdin and stdout must still be UTF-8.
STDIO_ENVIRONMENTS = {
    "ascii": {"PYTHONIOENCODING": "ascii"},
    "latin-1": {"PYTHONIOENCODING": "latin-1"},
    "C": {"LC_ALL": "C"},
}


def _stdio_env(package_env, name):
    env = {k: v for k, v in package_env.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    return dict(env, **STDIO_ENVIRONMENTS[name])


class TestStdioIsUtf8:
    @pytest.mark.parametrize("environment", sorted(STDIO_ENVIRONMENTS))
    def test_gen_stdout_holds_the_bytes_of_its_out_file(self, tmp_path, package_env, environment):
        grammar = _write(tmp_path / "u.cfg", 'S -> "café robot"\n')
        env = _stdio_env(package_env, environment)
        for mode in ("tsv", "plain"):
            args = [sys.executable, "-m", "ruaguard.cli", "gen", "--grammar", grammar,
                    "--n", "1", *(["--plain"] if mode == "plain" else [])]
            out = tmp_path / f"out.{mode}"
            subprocess.run(args + ["--out", str(out)], check=True, env=env)
            proc = subprocess.run(args, capture_output=True, env=env)
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert proc.stdout == out.read_bytes()
            # a dataset redirected from stdout loads as the --out file does
            redirected = tmp_path / f"redirected.{mode}"
            redirected.write_bytes(proc.stdout)
            if mode == "tsv":
                assert [row.text for row in read_dataset(redirected)] == ["café robot"]
            else:
                assert redirected.read_text(encoding="utf-8") == "café robot\n"

    @pytest.mark.parametrize("environment", sorted(STDIO_ENVIRONMENTS))
    def test_guard_reads_stdin_as_utf8_and_refuses_a_line_that_is_not(
        self, grammars, package_env, environment
    ):
        args = [sys.executable, "-m", "ruaguard.cli", "guard",
                "--pos", str(grammars["pos_tiny"]), "--aic", str(grammars["aic_tiny"])]
        env = _stdio_env(package_env, environment)
        good = subprocess.run(args, input="are you a robot\ncafé\n".encode(),
                              capture_output=True, env=env)
        assert (good.returncode, good.stderr) == (0, b"")
        assert [json.loads(line)["text"] for line in good.stdout.splitlines()] == [
            "are you a robot", "café"
        ]
        bad = subprocess.run(args, input=b"are you a robot\nare you a robot\xff\n",
                             capture_output=True, env=env)
        assert bad.returncode == 1
        assert bad.stderr.startswith(b"error: stdin line 2 is not UTF-8: byte 0xff")
        assert bad.stderr.count(b"\n") == 1
        # the line before the bad one is decided; the bad one is not, not
        # even as a lone surrogate
        decisions = [json.loads(line) for line in bad.stdout.splitlines()]
        assert [(d["text"], d["label"]) for d in decisions] == [("are you a robot", "p")]

    def test_stdin_error_counts_lines_as_split_lines_does(self, capsys, monkeypatch, grammars):
        # the "\r"-ended line before the bad one is decided
        data = b"are you a robot\nhow are you\rare you a r\xf6bot\nare you a robot\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), newline="\n"))
        assert main(["guard", "--pos", str(grammars["pos_tiny"]),
                     "--aic", str(grammars["aic_tiny"])]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: stdin line 3 is not UTF-8: byte 0xf6, invalid start byte\n"
        assert [json.loads(line)["text"] for line in captured.out.splitlines()] == [
            "are you a robot", "how are you"
        ]

    @pytest.mark.parametrize("environment", ["ascii", "latin-1"])
    def test_stdin_read_before_main_in_another_encoding(self, package_env, environment):
        # gen reads no stdin and runs as usual; guard cannot read it as UTF-8
        prefix = "import sys; from ruaguard.cli import main; sys.stdin.readline(); sys.exit(main"
        gen = ["gen", "--grammar", "toy", "--n", "3", "--seed", "0"]
        env = _stdio_env(package_env, environment)
        direct = subprocess.run([sys.executable, "-m", "ruaguard.cli", *gen],
                                capture_output=True, env=env)
        runs = {cmd: subprocess.run([sys.executable, "-c", f"{prefix}({argv!r}))"],
                                    input=b"skip\nare you a robot\n", capture_output=True, env=env)
                for cmd, argv in (("gen", gen), ("guard", ["guard"]))}
        assert (runs["gen"].returncode, runs["gen"].stderr) == (0, b"")
        assert runs["gen"].stdout == direct.stdout != b""
        assert (runs["guard"].returncode, runs["guard"].stdout) == (1, b"")
        # the stream names its own encoding: "ascii", "iso8859-1"
        assert re.fullmatch(rb"error: stdin is read as [\w-]+, not UTF-8\n", runs["guard"].stderr)

    def test_strict_utf8_stdin_read_before_main_refuses_a_later_chunk(self, package_env):
        # the stream decodes a chunk of input at a time: the bad byte sits in
        # a later chunk than the line read before main
        script = ("import sys; from ruaguard.cli import main; sys.stdin.readline(); "
                  "sys.exit(main(['guard']))")
        env = {k: v for k, v in package_env.items() if k != "PYTHONUTF8"}
        data = b"skipped\n" + b"are you a robot\n" * 2000 + b"caf\xe9\n"
        proc = subprocess.run([sys.executable, "-c", script], input=data,
                              capture_output=True, env=dict(env, PYTHONIOENCODING="utf-8"))
        assert proc.returncode == 1
        decided = len(proc.stdout.splitlines())
        assert 0 < decided < 2000
        assert proc.stderr == f"error: stdin is not UTF-8 after line {decided}\n".encode()

    def test_main_runs_again_on_a_stdin_read_in_part(self, package_env):
        # a stream that has been read from can no longer change its encoding
        script = ("import sys; from ruaguard.cli import main; "
                  "main(['guard', '--text', 'caf\\u00e9']); sys.stdin.readline(); main(['guard'])")
        proc = subprocess.run([sys.executable, "-c", script],
                              input="skipped\nare you a robot\n".encode(),
                              capture_output=True, env=_stdio_env(package_env, "ascii"))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert [json.loads(line)["text"] for line in proc.stdout.splitlines()] == [
            "café", "are you a robot"
        ]

    def test_main_runs_on_a_stdin_read_in_part_before_it(self, package_env):
        # a strict UTF-8 stdin read from before main keeps its decoding
        script = "import sys; from ruaguard.cli import main; sys.stdin.readline(); main(['guard'])"
        env = {k: v for k, v in package_env.items() if k != "PYTHONUTF8"}
        proc = subprocess.run([sys.executable, "-c", script],
                              input="skipped\nare you a robot\n".encode(),
                              capture_output=True, env=dict(env, PYTHONIOENCODING="utf-8"))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert [json.loads(line)["text"] for line in proc.stdout.splitlines()] == [
            "are you a robot"
        ]


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

    def test_bare_probes_name_resolves_from_any_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["probe", "--probes", "probes.txt"]) == 0
        assert capsys.readouterr().out == "recall\t0.500\n"


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_blocks(heading: str) -> list[str]:
    """The fenced code blocks of README's section ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"## {heading}\n"):]
    section = section[: section.find("\n## ", 1)]
    return re.findall(r"```\w*\n(.*?)```", section, flags=re.S)


def _unrolled_commands(block: str) -> list[list[str]]:
    """The ``ruaguard`` commands of a shell block, its one-level for-loops
    unrolled, as argument lists without the program name."""
    commands, loop = [], None
    for line in block.splitlines():
        head = re.fullmatch(r"\s*for (\w+) in ([\w ]+); do ?(.*)", line)
        if head:
            loop = (head.group(1), head.group(2).split(), [])
            line = head.group(3)
        body = line.strip().removesuffix("done").rstrip("; ")
        if body.startswith("ruaguard "):
            (loop[2] if loop else commands).append(body)
        if loop and line.strip().endswith("done"):
            var, values, bodies = loop
            commands += [cmd.replace(f"${var}", value) for value in values for cmd in bodies]
            loop = None
    return [shlex.split(cmd)[1:] for cmd in commands]


def test_readme_cli_walkthrough_prints_its_tables(tmp_path, monkeypatch, capsys):
    """README's walkthrough, run in an empty directory: split and sample the
    dataset, then every ``$ ruaguard`` line prints what README shows under it."""
    sample_block, train_block = _readme_blocks("CLI walkthrough")[:2]
    monkeypatch.chdir(tmp_path)
    commands = _unrolled_commands(sample_block)
    assert [c[0] for c in commands] == ["split"] * 3 + ["gen"] * 9
    for argv in commands:
        assert main(argv) == 0
    # { head -1 pos.train.tsv; for f in pos.*.tsv aic.*.tsv neg.*.tsv; do tail -n +2 $f; done; }
    assert "for f in pos.*.tsv aic.*.tsv neg.*.tsv" in sample_block
    lines = Path("pos.train.tsv").read_text(encoding="utf-8").splitlines(keepends=True)[:1]
    for stem in ("pos", "aic", "neg"):
        for path in sorted(Path(".").glob(f"{stem}.*.tsv")):
            lines += path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    Path("dataset.tsv").write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()

    steps = re.findall(r"^\$ ruaguard (.*)\n((?:[^$].*\n)*)", train_block, flags=re.M)
    assert [shlex.split(cmd)[0] for cmd, _ in steps] == ["train", "eval", "eval"]
    for cmd, shown in steps:
        assert main(shlex.split(cmd)) == 0
        assert capsys.readouterr().out == shown, cmd


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


def _write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


def _rows(tmp, rows):
    return _write(tmp / "data.tsv", format_dataset(rows))


def _model_file(tmp, kind, drop=(), arrays=None, **meta):
    """A hand-made, loadable ``ngram``, ``bowlr``, ``ir`` or ``random`` model
    file, less the meta keys and arrays named in ``drop``, with ``arrays`` put
    in place of its own and ``meta`` merged in."""
    meta = {"version": 2, "classes": ["p", "a", "n"], "kind": kind, "seed": 0,
            "document_count": 2, "params": {"dim": 4} if kind == "ngram" else {"l2": 1e-4}} | meta
    width = 4 if kind == "ngram" else 2
    # the IR matrix is the 2 x 2 identity over the two tokens, in sparse rows
    arrays = {"buckets": np.arange(2), "logits": np.zeros((2, 3)),
              "vocab_tokens": np.asarray(["robot", "pizza"]), "vocab_df": np.ones(2),
              "weights": np.zeros((3, width)), "biases": np.zeros(3),
              "mat_data": np.ones(2), "mat_indices": np.arange(2), "mat_indptr": np.arange(3),
              "mat_shape": np.asarray([2, 2]), "labels": np.asarray([0, 2]),
              "distribution": np.asarray([0.25, 0.25, 0.5])} | (arrays or {})
    for key in drop:
        meta.pop(key, None)
        arrays.pop(key, None)
    return _npz(tmp / "m.npz", meta=np.asarray(json.dumps(meta)), **arrays)


def _chain(tmp):
    """A grammar of 1,501 rules, each but the last nesting the next."""
    return _write(tmp / "chain.cfg", "".join(
        f'R{i} -> "a" R{i + 1}\n' for i in range(1500)) + 'R1500 -> "b"\n')


def _beside_earlier_split(tmp):
    """A grammar file beside the train grammar an earlier split of it wrote."""
    _write(tmp / "lang.train.cfg", POS_SRC)
    return _write(tmp / "lang.cfg", POS_SRC)


def _train_ngram(tmp, *flags):
    """``train --kind ngram`` on one row per class, with schedule flags."""
    data = _rows(tmp, [
        LabeledUtterance("are you a robot", Label.POS, split="train"),
        LabeledUtterance("you sound robotic", Label.AIC, split="train"),
        LabeledUtterance("do you like pizza", Label.NEG, split="train"),
    ])
    return ["train", "--kind", "ngram", "--data", data, "--out", str(tmp / "m.npz"), *flags]


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
    "config_line_without_equals": lambda tmp: [
        "gen", "--grammar", "toy", "--n", "1", "--config", _write(tmp / "ruag.cfg", "seed = 1\nseed\n")],
    "config_unknown_key": lambda tmp: [
        "gen", "--grammar", "toy", "--n", "1", "--config", _write(tmp / "ruag.cfg", "sed = 5\n")],
    "config_seed_with_trailing_comment": lambda tmp: [
        "gen", "--grammar", "toy", "--n", "1", "--config", _write(tmp / "ruag.cfg", "seed = 7  # x\n")],
    "split_fractions_sum_past_one": lambda tmp: ["split", "--grammar", "pos", "--fractions",
                                                 "1,1,1", "--out-dir", str(tmp)],
    "split_would_overwrite_its_input": lambda tmp: ["split", "--grammar", _write(
        tmp / "pos.test.cfg", POS_SRC), "--out-dir", str(tmp)],
    "split_would_overwrite_its_input_manifest": lambda tmp: [
        "split", "--grammar", _write(tmp / "lang.cfg", POS_SRC), "--out-dir", str(tmp),
        "--manifest", _write(tmp / "lang.manifest.tsv", format_manifest(
            partition(parse_grammar(POS_SRC), PartitionConfig(seed=0))))],
    "mine_positives_dataset_with_bad_row": lambda tmp: [
        "mine", "--corpus", _write(tmp / "corpus.txt", "are you robots\nzebra\n"), "--n", "1",
        "--positives", _write(tmp / "pos.tsv", "text\tlabel\tsplit\tsource\n"
                              "are you a robot\tp\ttrain\tgrammar\nyou sound robotic\ta\n")],
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
    "ngram_seed_negative": lambda tmp: _train_ngram(tmp, "--seed", "-1"),
    # one text under two labels, so training never fits it and overflows
    "train_ngram_lr_diverges": lambda tmp: [
        "train", "--kind", "ngram", "--lr", "1e30", "--out", str(tmp / "m.npz"),
        "--data", _rows(tmp, [
            LabeledUtterance("are you a robot", Label.POS, split="train"),
            LabeledUtterance("are you a robot", Label.AIC, split="train"),
            LabeledUtterance("do you like pizza", Label.NEG, split="train"),
        ]),
    ],
    "model_ngram_params_unknown_key": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", params={"dim": 4, "colour": "red"})),
    "model_ngram_params_not_a_dict": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", params=[4])),
    "model_ngram_without_params": lambda tmp: _guard(model=_model_file(tmp, "ngram", ["params"])),
    "model_ngram_dim_a_float": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", params={"dim": 4.0})),
    "model_ngram_ngram_max_a_float": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", params={"dim": 4, "ngram_max": 2.0})),
    "model_ngram_hash_buckets_a_float": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", params={"dim": 4, "hash_buckets": 1e6})),
    "model_ngram_hash_buckets_past_int64": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", params={"dim": 4, "hash_buckets": 2**64})),
    "model_ngram_without_seed": lambda tmp: _guard(model=_model_file(tmp, "ngram", ["seed"])),
    "model_ngram_without_buckets": lambda tmp: _guard(model=_model_file(tmp, "ngram", ["buckets"])),
    "model_ngram_without_logits": lambda tmp: _guard(model=_model_file(tmp, "ngram", ["logits"])),
    "model_version_unknown": lambda tmp: _guard(model=_model_file(tmp, "ngram", version=3)),
    "model_version_one": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", ["logits"], version=1, arrays={"embeddings": np.zeros((2, 4))})),
    "model_ngram_seed_not_an_integer": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", seed=1.5)),
    "model_ngram_seed_negative": lambda tmp: _guard(model=_model_file(tmp, "ngram", seed=-1)),
    "model_ngram_without_weights": lambda tmp: _guard(model=_model_file(tmp, "ngram", ["weights"])),
    "model_ngram_buckets_floats": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", arrays={"buckets": np.asarray([0.5, 1.7])})),
    "model_ngram_buckets_negative": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", arrays={"buckets": np.asarray([-3, 1])})),
    "model_ngram_bucket_past_hash_buckets": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", params={"dim": 4, "hash_buckets": 8},
        arrays={"buckets": np.asarray([1, 8])})),
    "model_ngram_buckets_duplicate": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", arrays={"buckets": np.asarray([1, 1])})),
    "model_ngram_biases_objects": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", arrays={"biases": np.asarray([0.0, None, 0.0], dtype=object)})),
    "model_bowlr_without_document_count": lambda tmp: _guard(model=_model_file(
        tmp, "bowlr", ["document_count"])),
    "model_bowlr_without_vocab": lambda tmp: _guard(model=_model_file(
        tmp, "bowlr", ["vocab_tokens"])),
    "model_ngram_logits_too_wide": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", arrays={"logits": np.zeros((2, 4))})),
    "model_ngram_logits_row_per_bucket": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", arrays={"logits": np.zeros((3, 3))})),
    "model_ngram_weights_too_narrow": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", arrays={"weights": np.zeros((3, 3))})),
    "model_ngram_biases_too_short": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", arrays={"biases": np.zeros(2)})),
    "model_bowlr_weights_too_wide": lambda tmp: _guard(model=_model_file(
        tmp, "bowlr", arrays={"weights": np.zeros((3, 3))})),
    "model_bowlr_weights_one_class_short": lambda tmp: _guard(model=_model_file(
        tmp, "bowlr", arrays={"weights": np.zeros((2, 2))})),
    "model_ir_matrix_too_wide": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"mat_shape": np.asarray([2, 3])})),
    "model_ir_label_per_row": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"labels": np.asarray([0])})),
    "model_ir_label_not_a_class": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"labels": np.asarray([0, 7])})),
    "model_ir_index_past_width": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"mat_indices": np.asarray([0, 5])})),
    "model_ir_matrix_without_rows": lambda tmp: _guard(model=_model_file(tmp, "ir", arrays={
        "mat_shape": np.asarray([0, 2]), "mat_indptr": np.zeros(1, dtype=np.int32),
        "mat_indices": np.zeros(0, dtype=np.int32), "mat_data": np.zeros(0),
        "labels": np.zeros(0, dtype=np.int64)})),
    "train_random_without_train_rows": lambda tmp: [
        "train", "--kind", "random", "--out", str(tmp / "m.npz"), "--data",
        _rows(tmp, [LabeledUtterance("are you a robot", Label.POS, split="val")])],
    "eval_data_not_utf8": lambda tmp: ["eval", "--recognizer", "--data", _write_bytes(
        tmp / "data.tsv", b"text\tlabel\n\xff\xfe\tp\n")],
    "guard_pos_grammar_nests_too_deeply": lambda tmp: [
        "guard", "--pos", _chain(tmp), "--text", "a" * 1500 + "b"],
    "guard_aic_grammar_nests_too_deeply": lambda tmp: [
        "guard", "--aic", _chain(tmp), "--text", "a" * 1500 + "b"],
    "gen_grammar_not_utf8": lambda tmp: ["gen", "--grammar", _write_bytes(
        tmp / "g.cfg", b'S -> "\xe9t\xe9"\n'), "--n", "1"],
    "guard_config_not_utf8": lambda tmp: _guard(config=_write_bytes(
        tmp / "guard.cfg", b"clear_confirm = I am a b\xf6t\n")),
    "split_manifest_not_utf8": lambda tmp: [
        "split", "--grammar", _write(tmp / "lang.cfg", POS_SRC), "--out-dir", str(tmp / "out"),
        "--manifest", _write_bytes(tmp / "lang.manifest.tsv",
                                   b"rule\talt_index\tassignment\r\nS\t0\tsh\xe4red\r\n")],
    "config_not_utf8": lambda tmp: [
        "gen", "--grammar", "toy", "--n", "1", "--config", _write_bytes(
            tmp / "ruag.cfg", b"seed = 1\rdata_dir = caf\xe9\n")],
    "mine_corpus_not_utf8": lambda tmp: [
        "mine", "--corpus", _write_bytes(tmp / "corpus.txt", b"are you robots\nzebr\xe4\n"),
        "--n", "1", "--positives", _write(tmp / "pos.txt", "are you a robot\n")],
    "mine_positives_not_utf8": lambda tmp: [
        "mine", "--corpus", _write(tmp / "corpus.txt", "are you robots\nzebra\n"), "--n", "1",
        "--positives", _write_bytes(tmp / "pos.txt", b"are you a robot\n\n\xff\n")],
    "probe_probes_not_utf8": lambda tmp: [
        "probe", "--probes", _write_bytes(tmp / "probes.txt", b"are you a robot\r\nr \xfc robot\n")],
    "probe_probes_missing": lambda tmp: ["probe", "--probes", str(tmp / "missing.txt")],
    "gen_grammar_unknown_name": lambda tmp: ["gen", "--grammar", "robots", "--n", "1"],
    "guard_aic_grammar_empty_alternative": lambda tmp: [
        "guard", "--aic", _write(tmp / "broken.cfg", 'S -> "a" |\n'), "--text", "hi"],
    "guard_pos_grammar_undefined_name": lambda tmp: [
        "guard", "--pos", _write(tmp / "undef.cfg", 'S -> "are you " X\n'), "--text", "hi"],
    "gen_grammar_duplicate_rule": lambda tmp: ["gen", "--grammar", _write(
        tmp / "dup.cfg", 'S -> N\nN -> "a"\nN -> "b"\n'), "--n", "1"],
    "gen_grammar_cycle": lambda tmp: ["gen", "--grammar", _write(
        tmp / "loop.cfg", 'S -> A\nA -> S | "a"\n'), "--n", "1"],
    # each weight is finite, but sampling draws against their total
    "gen_grammar_weights_sum_to_infinity": lambda tmp: ["gen", "--grammar", _write(
        tmp / "inf.cfg", 'S -> 1e308: "a" | 1e308: "b"\n'), "--n", "1", "--plain"],
    "gen_grammar_weight_absorbed_by_the_total": lambda tmp: ["gen", "--grammar", _write(
        tmp / "tiny.cfg", 'S -> 1: "a" | 1e-17: "b"\n'), "--n", "2", "--plain"],
    "eval_data_unknown_label": lambda tmp: ["eval", "--recognizer", "--data", _write(
        tmp / "lab.tsv", "text\tlabel\tsplit\tsource\nare you a robot\tq\ttest\tgrammar\n")],
    "train_data_without_header": lambda tmp: [
        "train", "--kind", "random", "--out", str(tmp / "m.npz"),
        "--data", _write(tmp / "data.tsv", "are you a robot\tp\ttrain\tgrammar\n")],
    "split_manifest_unknown_rule": lambda tmp: [
        "split", "--grammar", _write(tmp / "lang.cfg", POS_SRC), "--out-dir", str(tmp / "out"),
        "--manifest", _write(tmp / "lang.manifest.tsv",
                             "rule\talt_index\tassignment\nQ\t0\tshared\n")],
    "split_manifest_covers_part_of_a_rule": lambda tmp: [
        "split", "--grammar", _write(tmp / "lang.cfg", POS_SRC), "--out-dir", str(tmp / "out"),
        "--manifest", _write(tmp / "lang.manifest.tsv",
                             "rule\talt_index\tassignment\nS\t0\tshared\n")],
    "split_manifest_bad_alternative_index": lambda tmp: [
        "split", "--grammar", _write(tmp / "lang.cfg", POS_SRC), "--out-dir", str(tmp / "out"),
        "--manifest", _write(tmp / "man.tsv", "rule\talt_index\tassignment\nS\tx\tshared\n")],
    "eval_data_blank_text": lambda tmp: ["eval", "--recognizer", "--data", _write(
        tmp / "blank.tsv", "text\tlabel\tsplit\tsource\n \tp\ttest\tgrammar\n")],
    "model_random_distribution_sums_past_one": lambda tmp: _guard(model=_model_file(
        tmp, "random", arrays={"distribution": np.asarray([0.5, 0.5, 0.5])})),
    "model_random_distribution_two_entries": lambda tmp: _guard(model=_model_file(
        tmp, "random", arrays={"distribution": np.asarray([0.5, 0.5])})),
    "model_random_distribution_nan": lambda tmp: _guard(model=_model_file(
        tmp, "random", arrays={"distribution": np.asarray([np.nan, 0.5, 0.5])})),
    "model_random_distribution_negative": lambda tmp: _guard(model=_model_file(
        tmp, "random", arrays={"distribution": np.asarray([1.5, -0.5, 0.0])})),
    "model_bowlr_weights_nan": lambda tmp: _guard(model=_model_file(
        tmp, "bowlr", arrays={"weights": np.full((3, 2), np.nan)})),
    "model_ngram_logits_nan": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", arrays={"logits": np.asarray([[0.0, np.nan, 0.0], [0.0, 0.0, 0.0]])})),
    "model_ngram_biases_infinite": lambda tmp: _guard(model=_model_file(
        tmp, "ngram", arrays={"biases": np.asarray([0.0, np.inf, 0.0])})),
    "model_ir_mat_data_nan": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"mat_data": np.asarray([1.0, np.nan])})),
    "model_bowlr_vocab_df_short": lambda tmp: _guard(model=_model_file(
        tmp, "bowlr", arrays={"vocab_df": np.ones(1)})),
    "model_ir_vocab_df_short": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"vocab_df": np.ones(1)})),
    # one token twice: read as one token, its column 1 lies past 1-wide arrays
    "model_bowlr_vocab_tokens_repeat": lambda tmp: _guard(model=_model_file(
        tmp, "bowlr", arrays={"vocab_tokens": np.asarray(["robot", "robot"]),
                              "weights": np.zeros((3, 1))})),
    "model_ir_vocab_tokens_repeat": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"vocab_tokens": np.asarray(["robot", "robot"]),
                           "mat_indices": np.zeros(2, dtype=np.int32),
                           "mat_shape": np.asarray([2, 1])})),
    "model_bowlr_vocab_df_past_document_count": lambda tmp: _guard(model=_model_file(
        tmp, "bowlr", arrays={"vocab_df": np.asarray([3.0, 1.0])})),
    "model_bowlr_document_count_negative": lambda tmp: _guard(model=_model_file(
        tmp, "bowlr", document_count=-5)),
    "model_ir_document_count_not_an_integer": lambda tmp: _guard(model=_model_file(
        tmp, "ir", document_count=2.5)),
    "model_unknown_kind": lambda tmp: _guard(model=_npz(tmp / "m.npz", meta=np.asarray(
        json.dumps({"version": 2, "classes": ["p", "a", "n"], "kind": "svm"})))),
    "train_ir_dense_tfidf_too_large": lambda tmp: [
        "train", "--kind", "ir", "--out", str(tmp / "m.npz"), "--data", _rows(tmp, [
            LabeledUtterance("are you a robot", Label.POS, split="train"),
            LabeledUtterance("you sound robotic", Label.AIC, split="train"),
            LabeledUtterance("do you like pizza", Label.NEG, split="train")])],
    "train_bowlr_without_aic_rows": lambda tmp: [
        "train", "--kind", "bowlr", "--out", str(tmp / "m.npz"), "--data", _rows(tmp, [
            LabeledUtterance("are you a robot", Label.POS, split="train"),
            LabeledUtterance("do you like pizza", Label.NEG, split="train")])],
    "eval_data_without_p_rows": lambda tmp: ["eval", "--recognizer", "--data", _rows(tmp, [
        LabeledUtterance("do you like pizza", Label.NEG, split="test")])],
    "eval_without_a_classifier": lambda tmp: ["eval", "--data", _rows(tmp, [
        LabeledUtterance("are you a robot", Label.POS, split="test")])],
    "eval_model_with_recognizer": lambda tmp: ["eval", "--recognizer", "--model", str(
        tmp / "m.npz"), "--data", _rows(tmp, [
            LabeledUtterance("are you a robot", Label.POS, split="test")])],
    "guard_model_with_recognizer": lambda tmp: _guard(model=str(tmp / "m.npz")) + ["--recognizer"],
    "eval_split_without_rows": lambda tmp: ["eval", "--recognizer", "--data", _rows(tmp, [
        LabeledUtterance("are you a robot", Label.POS, split="train")])],
    "mine_more_than_the_corpus": lambda tmp: [
        "mine", "--corpus", _write(tmp / "corpus.txt", "are you robots\nzebra\n"), "--n", "5",
        "--positives", _write(tmp / "pos.txt", "are you a robot\n")],
    # the language holds both strings, but the draws all but never reach "b"
    "gen_more_strings_than_the_language_holds": lambda tmp: [
        "gen", "--grammar", _write(tmp / "ab.cfg", 'S -> 1000000: "a" | "b"\n'), "--n", "2"],
    # one derivation, but its string would be 2**25 characters long: a
    # 2**16-character terminal doubled 9 times, which a lifted check draws
    # in well under a second
    "gen_grammar_string_past_the_length_cap": lambda tmp: [
        "gen", "--grammar", _write(tmp / "doubling.cfg", "".join(
            f"R{i} -> R{i + 1} R{i + 1}\n" for i in range(9)) + f'R9 -> "{"a" * 2**16}"\n'),
        "--n", "1"],
    "guard_config_without_clear_confirm": lambda tmp: _guard(config=_write(
        tmp / "guard.cfg", "purpose = helping\n")),
    "split_manifest_puts_every_start_alternative_in_train": lambda tmp: [
        "split", "--grammar", _write(tmp / "lang.cfg", POS_SRC), "--out-dir", str(tmp / "out"),
        "--manifest", _write(tmp / "lang.manifest.tsv", "rule\talt_index\tassignment\n"
                             "S\t0\ttrain\n" + "".join(f"N\t{i}\ttrain\n" for i in range(4)))],
    # sizes numpy refuses at once; the file's own arrays refute each first
    "model_ir_rows_past_memory": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"mat_shape": np.asarray([10**12, 2])})),
    "model_ir_width_past_memory": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"mat_shape": np.asarray([2, 10**12])})),
    "model_ir_indptr_past_memory": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"mat_indptr": np.asarray([0, 10**12, 10**12 + 1])})),
    "model_ir_indptr_decreasing": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"mat_indptr": np.asarray([0, 2, 1]), "mat_indices": np.arange(1),
                           "mat_data": np.ones(1)})),
    # numpy would wrap these round: the two rows swapped
    "model_ir_index_negative": lambda tmp: _guard(model=_model_file(
        tmp, "ir", arrays={"mat_indices": np.asarray([-1, -2])})),
    "gen_grammar_derives_blank_text": lambda tmp: [
        "gen", "--grammar", _write(tmp / "blank.cfg", 'S -> " "\n'), "--n", "1"],
    "eval_data_missing": lambda tmp: ["eval", "--recognizer", "--data", str(tmp / "missing.tsv")],
    "guard_model_missing": lambda tmp: _guard(model=str(tmp / "missing.npz")),
    "gen_grammar_is_a_directory": lambda tmp: ["gen", "--grammar", str(tmp), "--n", "1"],
    "guard_model_is_a_directory": lambda tmp: _guard(model=str(tmp)),
    "model_ir_dense_matrix_too_large": lambda tmp: _guard(model=_model_file(tmp, "ir")),
    "split_manifest_missing_beside_earlier_outputs": lambda tmp: [
        "split", "--grammar", _beside_earlier_split(tmp), "--out-dir", str(tmp),
        "--manifest", str(tmp / "missing.tsv")],
    "mine_dense_tfidf_too_large": lambda tmp: [
        "mine", "--corpus", _write(tmp / "corpus.txt", "are you robots\nzebra\n"), "--n", "1",
        "--positives", _rows(tmp, [LabeledUtterance("are you a robot", Label.POS, split="train"),
                                   LabeledUtterance("are you a bot", Label.POS, split="train")])],
}

# The file each *_not_utf8 case refuses and the line of its first bad byte,
# lines counted as split_lines counts them.
NOT_UTF8 = {
    "eval_data_not_utf8": ("data.tsv", 2),
    "gen_grammar_not_utf8": ("g.cfg", 1),
    "guard_config_not_utf8": ("guard.cfg", 1),
    "split_manifest_not_utf8": ("lang.manifest.tsv", 2),
    "config_not_utf8": ("ruag.cfg", 2),
    "mine_corpus_not_utf8": ("corpus.txt", 2),
    "mine_positives_not_utf8": ("pos.txt", 3),
    "probe_probes_not_utf8": ("probes.txt", 2),
}

# The file each grammar or dataset format case refuses, and what its error
# line holds after the file's path: the line (and column) at fault, if any,
# then the problem.
FORMAT_ERRORS = {
    "guard_aic_grammar_empty_alternative": ("broken.cfg", " line 1, col 11: empty alternative"),
    "guard_pos_grammar_undefined_name": (
        "undef.cfg", ": non-terminal 'X' is referenced but never defined"),
    "gen_grammar_duplicate_rule": ("dup.cfg", ": rule 'N' is defined more than once"),
    "gen_grammar_cycle": ("loop.cfg", ": grammar contains a cycle: S -> A -> S"),
    "gen_grammar_weights_sum_to_infinity": (
        "inf.cfg", ": rule 'S': alternative 1's weight 1e+308 leaves the running total of its "
        "weights infinite"),
    "gen_grammar_weight_absorbed_by_the_total": (
        "tiny.cfg", ": rule 'S': alternative 1's weight 1e-17 leaves the running total of its "
        "weights unchanged"),
    "eval_data_unknown_label": ("lab.tsv", " line 2: unknown label 'q'"),
    "train_data_without_header": (
        "data.tsv", " line 1: missing header row 'text\\tlabel\\tsplit\\tsource'"),
    "split_manifest_unknown_rule": ("lang.manifest.tsv", " line 2: unknown rule 'Q'"),
    "split_manifest_covers_part_of_a_rule": (
        "lang.manifest.tsv", ": rule 'N' covers 0 of 4 alternatives"),
    "split_manifest_bad_alternative_index": ("man.tsv", " line 2: bad alternative index 'x'"),
    "eval_data_blank_text": ("blank.tsv", " line 2: empty utterance text"),
    "mine_positives_dataset_with_bad_row": (
        "pos.tsv", " line 3: expected 4 tab-separated fields, got 2"),
    "guard_pos_grammar_nests_too_deeply": (
        "chain.cfg", ": grammar nests too deeply for the matcher"),
    "guard_aic_grammar_nests_too_deeply": (
        "chain.cfg", ": grammar nests too deeply for the matcher"),
}

# The whole error line of other cases, ``{tmp}`` standing for the case's directory.
ERROR_LINES = {
    "train_random_without_train_rows": "error: no training rows",
    "train_bowlr_without_aic_rows": "error: training data contains no example with label 'a'",
    "eval_data_without_p_rows": "error: no gold-positive examples; recall undefined",
    "eval_without_a_classifier": "error: pass --model PATH or --recognizer",
    "eval_model_with_recognizer": "error: pass --model PATH or --recognizer, not both",
    "guard_model_with_recognizer": "error: pass --model PATH or --recognizer, not both",
    "eval_split_without_rows": "error: no rows with split 'test' in {tmp}/data.tsv",
    "mine_more_than_the_corpus": "error: only 2 candidates available for 5 requested",
    "gen_more_strings_than_the_language_holds":
        "error: {tmp}/ab.cfg: found only 1 distinct strings while 2 were requested",
    "gen_grammar_string_past_the_length_cap":
        "error: {tmp}/doubling.cfg: the longest string is 33554432 characters, "
        "over the limit of 16777216",
    "guard_config_without_clear_confirm": "error: guard config must set clear_confirm",
    "split_manifest_puts_every_start_alternative_in_train":
        "error: the 'val' sub-grammar lost its start symbol",
    "model_ir_rows_past_memory": "error: {tmp}/m.npz is not a valid ir model file: "
        "mat_indptr has shape (3,), expected (1000000000001,)",
    "model_ir_width_past_memory": "error: {tmp}/m.npz is not a valid ir model file: "
        "matrix is 1000000000000 wide over 2 tokens",
    "model_ir_indptr_past_memory": "error: {tmp}/m.npz is not a valid ir model file: "
        "mat_indices has shape (2,), expected (1000000000001,)",
    "model_ir_indptr_decreasing": "error: {tmp}/m.npz is not a valid ir model file: "
        "mat_indptr must be integers that start at 0 and never decrease",
    "model_ir_index_negative": "error: {tmp}/m.npz is not a valid ir model file: "
        "mat_indices must be non-negative integers",
    "model_ir_dense_matrix_too_large": "error: {tmp}/m.npz is not a valid ir model file: "
        "a dense TF-IDF array of 2 rows by 2 tokens needs 32 bytes, over the limit of 8",
    "gen_grammar_derives_blank_text": "error: {tmp}/blank.cfg derives a blank utterance ' '",
    "eval_data_missing": "error: cannot read {tmp}/missing.tsv: No such file or directory",
    "guard_model_missing": "error: cannot read {tmp}/missing.npz: No such file or directory",
    "gen_grammar_is_a_directory": "error: cannot read {tmp}: Is a directory",
    "guard_model_is_a_directory": "error: cannot read {tmp}: Is a directory",
    "split_manifest_missing_beside_earlier_outputs":
        "error: cannot read {tmp}/missing.tsv: No such file or directory",
}

# Cases run with the dense TF-IDF size limit at 8 bytes, one text of one
# token: a larger array past the limit is refused before it is allocated.
DENSE_LIMITED = {
    "train_ir_dense_tfidf_too_large", "mine_dense_tfidf_too_large", "model_ir_dense_matrix_too_large"
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_exits_with_one_error_line(case, tmp_path, capsys, monkeypatch):
    if case in DENSE_LIMITED:
        monkeypatch.setattr(features, "MAX_DENSE_BYTES", 8)
    argv = INPUT_ERRORS[case](tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if case.startswith("model_"):
        assert argv[argv.index("--model") + 1] in lines[0]
    if case in DENSE_LIMITED:
        assert "needs" in lines[0] and "over the limit of 8" in lines[0]
    if case in FORMAT_ERRORS:
        name, problem = FORMAT_ERRORS[case]
        assert lines[0] == f"error: {tmp_path / name}{problem}"
    if case in ERROR_LINES:
        assert lines[0] == ERROR_LINES[case].format(tmp=tmp_path)
    if case.endswith("_not_utf8"):
        name, line = NOT_UTF8[case]
        assert lines[0].startswith(f"error: {tmp_path / name} line {line} is not UTF-8: byte 0x")
    if case in ("probe_probes_missing", "gen_grammar_unknown_name"):
        what = argv[1].removeprefix("--")
        assert lines[0].startswith(f"error: {what} {argv[2]!r} is neither a file nor one of ")


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_is_an_invalid_input_or_format_error(case, tmp_path, monkeypatch):
    # what main reports, raised as one of the two types a caller can tell
    # from a fault in code
    if case in DENSE_LIMITED:
        monkeypatch.setattr(features, "MAX_DENSE_BYTES", 8)
    args = build_parser().parse_args(INPUT_ERRORS[case](tmp_path))
    with pytest.raises((InvalidInputError, FormatError)):
        _apply_config(args)
        args.func(args)


@pytest.mark.parametrize("case", sorted(DENSE_LIMITED))
def test_dense_limited_cases_pass_under_the_real_limit(case, tmp_path, capsys):
    assert main(INPUT_ERRORS[case](tmp_path)) == 0


def test_training_that_diverges_writes_no_model_file(tmp_path, capsys):
    assert main(INPUT_ERRORS["train_ngram_lr_diverges"](tmp_path)) == 1
    assert "learning_rate 1e+30" in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


def test_ngram_max_past_the_text_guards_as_its_token_count(tmp_path, capsys):
    # a decision walks the text's 4 tokens, whatever ngram_max the file gives
    lines = []
    for ngram_max in (4, 10**9):
        model = _model_file(tmp_path, "ngram", params={"dim": 4, "ngram_max": ngram_max})
        assert main(_guard(model=model)) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]


@pytest.mark.parametrize("kind", ["ngram", "bowlr", "ir", "random"])
def test_hand_made_model_file_guards_whole(kind, tmp_path, capsys):
    # the INPUT_ERRORS model files are this one with a key taken out or changed
    assert main(_guard(model=_model_file(tmp_path, kind))) == 0
    assert json.loads(capsys.readouterr().out)["label"] in {"p", "a", "n"}


def test_train_kinds_are_the_model_file_kinds():
    # the CLI keeps its own tuple, so that guard loads no numpy
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    kind = next(a for a in commands.choices["train"]._actions if a.dest == "kind")
    assert tuple(kind.choices) == tuple(MODEL_CODECS)


@pytest.fixture(scope="module")
def trained_files(tmp_path_factory):
    """Per kind of the codec table, a model file trained by ``train --kind``:
    its path, meta and arrays."""
    tmp = tmp_path_factory.mktemp("trained")
    data = _rows(tmp, [
        LabeledUtterance("are you a robot", Label.POS, split="train"),
        LabeledUtterance("you sound robotic", Label.AIC, split="train"),
        LabeledUtterance("do you like pizza", Label.NEG, split="train"),
        LabeledUtterance("do you like robot movies", Label.NEG, split="train"),
    ])
    files = {}
    for kind in MODEL_CODECS:
        path = tmp / f"{kind}.npz"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--kind", kind, "--data", data, "--out", str(path)]) == 0
        with np.load(path) as saved:
            arrays = {key: saved[key] for key in saved.files}
        files[kind] = (tmp / f"{kind}.damaged.npz", json.loads(str(arrays.pop("meta"))), arrays)
    return files


# sizes numpy refuses to allocate at once, never one a lazy calloc could grant
_HUGE = [10**12, 2**40 + 1, 2**62, 2**63 - 1]


def _retyped(array, dtype):
    try:
        return array.astype(dtype)
    except (TypeError, ValueError):
        return np.zeros(array.shape, dtype)


@st.composite
def damaged(draw, meta, arrays):
    """``meta`` and ``arrays`` with one meta value dropped or replaced, or one
    array dropped, reshaped, retyped, or holding a NaN, a negative or a huge
    integer."""
    meta, arrays = dict(meta), dict(arrays)
    huge_keys = sorted(set(arrays) & {"mat_shape", "mat_indptr", "buckets"})
    damage = draw(st.sampled_from(
        ["meta", "drop", "shape", "dtype", "nan", "negative"] + ["huge"] * bool(huge_keys)))
    if damage == "meta":
        key = draw(st.sampled_from(sorted(meta)))
        values = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
        values |= st.lists(values, max_size=3) | st.dictionaries(
            st.sampled_from(["dim", "ngram_max", "hash_buckets", "epochs", "learning_rate"]),
            st.integers() | st.floats(), max_size=3)
        if draw(st.booleans()):
            del meta[key]
        else:
            meta[key] = draw(values)
        return meta, arrays
    key = draw(st.sampled_from(huge_keys if damage == "huge" else sorted(arrays)))
    array = arrays.pop(key)
    if damage == "shape":
        flat = array.reshape(-1)
        array = draw(st.sampled_from([flat[:-1], flat[:0], flat[:1].reshape(()), array[None]]))
    elif damage == "dtype":
        array = _retyped(array, draw(st.sampled_from([str, np.float32, np.int64, bool, complex])))
    elif damage != "drop":
        integer = array.dtype.kind in "iu" and damage != "nan"
        array = _retyped(array, np.int64 if integer else np.float64)
        value = {"nan": st.just(np.nan), "negative": st.integers(-(2**40), -1),
                 "huge": st.sampled_from(_HUGE)}[damage]
        if array.size:
            array.flat[draw(st.integers(0, array.size - 1))] = draw(value)
    if damage != "drop":
        arrays[key] = array
    return meta, arrays


@pytest.mark.parametrize("kind", sorted(MODEL_CODECS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_damaged_model_file_guards_or_names_itself_on_one_error_line(trained_files, kind, data):
    path, meta, arrays = trained_files[kind]
    meta, arrays = data.draw(damaged(meta, arrays))
    np.savez(path, meta=np.asarray(json.dumps(meta)), **arrays)
    out, err = io.StringIO(), io.StringIO()
    argv = _guard(model=str(path))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        # the label guard printed is the one predict gives
        text = argv[argv.index("--text") + 1]
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["label"] == load_model(path).predict(text).label.value
    else:
        lines = err.getvalue().splitlines()
        assert code == 1 and out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}")


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

    def test_data_dir_config_key_resolves_bare_names(self, tmp_path, capsys):
        # only a line that starts with # is a comment; the path keeps its #
        data_dir = tmp_path / "grammars#1"
        data_dir.mkdir()
        (data_dir / "pos.cfg").write_text(
            'S -> "zorp" | "blip" | "quux" | "flurb"\n', encoding="utf-8"
        )
        cfg = _write(tmp_path / "ruag.cfg", f"  # packaged names\ndata_dir = {data_dir}\n")
        assert main(["gen", "--grammar", "pos", "--n", "4", "--seed", "0",
                     "--plain", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(lines) == ["blip", "flurb", "quux", "zorp"]

    def test_data_dir_flag_beats_config(self, tmp_path, capsys):
        config_dir = tmp_path / "config"
        flag_dir = tmp_path / "flag"
        config_dir.mkdir()
        flag_dir.mkdir()
        (config_dir / "pos.cfg").write_text('S -> "from config"\n', encoding="utf-8")
        (flag_dir / "pos.cfg").write_text('S -> "from flag"\n', encoding="utf-8")
        cfg = _write(tmp_path / "ruag.cfg", f"data_dir = {config_dir}\n")
        assert main(["gen", "--grammar", "pos", "--n", "1", "--seed", "0", "--plain",
                     "--config", cfg, "--data-dir", str(flag_dir)]) == 0
        assert capsys.readouterr().out == "from flag\n"

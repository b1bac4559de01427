"""Every byte the CLI writes, pinned in one table.

A fixed matrix of ``main`` commands runs in an empty directory, through
generation, partitioning, training, evaluation, mining, guarding and
probing. Paths are relative, so no written byte holds the directory's name.
``GOLDEN`` maps each (case, file) to the SHA-256 of the bytes that case
wrote, its stdout included. A mismatch names the case, the file and the new
digest; a change that moves an entry on purpose names it in CHANGES.md.

The cases that need no numpy, and their entries, are ``numpy_free``'s. They
run here in process, and once more in a child interpreter where importing
numpy raises.
"""

import subprocess
import sys
from pathlib import Path

import numpy_free
import pytest
from numpy_free import cli, rows, texts

KINDS = ("ngram", "ir", "bowlr", "random")
CLASSIFIERS = KINDS + ("recognizer",)

GOLDEN = {
    **numpy_free.GOLDEN,
    ("train_ngram", "stdout"):
        "ac2cfdc472206108b2f2fb74ffd29b726565d810d0736077f7d29b8b6efd16c2",
    ("train_ngram", "ngram.npz"):
        "f13c4a130584fc6ea2058c9a95ac7e00e21ee84841f6e69a323ae7b33030cccb",
    ("train_ir", "stdout"):
        "616a1faffb53537116e904f55ccce80ce4077206d2927bd012990217eec676b0",
    ("train_ir", "ir.npz"):
        "283952e06e18f92d5e47b4bf548b37b86043f3c2145e1dcae68868fdabceaa2c",
    ("train_bowlr", "stdout"):
        "9540bbcf60a168ddf58b54dcd41c0a89ff9fb20620240f740b755ea432ce5b00",
    ("train_bowlr", "bowlr.npz"):
        "b1f28677ed9a6445d3b6ba1144ec276b4d86c435cecb8b44df85576793c3dfbf",
    ("train_random", "stdout"):
        "c0b0e0428ef5e8a2e1351320c5aa04164932ffe8e9e55c828c1a839fb7038a36",
    ("train_random", "random.npz"):
        "f107b24e26d876eb4498e90c190f1325d5d48c8d80115f2860b3c620bc51720b",
    ("eval_ngram", "stdout"):
        "081e87f81d2b7297f2c47624b97eff16765ad1c8d5d319809f1b6e83dbd28fc5",
    ("eval_ngram", "ngram_audit.jsonl"):
        "2afcfe8de5c592013879beb7e7b84e7d430377904832761b300299c0f4f18edf",
    ("eval_ngram", "ngram_report.tsv"):
        "081e87f81d2b7297f2c47624b97eff16765ad1c8d5d319809f1b6e83dbd28fc5",
    ("guard_ngram", "stdout"):
        "d22e494791637ce5ea3e0a5064cd2d96e8d8bfbd75dbd17c1a730a6fa702a847",
    ("eval_ir", "stdout"):
        "2c5a66ca3ca03acf373c00896d4d61655bdd1ae91fdaaf8e3c1428a57a3a87c5",
    ("eval_ir", "ir_audit.jsonl"):
        "3795b8b43192e023b85d651cc9db42baa3c2a9a34a517eb98cdc4a77839f6042",
    ("eval_ir", "ir_report.tsv"):
        "2c5a66ca3ca03acf373c00896d4d61655bdd1ae91fdaaf8e3c1428a57a3a87c5",
    ("guard_ir", "stdout"):
        "2d590d4c9334bb21fef2e68d43286e3f845420bfa7ae280f3529a8d68fd69baf",
    ("eval_bowlr", "stdout"):
        "2c5a66ca3ca03acf373c00896d4d61655bdd1ae91fdaaf8e3c1428a57a3a87c5",
    ("eval_bowlr", "bowlr_audit.jsonl"):
        "07730013ad0c5f2212fe2decb031e99b65e0b4266aa7db5a44f112ecfaeef307",
    ("eval_bowlr", "bowlr_report.tsv"):
        "2c5a66ca3ca03acf373c00896d4d61655bdd1ae91fdaaf8e3c1428a57a3a87c5",
    ("guard_bowlr", "stdout"):
        "ad171092df74962267c28821e151331d5439b706a60295722fa2d381b4c380f9",
    ("eval_random", "stdout"):
        "f19f9aeea514364756e258dd04e25ccb266b76e43bda027a62d0e6430a188b10",
    ("eval_random", "random_audit.jsonl"):
        "45e7de3bd17b3c84d9f46acc3a4206a9051fc50a8ceeb2c80c763edd354f6ba8",
    ("eval_random", "random_report.tsv"):
        "f19f9aeea514364756e258dd04e25ccb266b76e43bda027a62d0e6430a188b10",
    ("guard_random", "stdout"):
        "f67e57488f2ff9738dd4f55999b5e51557993e4a5267c136c121a2e5df4c5190",
    ("guard_ir_unknown", "stdout"):
        "c52917e4530795f0b899aeaae422bf4b2ecaf5932e381eb3e28644d2fef5b4ea",
    ("mine_tfidf", "stdout"):
        "a5bae602698be1ccf0ca55a6435c0168caa2ec9962c3b2335c7364cad6e14683",
    ("mine_random", "mined_random.tsv"):
        "95a6d4c63c798274694e8d9fd68e3c8346c40837cd84d40c5f82be382f972748",
    ("mine_reviewed", "reviewed.tsv"):
        "31a6610061fce7738a4ebcc4fcd4040b0368578e8d8445deaedde88b4a16aa9d",
    ("probe_ngram", "stdout"):
        "9d5a15b138751c1f863bb6f5b6320e15932b6ed913024f4800a5fca0b5537eda",
    ("probe_ngram", "probes_ngram.jsonl"):
        "6bcc707ce47c868bb9adb31b59d28841667903847092722dd0ddf22cb94de05a",
}


def _classifier(kind: str) -> list[str]:
    return ["--recognizer"] if kind == "recognizer" else ["--model", f"{kind}.npz"]


def _run_matrix(root: Path) -> dict[tuple[str, str], str]:
    """Run every case with ``root`` as the working directory: the digest of
    each case's stdout, if it printed any, and of each file it wrote."""
    run, digests = numpy_free.recorder(root)
    numpy_free.run_cases(run)

    Path("corpus.txt").write_text(texts(rows("neg.tsv")[1:]), encoding="utf-8")
    for kind in KINDS:
        run(f"train_{kind}", "train", "--kind", kind, "--data", "data.tsv",
            "--out", f"{kind}.npz")
    for kind in KINDS:
        run(f"eval_{kind}", "eval", *_classifier(kind), "--data", "data.tsv",
            "--split", "all", "--out", f"{kind}_report.tsv", "--audit", f"{kind}_audit.jsonl")
        run(f"guard_{kind}", "guard", *_classifier(kind), stdin=texts(rows("data.tsv")[1:]))
    # no token of the vocabulary: row 0's label
    run("guard_ir_unknown", "guard", "--model", "ir.npz", "--text", "zzz qq")

    mine = ["mine", "--corpus", "corpus.txt", "--positives", "pos.tsv", "--n", "20"]
    run("mine_tfidf", *mine)
    run("mine_random", *mine, "--method", "random", "--out", "mined_random.tsv")
    run("mine_reviewed", *mine, "--reviewed", "--split", "train", "--out", "reviewed.tsv")
    # half of the probes are out of grammar, where n-gram scores are least sure
    run("probe_ngram", "probe", "--model", "ngram.npz", "--probes", "probes.txt",
        "--out", "probes_ngram.jsonl")
    return digests


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The directory the matrix ran in, and its digests."""
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        return root, _run_matrix(root)


def _mismatch(case: str, name: str, digest: str | None) -> str:
    return (f"case {case} wrote no {name}" if digest is None
            else f"case {case}, file {name}: sha256 is now {digest}")


@pytest.mark.parametrize("case, name", list(GOLDEN))
def test_output_keeps_its_bytes(golden_run, case, name):
    digest = golden_run[1].get((case, name))
    assert digest == GOLDEN[case, name], _mismatch(case, name, digest)


def test_every_output_is_in_the_table(golden_run):
    new = {key: digest for key, digest in golden_run[1].items() if key not in GOLDEN}
    assert not new, "\n".join(
        f"case {case}, file {name}: sha256 {digest} is not in GOLDEN"
        for (case, name), digest in new.items()
    )


@pytest.fixture(scope="module")
def numpy_blocked_run(package_env):
    """``numpy_free`` run as a script, so in a child interpreter where
    importing numpy raises: the process, and its digests by (case, file)."""
    child = subprocess.run([sys.executable, numpy_free.__file__], capture_output=True,
                           text=True, env=package_env)
    digests = dict(((case, name), digest) for case, name, digest in
                   (line.split("\t") for line in child.stdout.splitlines()))
    return child, digests


def test_numpy_free_cases_run_with_numpy_unimportable(numpy_blocked_run):
    child, digests = numpy_blocked_run
    assert child.returncode == 0, child.stderr
    assert set(digests) == set(numpy_free.GOLDEN)


@pytest.mark.parametrize("case, name", list(numpy_free.GOLDEN))
def test_output_without_numpy_keeps_its_bytes(numpy_blocked_run, case, name):
    digest = numpy_blocked_run[1].get((case, name))
    assert digest == numpy_free.GOLDEN[case, name], _mismatch(case, name, digest)


@pytest.mark.parametrize("kind", CLASSIFIERS)
def test_stdin_stream_prints_each_lines_text_decision(golden_run, kind, monkeypatch):
    """``guard`` over stdin prints the bytes of ``guard --text`` run on each
    line alone, whatever a classifier caches between lines."""
    monkeypatch.chdir(golden_run[0])
    stdin = numpy_free.STDIN_LINES + texts(rows("data.tsv")[1:])
    code, stream, _ = cli(["guard", *_classifier(kind)], stdin)
    alone = [cli(["guard", *_classifier(kind), "--text", text]) for text in stdin.split("\n")[:-1]]
    assert code == 0 and all(c == 0 for c, _, _ in alone)
    assert stream == b"".join(out for _, out, _ in alone)

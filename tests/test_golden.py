"""Every byte the CLI writes, pinned in one table.

A fixed matrix of ``main`` commands runs in an empty directory, through
generation, partitioning, training, evaluation, mining, guarding and
probing. Paths are relative, so no written byte holds the directory's name.
``GOLDEN`` maps each (case, file) to the SHA-256 of the bytes that case
wrote, its stdout included. A mismatch names the case, the file and the new
digest; a change that moves an entry on purpose names it in CHANGES.md.
"""

import hashlib
import io
import sys
from pathlib import Path

import pytest

from ruaguard.cli import main

KINDS = ("ngram", "ir", "bowlr", "random")
CLASSIFIERS = KINDS + ("recognizer",)
# a repeated line, and a line separator that is part of its line
STDIN_LINES = "".join(f"{line}\n" for line in (
    "are you a robot?", "what is the weather like", "are you a robot?", "you sound robotic",
    "are you\u2028a robot",
))

GOLDEN = {
    ("gen_pos", "pos.tsv"):
        "7f909156dcbb6e78b8e2c53cce4dc6351f0f6553223d3567be5e11861239be9f",
    ("gen_aic", "aic.tsv"):
        "df2a87783fdcaca0429ea431f44854c412ac2e9ffc77a93ebe71d2123a61c35b",
    ("gen_neg", "neg.tsv"):
        "d1038ecc44ac76ab6e8461c04f5f67e5ac366f49d6c066898b94c7a1ac143d4b",
    ("gen_plain", "stdout"):
        "ccc9a6ba79998a77bc382becef94e72b41329f7bfd7f398eb9252bbd5b734d3a",
    ("gen_no_dedup", "stdout"):
        "1aee690a0ea98de01e41554680b54e8d4ccbb4e79f081961126378aa40a5618c",
    ("split_toy_0", "stdout"):
        "ff20f18e42f93d22d962cfc1346c3f22c1786c04772962aa043f24cf6608e520",
    ("split_toy_0", "seed0/toy.manifest.tsv"):
        "30fb21e1bdad4be729bb7821b24dedcbc06bfcf839fcb732553de7bfdfcd0fb6",
    ("split_toy_0", "seed0/toy.test.cfg"):
        "051bb1199dfabc6026a5b0dc8465a9da9cec0c3665390eaacc64550c14be23f8",
    ("split_toy_0", "seed0/toy.train.cfg"):
        "051bb1199dfabc6026a5b0dc8465a9da9cec0c3665390eaacc64550c14be23f8",
    ("split_toy_0", "seed0/toy.val.cfg"):
        "051bb1199dfabc6026a5b0dc8465a9da9cec0c3665390eaacc64550c14be23f8",
    ("split_toy_1", "stdout"):
        "2f912cef06016454891031a5c5bd63908299641039b29a81ca9d3c65c8494fe4",
    ("split_toy_1", "seed1/toy.manifest.tsv"):
        "30fb21e1bdad4be729bb7821b24dedcbc06bfcf839fcb732553de7bfdfcd0fb6",
    ("split_toy_1", "seed1/toy.test.cfg"):
        "051bb1199dfabc6026a5b0dc8465a9da9cec0c3665390eaacc64550c14be23f8",
    ("split_toy_1", "seed1/toy.train.cfg"):
        "051bb1199dfabc6026a5b0dc8465a9da9cec0c3665390eaacc64550c14be23f8",
    ("split_toy_1", "seed1/toy.val.cfg"):
        "051bb1199dfabc6026a5b0dc8465a9da9cec0c3665390eaacc64550c14be23f8",
    ("split_pos_0", "stdout"):
        "e882d320d299e491b2daef066860d20d0670f1469fa72beec0935cfba2facfaf",
    ("split_pos_0", "seed0/pos.manifest.tsv"):
        "a63ccde7200e95d47f8958fe7268cb1c1a93e5244a775ecba2a147c88e90d4e1",
    ("split_pos_0", "seed0/pos.test.cfg"):
        "02eaf9466a12dece443b9e479d9dc3d1942d257bab274998d4de498ae9230186",
    ("split_pos_0", "seed0/pos.train.cfg"):
        "dc39f690c103d24d97e439395c804f40c7bcb04d0d8a31ed2a9b2f3fe37c3ca8",
    ("split_pos_0", "seed0/pos.val.cfg"):
        "0702260abd1891a33e75f032e908acf0bc463e766145f7b13d3d5ce608b2bc5b",
    ("split_pos_1", "stdout"):
        "badcca0ff8bdc4d9cc1db20197c4f89f0e1259f281ead7c0ce76c0329bba015b",
    ("split_pos_1", "seed1/pos.manifest.tsv"):
        "2c4f888df4af4ee42d75872d9547f346fdc20356db78a4013018f60fc98d9d8b",
    ("split_pos_1", "seed1/pos.test.cfg"):
        "a4d673e48e5e41fa8775b70f34b6b2fa73d59c35b353d46fa747f2bc3ed9a3dc",
    ("split_pos_1", "seed1/pos.train.cfg"):
        "e35f6d638eff60aa16e4f73d896bd5e0fe48ad4c74015b65f93328352e39c917",
    ("split_pos_1", "seed1/pos.val.cfg"):
        "400c140c749068007acd15c7c8a83232cf55989d09d8c9bd240db2de6a70d295",
    ("split_aic_0", "stdout"):
        "7efeb88143ab0f432253f7f6a1442bca7aaa22f8aeefb1e881c378c770ef66a0",
    ("split_aic_0", "seed0/aic.manifest.tsv"):
        "8db4c7e51d75886fcf785ef337a13f3c4f5c89e29cfb003b7f58553122319586",
    ("split_aic_0", "seed0/aic.test.cfg"):
        "f4252557bedc6cb9a86dd768bce11c64ff3b1ba2fc71f2ca8dc7ccc1a94d87bb",
    ("split_aic_0", "seed0/aic.train.cfg"):
        "4c5d87a50e680acd101f68ab9fe6343fcc9ea4a3039829744b426b1c2e1d2e36",
    ("split_aic_0", "seed0/aic.val.cfg"):
        "c7024e18701cc66c1e3e290c3819dc41cc1a9ce1c6b6010192cf587fccc3e806",
    ("split_aic_1", "stdout"):
        "4c2d90101ac84e0710d58b2c75b9f7a05f115aebe626d7ce8cd56880460a1989",
    ("split_aic_1", "seed1/aic.manifest.tsv"):
        "93befb87874f5902e1f7a04f431cc7121abf451056402a8e41d045fb3470613a",
    ("split_aic_1", "seed1/aic.test.cfg"):
        "40b5f49934fe0098b92469575cf11a2588566f4e8966afe1fa92f660e8762618",
    ("split_aic_1", "seed1/aic.train.cfg"):
        "74ccf433efedf4de19376d7e9518cf458139636f75ef23c73fa5e7b99b6509bf",
    ("split_aic_1", "seed1/aic.val.cfg"):
        "2bb284bf7629fbd51d3247c96b46b4964642268432d72a9e1ccc6f72135419ce",
    ("split_neg_0", "stdout"):
        "680e5ef85c14beac80c38daf8e9e8e76c866484e66a48f4698ccb8bb569d35c6",
    ("split_neg_0", "seed0/neg.manifest.tsv"):
        "c1d88a97d6e66f7d5a91e319148b0b116425d69f0f67b367bc5147cc523f1733",
    ("split_neg_0", "seed0/neg.test.cfg"):
        "64377b41beb8bf5304b1d53fe33c1cc14617b0ea3cbfd0f0fad41215034a65c9",
    ("split_neg_0", "seed0/neg.train.cfg"):
        "25484c0a802600a32fa1f5c94ef38e458298035b94d69bd09688ade37529ee93",
    ("split_neg_0", "seed0/neg.val.cfg"):
        "e5c2645dbcd5fbafdfd843f31d951238fca553f71803004cef59f3756c2114b6",
    ("split_neg_1", "stdout"):
        "6a6a07fdd18b2805212f042b50b048b19f47d3c1e868801f4804bf8646a7f778",
    ("split_neg_1", "seed1/neg.manifest.tsv"):
        "14ae493ce6ee8bf24c3c5bf509bab805f43ce4ccc3cf8fed71e33f4eb8cc9cd3",
    ("split_neg_1", "seed1/neg.test.cfg"):
        "a6b8326a7ce8576f75ea54261c95a3fffebdb67e55eb24caf8fb3f9261706450",
    ("split_neg_1", "seed1/neg.train.cfg"):
        "a89bf9e62cbc3d26e144f76446870492b55fbaa7fa32bd83f455d828ed69e476",
    ("split_neg_1", "seed1/neg.val.cfg"):
        "c23fd6042a7b348cff7aea6afd76b4677a41ee9be8aa7ca6041fd373573034ef",
    ("split_manifest", "stdout"):
        "4dc709e45657ceedd7930163dd82fe8a5da0a56975aa8b06d8e2da21bcecb1c0",
    ("split_manifest", "rebuilt/pos.manifest.tsv"):
        "a63ccde7200e95d47f8958fe7268cb1c1a93e5244a775ecba2a147c88e90d4e1",
    ("split_manifest", "rebuilt/pos.test.cfg"):
        "02eaf9466a12dece443b9e479d9dc3d1942d257bab274998d4de498ae9230186",
    ("split_manifest", "rebuilt/pos.train.cfg"):
        "dc39f690c103d24d97e439395c804f40c7bcb04d0d8a31ed2a9b2f3fe37c3ca8",
    ("split_manifest", "rebuilt/pos.val.cfg"):
        "0702260abd1891a33e75f032e908acf0bc463e766145f7b13d3d5ce608b2bc5b",
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
    ("eval_recognizer", "stdout"):
        "2c5a66ca3ca03acf373c00896d4d61655bdd1ae91fdaaf8e3c1428a57a3a87c5",
    ("eval_recognizer", "recognizer_audit.jsonl"):
        "940699f7a81038979e62a3e7557b30c9bc58e0b933963c2cb4ead3f30b4d8d8a",
    ("eval_recognizer", "recognizer_report.tsv"):
        "2c5a66ca3ca03acf373c00896d4d61655bdd1ae91fdaaf8e3c1428a57a3a87c5",
    ("guard_recognizer", "stdout"):
        "485c7c89447131f9b9eb10868f5e27f31d1597a78483d02a7938155ae2c924f0",
    ("guard_lines", "stdout"):
        "264424ac44c05b79fdad258cae014801614ba1638d57a4e7d34cb4e7f7f1b1c6",
    ("guard_text_p", "stdout"):
        "0feb8a1997fec188a0979d7319158b5e41dc28c0e00d74944aafb24dca1b940a",
    ("guard_text_a", "stdout"):
        "8337cd8bf8be9a84183d62803d16f7932417613cce4ef757407bb86ec6e3d8ab",
    ("guard_ir_unknown", "stdout"):
        "c52917e4530795f0b899aeaae422bf4b2ecaf5932e381eb3e28644d2fef5b4ea",
    ("mine_tfidf", "stdout"):
        "a5bae602698be1ccf0ca55a6435c0168caa2ec9962c3b2335c7364cad6e14683",
    ("mine_random", "mined_random.tsv"):
        "95a6d4c63c798274694e8d9fd68e3c8346c40837cd84d40c5f82be382f972748",
    ("mine_reviewed", "reviewed.tsv"):
        "31a6610061fce7738a4ebcc4fcd4040b0368578e8d8445deaedde88b4a16aa9d",
    ("probe", "stdout"):
        "94dda40ea54455c6d19f07781577988968540c71377f43c04d0a46e44e1a0f2d",
    ("probe", "probes.jsonl"):
        "06893192c399cf96cb24e5651374b4f65da983640199077a370996e1add06f42",
    ("probe_ngram", "stdout"):
        "9d5a15b138751c1f863bb6f5b6320e15932b6ed913024f4800a5fca0b5537eda",
    ("probe_ngram", "probes_ngram.jsonl"):
        "6bcc707ce47c868bb9adb31b59d28841667903847092722dd0ddf22cb94de05a",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str], stdin: str = "") -> tuple[int, bytes, str]:
    """``main(argv)`` reading ``stdin``: its exit status, stdout bytes and stderr."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n", write_through=True)
    with pytest.MonkeyPatch.context() as mp:
        # stdin as the interpreter opens it: lines end at "\n" only
        mp.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(stdin.encode("utf-8")), encoding="utf-8", newline="\n"))
        mp.setattr(sys, "stdout", stdout)
        mp.setattr(sys, "stderr", err)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _files(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): _sha256(path.read_bytes())
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _classifier(kind: str) -> list[str]:
    return ["--recognizer"] if kind == "recognizer" else ["--model", f"{kind}.npz"]


def _run_matrix(root: Path) -> dict[tuple[str, str], str]:
    """Run every case with ``root`` as the working directory: the digest of
    each case's stdout, if it printed any, and of each file it wrote."""
    digests = {}

    def run(case, *argv, stdin=""):
        before = _files(root)
        code, out, err = _cli(list(argv), stdin)
        assert (code, err) == (0, ""), f"{case}: exit {code}, stderr {err!r}"
        if out:
            digests[case, "stdout"] = _sha256(out)
        for name, digest in _files(root).items():
            if before.get(name) != digest:
                digests[case, name] = digest

    for name, n in (("pos", 80), ("aic", 20), ("neg", 100)):
        run(f"gen_{name}", "gen", "--grammar", name, "--n", str(n), "--split", "train",
            "--out", f"{name}.tsv")
    # toy's 12 strings, all drawn long before 20000 would be
    run("gen_plain", "gen", "--grammar", "toy", "--n", "20000", "--plain")
    run("gen_no_dedup", "gen", "--grammar", "toy", "--n", "30", "--no-dedup", "--plain",
        "--seed", "1")
    for name in ("toy", "pos", "aic", "neg"):
        for seed in (0, 1):
            run(f"split_{name}_{seed}", "split", "--grammar", name, "--seed", str(seed),
                "--out-dir", f"seed{seed}")
    run("split_manifest", "split", "--grammar", "pos", "--manifest", "seed0/pos.manifest.tsv",
        "--out-dir", "rebuilt")

    # one dataset of 200 rows: pos.tsv, then the rows of aic.tsv and neg.tsv
    pos, aic, neg = (_rows(f"{name}.tsv") for name in ("pos", "aic", "neg"))
    Path("data.tsv").write_text("".join(pos + aic[1:] + neg[1:]), encoding="utf-8")
    Path("corpus.txt").write_text(_texts(neg[1:]), encoding="utf-8")
    for kind in KINDS:
        run(f"train_{kind}", "train", "--kind", kind, "--data", "data.tsv",
            "--out", f"{kind}.npz")
    for kind in CLASSIFIERS:
        run(f"eval_{kind}", "eval", *_classifier(kind), "--data", "data.tsv",
            "--split", "all", "--out", f"{kind}_report.tsv", "--audit", f"{kind}_audit.jsonl")
        run(f"guard_{kind}", "guard", *_classifier(kind), stdin=_texts(_rows("data.tsv")[1:]))
    run("guard_lines", "guard", stdin=STDIN_LINES)
    run("guard_text_p", "guard", "--text", "are you a robot?")
    run("guard_text_a", "guard", "--text", "you sound robotic", "--preset", "cc_wm_p_hr",
        "--aic-policy", "clarify")
    # no token of the vocabulary: row 0's label
    run("guard_ir_unknown", "guard", "--model", "ir.npz", "--text", "zzz qq")

    mine = ["mine", "--corpus", "corpus.txt", "--positives", "pos.tsv", "--n", "20"]
    run("mine_tfidf", *mine)
    run("mine_random", *mine, "--method", "random", "--out", "mined_random.tsv")
    run("mine_reviewed", *mine, "--reviewed", "--split", "train", "--out", "reviewed.tsv")
    run("probe", "probe", "--probes", "probes.txt", "--out", "probes.jsonl")
    # half of the probes are out of grammar, where n-gram scores are least sure
    run("probe_ngram", "probe", "--model", "ngram.npz", "--probes", "probes.txt",
        "--out", "probes_ngram.jsonl")
    return digests


def _rows(path: str) -> list[str]:
    """The lines of a dataset file, its header first."""
    return Path(path).read_text(encoding="utf-8").splitlines(keepends=True)


def _texts(rows: list[str]) -> str:
    """The text field of each dataset row, one per line."""
    return "".join(row.split("\t")[0] + "\n" for row in rows)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The directory the matrix ran in, and its digests."""
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        return root, _run_matrix(root)


@pytest.mark.parametrize("case, name", list(GOLDEN))
def test_output_keeps_its_bytes(golden_run, case, name):
    digest = golden_run[1].get((case, name))
    assert digest == GOLDEN[case, name], (
        f"case {case} wrote no {name}" if digest is None
        else f"case {case}, file {name}: sha256 is now {digest}"
    )


def test_every_output_is_in_the_table(golden_run):
    new = {key: digest for key, digest in golden_run[1].items() if key not in GOLDEN}
    assert not new, "\n".join(
        f"case {case}, file {name}: sha256 {digest} is not in GOLDEN"
        for (case, name), digest in new.items()
    )


@pytest.mark.parametrize("kind", CLASSIFIERS)
def test_stdin_stream_prints_each_lines_text_decision(golden_run, kind, monkeypatch):
    """``guard`` over stdin prints the bytes of ``guard --text`` run on each
    line alone, whatever a classifier caches between lines."""
    monkeypatch.chdir(golden_run[0])
    stdin = STDIN_LINES + _texts(_rows("data.tsv")[1:])
    code, stream, _ = _cli(["guard", *_classifier(kind)], stdin)
    alone = [_cli(["guard", *_classifier(kind), "--text", text]) for text in stdin.split("\n")[:-1]]
    assert code == 0 and all(c == 0 for c, _, _ in alone)
    assert stream == b"".join(out for _, out, _ in alone)

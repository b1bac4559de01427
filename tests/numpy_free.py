"""The golden matrix's cases that need no numpy, and their pinned bytes.

``gen``, ``split``, ``guard`` and ``probe`` without ``--model``, and ``eval
--recognizer``, load no numpy, so a dialog system that embeds only the
recognizer and the guard does not pay for it. This module holds those cases
of ``test_golden``'s matrix and, in ``GOLDEN``, the SHA-256 of each file and
stdout they write. It imports neither numpy nor pytest. ``test_golden`` runs
the cases in process first, since its numpy cases read their files, and once
more through this file as a script in a child interpreter, comparing each
digest with its ``GOLDEN`` entry.

Run as a script, it makes ``import numpy`` raise before anything imports
``ruaguard``, imports ``ruaguard`` and each module of ``RECOGNIZER_PATH``
(plus ``features`` and ``evaluation``), runs the cases in a temporary
directory and prints one ``case<TAB>file<TAB>sha256`` line per output,
sorted. Any interpreter that can import ``ruaguard`` can run it, without
numpy or pytest, and its output ``cmp``s equal to any other's:

    export PYTHONPATH=src
    cmp <(python tests/numpy_free.py) <(python3.13 tests/numpy_free.py)
"""

import hashlib
import importlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # before anything imports ruaguard: a numpy import on this path raises
    sys.modules["numpy"] = None

from ruaguard.cli import main  # noqa: E402

# Modules a program that embeds only the recognizer or the guard imports;
# features and evaluation load numpy only to build TF-IDF features.
RECOGNIZER_PATH = (
    "recognizer", "guard", "grammar", "partition", "generation",
    "matching", "dataset", "text", "hashing", "errors",
)
# a repeated line, and a line separator that is part of its line
STDIN_LINES = "".join(f"{line}\n" for line in (
    "are you a robot?", "what is the weather like", "are you a robot?", "you sound robotic",
    "are you\u2028a robot",
))

# (case, file) -> SHA-256 of what the case wrote; test_golden.GOLDEN holds
# these and the numpy cases' entries
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
    ("probe", "stdout"):
        "94dda40ea54455c6d19f07781577988968540c71377f43c04d0a46e44e1a0f2d",
    ("probe", "probes.jsonl"):
        "06893192c399cf96cb24e5651374b4f65da983640199077a370996e1add06f42",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli(argv: list[str], stdin: str = "") -> tuple[int, bytes, str]:
    """``main(argv)`` reading ``stdin``: its exit status, stdout bytes and stderr."""
    out, err = io.BytesIO(), io.StringIO()
    # stdin as the interpreter opens it: lines end at "\n" only
    streams = (
        io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")), encoding="utf-8", newline="\n"),
        io.TextIOWrapper(out, encoding="utf-8", newline="\n", write_through=True),
        err,
    )
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = streams
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    # read while ``streams`` holds the wrapper, which closes ``out`` when dropped
    return code, out.getvalue(), err.getvalue()


def _files(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): sha256(path.read_bytes())
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def recorder(root: Path):
    """``(run, digests)``: ``run(case, *argv, stdin="")`` runs one case with
    ``root`` as the working directory and keeps, in ``digests``, the digest
    of its stdout, if it printed any, and of each file it wrote."""
    digests: dict[tuple[str, str], str] = {}

    def run(case, *argv, stdin=""):
        before = _files(root)
        code, out, err = cli(list(argv), stdin)
        if (code, err) != (0, ""):
            raise AssertionError(f"{case}: exit {code}, stderr {err!r}")
        if out:
            digests[case, "stdout"] = sha256(out)
        for name, digest in _files(root).items():
            if before.get(name) != digest:
                digests[case, name] = digest

    return run, digests


def rows(path: str) -> list[str]:
    """The lines of a dataset file, its header first."""
    return Path(path).read_text(encoding="utf-8").splitlines(keepends=True)


def texts(lines: list[str]) -> str:
    """The text field of each dataset row, one per line."""
    return "".join(line.split("\t")[0] + "\n" for line in lines)


def run_cases(run) -> None:
    """Run the numpy-free cases through ``run``, as ``recorder`` makes it.
    They leave ``pos.tsv``, ``aic.tsv``, ``neg.tsv`` and ``data.tsv`` (the
    200 rows of all three) for the cases that train on them."""
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
    pos, aic, neg = (rows(f"{name}.tsv") for name in ("pos", "aic", "neg"))
    Path("data.tsv").write_text("".join(pos + aic[1:] + neg[1:]), encoding="utf-8")
    run("eval_recognizer", "eval", "--recognizer", "--data", "data.tsv", "--split", "all",
        "--out", "recognizer_report.tsv", "--audit", "recognizer_audit.jsonl")
    run("guard_recognizer", "guard", "--recognizer", stdin=texts(rows("data.tsv")[1:]))
    run("guard_lines", "guard", stdin=STDIN_LINES)
    run("guard_text_p", "guard", "--text", "are you a robot?")
    run("guard_text_a", "guard", "--text", "you sound robotic", "--preset", "cc_wm_p_hr",
        "--aic-policy", "clarify")
    run("probe", "probe", "--probes", "probes.txt", "--out", "probes.jsonl")


def _main() -> None:
    import ruaguard

    for name in RECOGNIZER_PATH + ("features", "evaluation"):
        importlib.import_module(f"ruaguard.{name}")
        # a package attribute of the same name would shadow the submodule
        if not inspect.ismodule(getattr(ruaguard, name)):
            raise SystemExit(f"ruaguard.{name} is not a module")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            run, digests = recorder(Path(root))
            run_cases(run)
        finally:
            os.chdir(home)
    for (case, name), digest in sorted(digests.items()):
        print(f"{case}\t{name}\t{digest}")


if __name__ == "__main__":
    _main()

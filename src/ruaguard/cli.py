"""Command line surface: gen, split, train, eval, mine, guard, probe.

Every command is deterministic given its flags plus ``--seed``; re-running
with the same arguments produces byte-identical output files. The numpy-backed
``classifiers`` module is imported only by the commands that use it, and
``evaluation`` loads numpy only to mine, so ``gen``, ``split``, ``guard``,
``probe`` and ``eval`` never load numpy unless given ``--model``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import io
import json
import sys
from pathlib import Path
from typing import Iterator

from .dataset import (
    SPLIT_VALUES,
    Label,
    LabeledUtterance,
    filter_split,
    format_dataset,
    parse_dataset,
    read_dataset,
)
from .errors import DatasetFormatError, InvalidInputError, RuaGuardError
from .generation import sample
from .grammar import load_grammar, serialize_grammar
from .guard import (
    AIC_POLICIES,
    RESPONSE_PRESETS,
    decision_to_json,
    guard as run_guard,
    load_guard_config,
)
from .partition import SPLITS, PartitionConfig, format_manifest, load_partition, partition
from .recognizer import RecognizerModel
from .text import parse_file, parse_key_values, read_text, split_lines, stream_lines

# per kind of input, each bare name and the file it names under --data-dir
_PACKAGED = {
    "grammar": {name: f"{name}.cfg" for name in ("toy", "pos", "aic", "neg")},
    "probes": {"probes.txt": "probes.txt"},
}
# the most bytes one read of stdin takes; a read returns what has arrived
_STDIN_CHUNK = 2**16


def _resolve(what: str, name_or_path: str, args) -> Path:
    """An existing path first, then a bare name's packaged file under
    --data-dir; anything else is refused, naming the input."""
    path, packaged = Path(name_or_path), _PACKAGED[what]
    if not path.exists() and name_or_path in packaged:
        data_dir = args.data_dir or importlib.resources.files("ruaguard").joinpath("data")
        path = Path(str(data_dir), packaged[name_or_path])
    if path.exists():
        return path
    raise InvalidInputError(
        f"{what} {name_or_path!r} is neither a file nor one of {', '.join(packaged)}"
    )


def _infer_label(grammar_arg: str) -> Label:
    stem = Path(grammar_arg).name.split(".")[0].lower()
    if stem.startswith("aic"):
        return Label.AIC
    if stem.startswith("neg"):
        return Label.NEG
    return Label.POS


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _fractions(value: str) -> tuple[float, float, float]:
    parts = [float(p) for p in value.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return tuple(parts)


# ---------------------------------------------------------------------------
# Commands


def cmd_gen(args) -> int:
    path = _resolve("grammar", args.grammar, args)
    grammar = load_grammar(path)
    label = Label(args.label) if args.label else _infer_label(args.grammar)
    batch = sample(grammar, args.n, args.seed, dedup=not args.no_dedup)
    if args.plain:
        _write_text(args.out, "".join(f"{u}\n" for u in batch.utterances))
        return 0
    rows = []
    for text in batch.utterances:
        try:
            rows.append(LabeledUtterance(text, label, split=args.split, source="grammar"))
        except InvalidInputError:  # the one a row refuses: a blank text
            raise InvalidInputError(f"{path} derives a blank utterance {text!r}") from None
    _write_text(args.out, format_dataset(rows))
    return 0


def cmd_split(args) -> int:
    path = _resolve("grammar", args.grammar, args)
    out_dir = Path(args.out_dir)
    stem = path.name.split(".")[0]
    targets = {split: out_dir / f"{stem}.{split}.cfg" for split in SPLITS}
    manifest_path = out_dir / f"{stem}.manifest.tsv"
    inputs = [path, Path(args.manifest)] if args.manifest else [path]
    for target in (*targets.values(), manifest_path):
        for source in inputs:
            # a missing source is left for its reader to refuse
            if target.exists() and source.exists() and target.samefile(source):
                raise InvalidInputError(f"split would overwrite its input {source}")
    grammar = load_grammar(path)
    if args.manifest:
        parts = parse_file(args.manifest, lambda text: load_partition(grammar, text))
    else:
        cfg = PartitionConfig(
            p=args.p,
            split_fractions=args.fractions,
            min_alternatives_to_split=args.min_alternatives,
            seed=args.seed,
        )
        parts = partition(grammar, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    for split, target in targets.items():
        target.write_text(serialize_grammar(parts.sub_grammars[split]), encoding="utf-8")
        print(target)
    manifest_path.write_text(format_manifest(parts), encoding="utf-8")
    print(manifest_path)
    return 0


def cmd_train(args) -> int:
    from .classifiers import (
        NgramParams,
        fit_ir,
        fit_random_guess,
        save_model,
        train_bow_lr,
        train_ngram_linear,
    )

    if args.kind != "ngram" and (args.epochs is not None or args.lr is not None):
        raise InvalidInputError(f"--epochs and --lr apply to --kind ngram, not {args.kind}")
    rows = read_dataset(args.data)
    train_rows = filter_split(rows, "train")
    if args.kind == "bowlr":
        model = train_bow_lr(train_rows)
    elif args.kind == "ir":
        model = fit_ir(train_rows)
    elif args.kind == "ngram":
        schedule = {"epochs": args.epochs, "learning_rate": args.lr}
        hp = NgramParams(**{k: v for k, v in schedule.items() if v is not None})
        model = train_ngram_linear(train_rows, hp, seed=args.seed)
    else:
        model = fit_random_guess(train_rows, seed=args.seed)
    save_model(model, args.out)
    print(f"{args.kind}\t{len(train_rows)} train rows\t{args.out}")
    return 0


def _load_classifier(args, default_recognizer: bool):
    if args.model and args.recognizer:
        raise InvalidInputError("pass --model PATH or --recognizer, not both")
    if args.model:
        from .classifiers import load_model

        return load_model(args.model)
    if args.recognizer or default_recognizer:
        return RecognizerModel(
            load_grammar(_resolve("grammar", args.pos, args)),
            load_grammar(_resolve("grammar", args.aic, args)),
        )
    raise InvalidInputError("pass --model PATH or --recognizer")


def cmd_eval(args) -> int:
    from .evaluation import evaluate, format_report, report_audit_json

    classifier = _load_classifier(args, default_recognizer=False)
    rows = read_dataset(args.data)
    subset = rows if args.split == "all" else filter_split(rows, args.split)
    if not subset:
        raise InvalidInputError(f"no rows with split {args.split!r} in {args.data}")
    report = evaluate(classifier, subset)
    table = format_report(report)
    sys.stdout.write(table)
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
    if args.audit:
        line = report_audit_json(
            report, data=str(args.data), split=args.split,
            model=str(args.model or "recognizer"),
        )
        with open(args.audit, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    return 0


def _nonblank_lines(text: str) -> list[str]:
    """The lines of ``text`` as ``split_lines`` splits it, blank ones dropped."""
    return [line for line in split_lines(text) if line.strip()]


def _positive_texts(text: str) -> list[str]:
    try:
        rows = parse_dataset(text)
    except DatasetFormatError as exc:
        # no dataset header: a plain list of utterances, one per line
        if exc.line != 1:
            raise
        return _nonblank_lines(text)
    return [row.text for row in rows if row.label is Label.POS]


def cmd_mine(args) -> int:
    from .evaluation import format_mined_candidates, mine_negatives, mined_to_rows

    corpus = _nonblank_lines(read_text(args.corpus))
    method = "tfidf_weighted" if args.method == "tfidf" else "random"
    mined = mine_negatives(
        corpus,
        parse_file(args.positives, _positive_texts),
        args.n,
        method=method,
        seed=args.seed,
        corpus_name=args.corpus_name or Path(args.corpus).name,
    )
    if args.reviewed:
        _write_text(args.out, format_dataset(mined_to_rows(mined, split=args.split)))
    else:
        _write_text(args.out, format_mined_candidates(mined))
    return 0


def cmd_guard(args) -> int:
    classifier = _load_classifier(args, default_recognizer=True)
    if args.guard_config:
        cfg = load_guard_config(args.guard_config)
    else:
        cfg = RESPONSE_PRESETS[args.preset]
    if args.aic_policy:
        cfg = dataclasses.replace(cfg, aic_policy=args.aic_policy)
    lines = [args.text] if args.text is not None else _stdin_lines()
    for line in lines:
        decision = run_guard(line, classifier, cfg)
        print(decision_to_json(decision, text=line), flush=True)
    return 0


def _stdin_lines() -> Iterator[str]:
    """stdin's lines as ``split_lines`` gives them, each as soon as its line
    end arrives; ``decode_utf8`` refuses one as it refuses a file."""
    stdin = sys.stdin
    if stdin.encoding not in (None, "utf-8"):  # None: a StringIO
        # read from before main, so _utf8_stdio could not change it
        raise InvalidInputError(f"stdin is read as {stdin.encoding}, not UTF-8")
    try:
        # refused by a stream read from before, which may hold text decoded
        # ahead of its bytes
        stdin.reconfigure(errors="surrogateescape")
        chunks = iter(lambda: stdin.buffer.read1(_STDIN_CHUNK), b"")
    except (AttributeError, io.UnsupportedOperation):
        # a StringIO, or a stream read from before main: its reads end at "\n"
        chunks = (read.encode("utf-8", "surrogateescape") for read in stdin)
    lineno = 0
    try:
        for lineno, line in enumerate(stream_lines(chunks, "stdin"), start=1):
            yield line
    except UnicodeDecodeError:  # a strict UTF-8 stdin read from before main
        raise InvalidInputError(f"stdin is not UTF-8 after line {lineno}") from None


def cmd_probe(args) -> int:
    from .evaluation import probe_recall

    classifier = _load_classifier(args, default_recognizer=True)
    probes = _nonblank_lines(read_text(_resolve("probes", args.probes, args)))
    report = probe_recall(classifier, probes)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for text, label, detected in report.verdicts:
                fh.write(
                    json.dumps(
                        {"text": text, "label": label, "detected": detected},
                        sort_keys=True,
                    )
                    + "\n"
                )
    print(f"recall\t{report.fraction:.3f}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruaguard",
        description="Grammar-driven tooling for the are-you-a-robot intent.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="master seed; sub-seeds are derived per stage")
    common.add_argument("--config", default=None,
                        help="key=value file with defaults for seed and data_dir")
    common.add_argument("--data-dir", default=None,
                        help="directory that bare grammar and probe names resolve in")
    classifier = argparse.ArgumentParser(add_help=False)
    classifier.add_argument("--model", default=None, help="trained model file")
    classifier.add_argument("--recognizer", action="store_true",
                            help="use the grammar recognizer instead of a model file")
    classifier.add_argument("--pos", default="pos", help="positive grammar (name or path)")
    classifier.add_argument("--aic", default="aic", help="ambiguous grammar (name or path)")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", parents=[common],
                              help="sample utterances from a grammar")
    gen.add_argument("--grammar", required=True)
    gen.add_argument("--n", type=_positive_int, required=True)
    gen.add_argument("--label", choices=[l.value for l in Label], default=None,
                     help="override the label inferred from the grammar name")
    gen.add_argument("--split", choices=SPLIT_VALUES, default="none")
    gen.add_argument("--no-dedup", action="store_true",
                     help="keep duplicate samples instead of rejecting them")
    gen.add_argument("--plain", action="store_true",
                     help="write bare utterances, one per line, instead of TSV")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    split = commands.add_parser("split", parents=[common],
                                help="partition a grammar into train/val/test")
    split.add_argument("--grammar", required=True)
    split.add_argument("--p", type=float, default=0.25,
                       help="shared probability mass per splittable rule")
    split.add_argument("--fractions", type=_fractions, default=(0.70, 0.15, 0.15))
    split.add_argument("--min-alternatives", type=int, default=4)
    split.add_argument("--manifest", default=None,
                       help="rebuild from an existing manifest instead of splitting")
    split.add_argument("--out-dir", default=".")
    split.set_defaults(func=cmd_split)

    train = commands.add_parser("train", parents=[common],
                                help="fit a classifier on the train split")
    train.add_argument("--kind", choices=("bowlr", "ir", "ngram", "random"),
                       required=True)
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--epochs", type=int, default=None, help="n-gram epochs")
    train.add_argument("--lr", type=float, default=None, help="n-gram learning rate")
    train.set_defaults(func=cmd_train)

    evl = commands.add_parser("eval", parents=[common, classifier],
                              help="score a classifier on a dataset split")
    evl.add_argument("--data", required=True)
    evl.add_argument("--split", choices=SPLIT_VALUES + ("all",), default="test")
    evl.add_argument("--out", default=None, help="also write the report TSV here")
    evl.add_argument("--audit", default=None, help="append a JSON audit line here")
    evl.set_defaults(func=cmd_eval)

    mine = commands.add_parser("mine", parents=[common],
                               help="pick hard negative candidates from a corpus")
    mine.add_argument("--corpus", required=True)
    mine.add_argument("--positives", required=True,
                      help="dataset TSV or plain text file of positive utterances")
    mine.add_argument("--n", type=_positive_int, required=True)
    mine.add_argument("--method", choices=("tfidf", "random"), default="tfidf")
    mine.add_argument("--corpus-name", default=None)
    mine.add_argument("--reviewed", action="store_true",
                      help="emit dataset rows labeled n instead of a triage sheet")
    mine.add_argument("--split", choices=SPLIT_VALUES, default="none",
                      help="split tag for --reviewed rows")
    mine.add_argument("--out", default=None)
    mine.set_defaults(func=cmd_mine)

    grd = commands.add_parser("guard", parents=[common, classifier],
                              help="decide disclosure responses for utterances")
    grd.add_argument("--text", default=None,
                     help="single utterance; omit to read lines from stdin")
    grd.add_argument("--guard-config", default=None,
                     help="key=value disclosure config file")
    grd.add_argument("--preset", choices=sorted(RESPONSE_PRESETS), default="cc",
                     help="named response wording when no config file is given")
    grd.add_argument("--aic-policy", choices=AIC_POLICIES, default=None)
    grd.set_defaults(func=cmd_guard)

    probe = commands.add_parser("probe", parents=[common, classifier],
                                help="measure detection recall on probe phrasings")
    probe.add_argument("--probes", required=True)
    probe.add_argument("--out", default=None, help="write per-probe JSON lines here")
    probe.set_defaults(func=cmd_probe)
    return parser


_CONFIG_KEYS = ("seed", "data_dir")


def _apply_config(args) -> None:
    values: dict[str, str] = {}
    if args.config:
        values = parse_key_values(read_text(args.config), _CONFIG_KEYS, "config")
    if args.seed is None:
        seed = values.get("seed", "0")
        try:
            args.seed = int(seed)
        except ValueError:
            raise InvalidInputError(f"config seed must be an integer, got {seed!r}") from None
    if args.data_dir is None and "data_dir" in values:
        args.data_dir = values["data_dir"]


def _utf8_stdio() -> None:
    """Read stdin and write stdout as UTF-8, as every file is, whatever the
    locale. stdin reads a byte that is not UTF-8 as a lone surrogate, so that
    a chunk of input decodes whole, and ``_stdin_lines`` refuses the line that
    holds it. stdout keeps its error handler: under the C locale a path that
    holds undecodable bytes still prints as those bytes."""
    for stream, stdin in ((sys.stdin, True), (sys.stdout, False)):
        if not hasattr(stream, "reconfigure"):
            continue  # a stand-in stream, such as a StringIO
        errors = "surrogateescape" if stdin else stream.errors
        try:
            stream.reconfigure(encoding="utf-8", errors=errors)
        except io.UnsupportedOperation:
            # stdin read from before main keeps its encoding: _stdin_lines checks it
            pass


def main(argv=None) -> int:
    _utf8_stdio()
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except (RuaGuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

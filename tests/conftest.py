import importlib.resources
import os
import warnings
from pathlib import Path

import pytest

import ruaguard
from ruaguard.dataset import Label, LabeledUtterance
from ruaguard.grammar import Grammar, load_grammar, parse_grammar
from ruaguard.hashing import derive_seed
from ruaguard.partition import PartitionConfig, emit_split_datasets, partition

DATA = importlib.resources.files("ruaguard").joinpath("data")

TOY_TEXT = (DATA / "toy.cfg").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def package_env():
    """Environment under which a child interpreter imports this ruaguard."""
    src = str(Path(ruaguard.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def toy() -> Grammar:
    return parse_grammar(TOY_TEXT)


@pytest.fixture(scope="session")
def pos() -> Grammar:
    return load_grammar(str(DATA / "pos.cfg"))


@pytest.fixture(scope="session")
def aic() -> Grammar:
    return load_grammar(str(DATA / "aic.cfg"))


@pytest.fixture(scope="session")
def neg() -> Grammar:
    return load_grammar(str(DATA / "neg.cfg"))


STANDARD_COUNTS = {
    Label.POS: (1904, 408, 408),
    Label.AIC: (476, 102, 102),
    Label.NEG: (2380, 510, 510),
}


@pytest.fixture(scope="session")
def standard_dataset(pos, aic, neg):
    """Per-split labeled rows at the standard 4760/1020/1020 sizes (partition
    seed 0, dataset seed 0). A split that falls short fails every test that
    uses them."""
    grammars = {Label.POS: pos, Label.AIC: aic, Label.NEG: neg}
    rows = {"train": [], "val": [], "test": []}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label, grammar in grammars.items():
            parts = partition(grammar, PartitionConfig(seed=0))
            batches = emit_split_datasets(
                parts, STANDARD_COUNTS[label], derive_seed(0, f"standard:{label.value}")
            )
            for split, batch in batches.items():
                rows[split].extend(
                    LabeledUtterance(text, label, split=split) for text in batch.utterances
                )
    return rows


def pytest_terminal_summary(terminalreporter):
    # one pass/fail line per acceptance criterion, shown after the test run
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)

import importlib.resources
import os
from pathlib import Path

import pytest

import ruaguard
from ruaguard.grammar import Grammar, load_grammar, parse_grammar

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

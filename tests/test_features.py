import math
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruaguard import features
from ruaguard.errors import InvalidInputError
from ruaguard.features import best_rows, fit_tfidf, tokenize, vectorize_many
from ruaguard.text import normalize

from tfidf_oracle import TfIdfVector, vectorize


class TestTokenize:
    def test_punctuation_detached(self):
        assert tokenize("are you a robot?") == ["are", "you", "a", "robot", "?"]

    def test_eleven_token_reference_sentence(self):
        tokens = tokenize("yes, I am a people person. Do you?")
        assert tokens == [
            "yes", ",", "i", "am", "a", "people", "person", ".", "do", "you", "?",
        ]
        assert len(tokens) == 11

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   ") == []

    def test_apostrophes_kept_inside_tokens(self):
        assert tokenize("you're a bot") == ["you're", "a", "bot"]

    def test_normalization_applied_first(self):
        assert tokenize("ARE   You") == ["are", "you"]


# The regex the tokenizer once was, the oracle ``tokenize`` is checked against.
_PUNCTUATION_FIRST_RE = re.compile(r"[?.!,]|[^\s?.!,]+")


def tokenize_after_normalize(text: str) -> list[str]:
    """The two-step definition ``tokenize`` takes in one pass: normalize, then
    take each mark alone and each run of non-space, non-mark characters."""
    return _PUNCTUATION_FIRST_RE.findall(normalize(text))


# Characters where lowercasing or whitespace is unusual, mixed into random text.
_AWKWARD = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2028\u2029\u3000?.!,ΣσςİIıẞ\u0307\udcff"


class TestTokenizeIsNormalizeThenSplit:
    @given(st.text(st.one_of(
        st.characters(exclude_categories=()), st.sampled_from(_AWKWARD)
    )))
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, text):
        assert tokenize(text) == tokenize_after_normalize(text)

    @pytest.mark.parametrize("text", [
        "ΟΔΟΣ ΟΔΟΣ",  # final sigma depends on what follows
        "ΟΔΟΣ\u3000ΟΔΟΣ?",
        "İ",  # lowercases to two code points
        "İSTANBUL, İ.",
        "are\xa0you a\xa0robot",  # no-break space
        "are\u2028you",  # line separator
        "are\u3000you\u3000",  # ideographic space
        "\x1cone\x1dtwo\x1ethree\x1ffour",  # separators str.isspace() counts
        "\udcff",  # what guard reads from an undecodable stdin byte
        "caf\udcff?",
        " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000",  # whitespace only
        "",
    ])
    def test_named_cases(self, text):
        assert tokenize(text) == tokenize_after_normalize(text)

    # Every code point, so each whitespace and lowercasing rule of this
    # interpreter's Unicode tables is met beside a letter, a space, a mark, a
    # letter whose lowercase depends on its neighbours, and one that
    # lowercases to two code points.
    @pytest.mark.parametrize("joiner", ["x", " ", "?", "Σ", "İ"])
    def test_every_code_point(self, joiner):
        text = joiner.join(map(chr, range(sys.maxunicode + 1)))
        assert tokenize(text) == tokenize_after_normalize(text)

    def test_named_cases_tokens(self):
        assert tokenize("ΟΔΟΣ ΟΔΟΣ") == ["οδος", "οδος"]
        assert tokenize("\x1cone\x1dtwo\x1ethree\x1ffour") == ["one", "two", "three", "four"]
        assert tokenize("caf\udcff?") == ["caf\udcff", "?"]
        assert tokenize(" \u3000\xa0\u2028 ") == []


class TestVocabulary:
    def test_document_frequencies(self):
        vocab = fit_tfidf(["a b", "b c"])
        assert vocab.document_count == 2
        assert len(vocab) == 3
        b = vocab.token_index["b"]
        a = vocab.token_index["a"]
        assert vocab.df[b] == 2
        assert vocab.df[a] == 1

    def test_idf_formula(self):
        # token in every one of 100 docs: ln(101/101)+1 = 1.0
        # token in exactly one: ln(101/2)+1
        docs = ["common rare0"] + [f"common filler{i}" for i in range(99)]
        vocab = fit_tfidf(docs)
        common = vocab.token_index["common"]
        rare = vocab.token_index["rare0"]
        assert vocab.idf[common] == pytest.approx(1.0, abs=1e-12)
        assert vocab.idf[rare] == pytest.approx(math.log(101 / 2) + 1, abs=1e-12)
        assert vocab.idf[rare] == pytest.approx(4.921973336281314, abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(
            InvalidInputError, match="^cannot fit a vocabulary on an empty corpus$"
        ):
            fit_tfidf([])


class TestVectorize:
    def test_unit_norm(self):
        vocab = fit_tfidf(["a b c", "c d", "d e f"])
        vec = vectorize(vocab, "a c d")
        assert vec.norm() == pytest.approx(1.0, abs=1e-6)

    def test_all_unknown_tokens_give_zero_vector(self):
        vocab = fit_tfidf(["a b"])
        vec = vectorize(vocab, "zzz qqq")
        assert vec.indices == ()
        assert vec.norm() == 0.0

    def test_indices_sorted_and_unique(self):
        vocab = fit_tfidf(["a b c d e"])
        vec = vectorize(vocab, "e a c a")
        assert list(vec.indices) == sorted(set(vec.indices))

    def test_term_frequency_matters(self):
        vocab = fit_tfidf(["a b", "b c"])
        heavy = vectorize(vocab, "a a a b")
        light = vectorize(vocab, "a b")
        a = vocab.token_index["a"]
        heavy_a = dict(zip(heavy.indices, heavy.values))[a]
        light_a = dict(zip(light.indices, light.values))[a]
        assert heavy_a > light_a

    def test_matrix_rows_match_single_vectors(self):
        # a hand case, and seeded random texts with repeats and unknown tokens,
        # on which a reordered float operation changes some values
        rng = random.Random(0)
        words = [f"w{i}" for i in range(40)]
        cases = [
            (["a b c", "c d", "d e"], ["a c", "zzz", "d d e"]),
            (
                [" ".join(rng.choices(words, k=rng.randint(1, 12))) for _ in range(200)],
                [" ".join(rng.choices(words + ["zzz"], k=rng.randint(0, 15))) for _ in range(200)],
            ),
        ]
        for corpus, texts in cases:
            vocab = fit_tfidf(corpus)
            matrix = vectorize_many(vocab, texts)
            assert matrix.shape == (len(texts), len(vocab))
            for i, text in enumerate(texts):
                vec = vectorize(vocab, text)
                row = matrix[i]
                assert list(np.flatnonzero(row)) == list(vec.indices)
                np.testing.assert_array_equal(row[list(vec.indices)], np.array(vec.values))

    def test_dot_products(self):
        def dot(a, b):
            lookup = dict(zip(a.indices, a.values))
            return sum(v * lookup.get(i, 0.0) for i, v in zip(b.indices, b.values))

        vocab = fit_tfidf(["a b", "c d"])
        ab = vectorize(vocab, "a b")
        cd = vectorize(vocab, "c d")
        assert dot(ab, cd) == 0.0
        assert dot(ab, ab) == pytest.approx(1.0, abs=1e-12)


def dense_oracle_row(vocab, text):
    """``tfidf_oracle.vectorize(vocab, text)`` as one dense float64 row."""
    vec = vectorize(vocab, text)
    row = np.zeros(len(vocab))
    row[list(vec.indices)] = vec.values
    return row


WORDS = ["a", "b", "c", "robot", "?", "you", "are"]


class TestVectorizeManyProperty:
    @given(
        st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8), min_size=1, max_size=6),
        # repeats, tokens outside the vocabulary, and texts with no token at all
        st.lists(st.lists(st.sampled_from(WORDS + ["zzz", "qq"]), max_size=12), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_oracle_bit_for_bit(self, corpus, texts):
        vocab = fit_tfidf([" ".join(tokens) for tokens in corpus])
        texts = [" ".join(tokens) for tokens in texts]
        matrix = vectorize_many(vocab, texts)
        assert matrix.shape == (len(texts), len(vocab)) and matrix.dtype == np.float64
        for text, row in zip(texts, matrix):
            assert row.tobytes() == dense_oracle_row(vocab, text).tobytes()


class TestBestRows:
    @given(
        st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6), min_size=1, max_size=8),
        # tokens outside the vocabulary, and queries with no token at all
        st.lists(st.lists(st.sampled_from(WORDS + ["zzz"]), max_size=6), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_query_gets_a_row_of_the_highest_product(self, rows, queries):
        rows, queries = ([" ".join(tokens) for tokens in x] for x in (rows, queries))
        vocab = fit_tfidf(rows)
        R, Q = vectorize_many(vocab, rows), vectorize_many(vocab, queries)
        best, value = best_rows(Q, R)
        for q, b, v in zip(Q, best.tolist(), value.tolist()):
            products = [math.fsum(q * r) for r in R]
            assert products[b] >= max(products) - 1e-12
            assert v == pytest.approx(products[b], abs=1e-12)
            if not q.any():  # as near every row as any other: the first wins
                assert (b, v) == (0, 0.0)

    def test_equal_rows_go_to_the_lowest_index_alone_or_in_a_batch(self):
        # the first row and the last are equal; multiplied by gemv, a lone
        # query's product with the last could come out a bit larger
        rng = random.Random(0)
        words = [f"w{i}" for i in range(300)]
        for _ in range(300):
            rows = [" ".join(rng.choices(words, k=rng.randint(3, 15))) for _ in range(60)]
            rows = rows[: rng.randint(2, 60)] + rows[:1]
            vocab = fit_tfidf(rows)
            R = vectorize_many(vocab, rows)
            queries = [" ".join(rng.sample(rows[0].split(), k=2) + rng.choices(words, k=5))
                       for _ in range(3)]
            for batch in ([queries[0]], queries):
                best, _ = best_rows(vectorize_many(vocab, batch), R)
                assert len(rows) - 1 not in best.tolist(), (len(rows), batch)

    def test_columns_leave_out_the_others(self):
        vocab = fit_tfidf(["a b", "b c"])
        R = vectorize_many(vocab, ["a b", "b c"])
        Q = vectorize_many(vocab, ["c", "c"])
        assert best_rows(Q, R)[0].tolist() == [1, 1]
        # without c, "c" shares no column with either row
        best, value = best_rows(Q, R, np.array([True, True, False]))
        assert best.tolist() == [0, 0] and value.tolist() == [0.0, 0.0]


class TestDenseSizeLimit:
    def test_past_the_limit_raises_with_the_size(self, monkeypatch):
        vocab = fit_tfidf(["a b c"])
        monkeypatch.setattr(features, "MAX_DENSE_BYTES", 2 * 3 * 8 - 1)
        with pytest.raises(InvalidInputError, match="2 texts by 3 tokens needs 48 bytes"):
            vectorize_many(vocab, ["a", "b"])

    def test_at_the_limit_builds(self, monkeypatch):
        vocab = fit_tfidf(["a b c"])
        monkeypatch.setattr(features, "MAX_DENSE_BYTES", 2 * 3 * 8)
        assert vectorize_many(vocab, ["a", "b"]).shape == (2, 3)


class TestNormProperty:
    @given(st.lists(st.sampled_from(["a", "b", "c", "robot", "?"]), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_nonzero_vectors_are_unit_norm(self, tokens):
        vocab = fit_tfidf(["a b c robot ?", "b c", "robot"])
        vec = vectorize(vocab, " ".join(tokens))
        if vec.indices:
            assert vec.norm() == pytest.approx(1.0, abs=1e-6)
        else:
            assert vec.norm() == 0.0

    def test_zero_vector_type(self):
        assert TfIdfVector((), ()).norm() == 0.0


# Modules a program that embeds only the recognizer or the guard imports;
# features and evaluation load numpy only to build TF-IDF features.
RECOGNIZER_PATH = (
    "recognizer", "guard", "grammar", "partition", "generation",
    "matching", "dataset", "text", "hashing", "errors",
)
NO_NUMPY = "'numpy' not in sys.modules and 'scipy' not in sys.modules"
# case -> (import statement, what must hold after it in a fresh interpreter);
# ismodule(m) fails where a package attribute shadows a submodule's name
IMPORT_CASES = {
    "root": ("import ruaguard as m", f"ismodule(m) and {NO_NUMPY}"),
    **{
        name: (f"import ruaguard.{name} as m", f"ismodule(m) and {NO_NUMPY}")
        for name in RECOGNIZER_PATH + ("features", "evaluation")
    },
    "classifiers": ("import ruaguard.classifiers", "'scipy' not in sys.modules"),
}

# Named when scipy was a dependency; each case checks numpy as well.
@pytest.mark.parametrize("case", sorted(IMPORT_CASES))
def test_import_leaves_scipy_unloaded(case, package_env):
    statement, check = IMPORT_CASES[case]
    code = f"import sys; from inspect import ismodule; {statement}; print({check})"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=package_env
    )
    assert out.stdout.strip() == "True"


@pytest.mark.parametrize("argv", [
    ["guard", "--text", "are you a robot?"],
    ["gen", "--grammar", "toy", "--n", "1"],
    ["probe", "--probes", "probes.txt"],
    ["eval", "--recognizer", "--data", "data.tsv", "--split", "all"],
], ids=["guard", "gen", "probe", "eval_recognizer"])
def test_command_without_a_model_leaves_numpy_unloaded(argv, package_env, tmp_path):
    (tmp_path / "data.tsv").write_text(
        "text\tlabel\tsplit\tsource\nare you a robot\tp\ttest\tgrammar\n"
        "do you like pizza\tn\ttest\tgrammar\n",
        encoding="utf-8",
    )
    code = f"import sys; from ruaguard.cli import main; assert main({argv!r}) == 0; print({NO_NUMPY})"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=package_env, cwd=tmp_path,
    )
    assert out.stdout.splitlines()[-1] == "True"


def test_readme_library_block_runs(package_env):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library\n"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    code = block[: block.index("```")] + f"import sys; assert {NO_NUMPY}\n"
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True, env=package_env)

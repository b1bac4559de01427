import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruaguard.dataset import (
    CLASS_ORDER,
    Label,
    LabeledUtterance,
    filter_split,
    format_dataset,
    label_distribution,
    one_hot_prediction,
    parse_dataset,
    prediction_from_scores,
    read_dataset,
)
from ruaguard.errors import DatasetFormatError, InvalidInputError


def _rows():
    return [
        LabeledUtterance("are you a robot", Label.POS, "train", "grammar"),
        LabeledUtterance("you sound robotic", Label.AIC, "val", "grammar"),
        LabeledUtterance("do you like pizza", Label.NEG, "test", "corpus.txt"),
        LabeledUtterance("is this a bot", Label.POS, "none", "probe"),
    ]


# Every character str.splitlines() breaks at but "\n" and "\r", which a
# cell never holds: a dataset row keeps them.
LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class TestRows:
    def test_class_order(self):
        assert CLASS_ORDER == (Label.POS, Label.AIC, Label.NEG)
        assert [l.value for l in CLASS_ORDER] == ["p", "a", "n"]

    def test_tabs_and_newlines_flattened(self):
        row = LabeledUtterance("a\tb\nc\rd", Label.POS)
        assert row.text == "a b c d"

    def test_blank_text_rejected(self):
        with pytest.raises(InvalidInputError, match="^utterance text is empty$"):
            LabeledUtterance("  \t ", Label.POS)

    def test_label_coerced_from_string(self):
        assert LabeledUtterance("x", "p").label is Label.POS

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError):
            LabeledUtterance("x", Label.POS, split="dev")


class TestSerialization:
    def test_round_trip_is_byte_identical(self):
        text = format_dataset(_rows())
        assert format_dataset(parse_dataset(text)) == text

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text(format_dataset(_rows()), encoding="utf-8")
        assert read_dataset(path) == _rows()
        assert format_dataset(read_dataset(path)).encode("utf-8") == path.read_bytes()

    @given(
        st.lists(
            st.builds(
                LabeledUtterance,
                st.text(st.sampled_from(LINE_BREAKS + "\r\n\t a") | st.characters())
                .filter(str.strip),
                st.sampled_from(CLASS_ORDER),
                st.sampled_from(["train", "none"]),
                st.text(st.sampled_from(LINE_BREAKS + "a.")),
            ),
            max_size=6,
        )
    )
    def test_write_then_read_round_trips(self, rows):
        text = format_dataset(rows)
        assert parse_dataset(text) == rows
        assert parse_dataset(text.replace("\n", "\r\n")) == rows
        assert parse_dataset(text.replace("\n", "\r")) == rows

    def test_line_breaks_are_every_other_splitlines_boundary(self):
        breaks = [c for c in map(chr, range(0x3000)) if len(f"a{c}b".splitlines()) == 2]
        assert sorted(LINE_BREAKS + "\r\n") == breaks

    def test_header_required(self):
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset("are you a robot\tp\ttrain\tgrammar\n")
        assert err.value.line == 1

    def test_column_count_enforced_with_line_number(self):
        text = "text\tlabel\tsplit\tsource\nx\tp\ttrain\n"
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(text)
        assert err.value.line == 2

    def test_unknown_label_rejected(self):
        text = "text\tlabel\tsplit\tsource\nx\tq\ttrain\tgrammar\n"
        with pytest.raises(DatasetFormatError):
            parse_dataset(text)

    def test_unknown_split_rejected(self):
        text = "text\tlabel\tsplit\tsource\nx\tp\tdev\tgrammar\n"
        with pytest.raises(DatasetFormatError):
            parse_dataset(text)

    def test_addtest_split_accepted(self):
        text = "text\tlabel\tsplit\tsource\nx\tp\taddtest\tgrammar\n"
        assert parse_dataset(text)[0].split == "addtest"


class TestHelpers:
    def test_filter_split(self):
        rows = _rows()
        assert filter_split(rows, "train") == [rows[0]]
        assert filter_split(rows, "addtest") == []
        with pytest.raises(ValueError):
            filter_split(rows, "dev")

    def test_label_distribution(self):
        dist = label_distribution(_rows())
        assert dist[Label.POS] == 0.5
        assert dist[Label.AIC] == 0.25
        assert dist[Label.NEG] == 0.25

    def test_prediction_from_scores_argmax(self):
        pred = prediction_from_scores("x", (0.1, 0.2, 0.7))
        assert pred.label is Label.NEG
        assert pred.scores == (0.1, 0.2, 0.7)

    def test_prediction_tie_breaks_by_class_order(self):
        assert prediction_from_scores("x", (0.4, 0.4, 0.2)).label is Label.POS
        assert prediction_from_scores("x", (0.2, 0.4, 0.4)).label is Label.AIC

    def test_one_hot_prediction(self):
        pred = one_hot_prediction("x", Label.AIC)
        assert pred.scores == (0.0, 1.0, 0.0)
        assert pred.label is Label.AIC

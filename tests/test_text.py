"""The UTF-8 reader, the line rule and the headered TSV that every
line-based file shares."""

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ruaguard.dataset import parse_dataset
from ruaguard.errors import DatasetFormatError, GrammarError, InvalidInputError
from ruaguard.grammar import parse_grammar
from ruaguard.partition import load_partition
from ruaguard.text import parse_file, parse_key_values, read_text, split_lines, stream_lines
from test_dataset import LINE_BREAKS

# a line: any text without "\n" or "\r", often the breaks a line keeps
_LINE = st.text(st.sampled_from(LINE_BREAKS + "\t a") | st.characters(exclude_characters="\r\n"))
# a line that UTF-8 can encode: no lone surrogate, which a file cannot hold
_UTF8_LINE = st.text(
    st.sampled_from(LINE_BREAKS + "\t a") | st.characters(codec="utf-8", exclude_characters="\r\n")
)


class TestSplitLines:
    @given(st.lists(_LINE), st.sampled_from(["\n", "\r\n", "\r"]))
    def test_lines_joined_by_a_line_end_read_back(self, lines, end):
        assert split_lines("".join(line + end for line in lines)) == lines
        if lines and lines[-1]:
            assert split_lines(end.join(lines)) == lines

    def test_only_line_feeds_and_carriage_returns_end_a_line(self):
        text = f"a{LINE_BREAKS}b\r\nc\rd\n\ne"
        assert split_lines(text) == [f"a{LINE_BREAKS}b", "c", "d", "", "e"]
        assert split_lines("") == []
        assert split_lines("\n") == [""]

    @given(st.text(st.sampled_from("\r\n\u2028aé")), st.lists(st.integers(0, 40)))
    @example("a\r\nb\r\n", [2, 5])
    def test_a_stream_in_any_chunks_reads_as_its_whole_text(self, text, cuts):
        data = text.encode("utf-8")
        cuts = sorted({0, len(data), *(cut % (len(data) + 1) for cut in cuts)})
        chunks = [data[a:b] for a, b in zip(cuts, cuts[1:])]
        assert list(stream_lines(chunks, "stdin")) == split_lines(text)

    def test_a_stream_line_ended_by_a_carriage_return_is_yielded_before_the_next_chunk(self):
        def chunks():
            yield b"are you a robot\r"
            assert seen == ["are you a robot"]
            yield b"\nhow are you\r"
            yield b"\r\n"

        seen = []
        for line in stream_lines(chunks(), "stdin"):
            seen.append(line)
        assert seen == ["are you a robot", "how are you", ""]

    def test_a_stream_line_that_is_not_utf8_names_its_line(self):
        with pytest.raises(InvalidInputError, match="^stdin line 3 is not UTF-8: byte 0xff"):
            list(stream_lines([b"a\r", b"\nb\r", b"\n\xff\n"], "stdin"))

    def test_config_values_keep_a_line_separator(self):
        text = "data_dir = a\u2028b\nseed = 1\n"
        assert parse_key_values(text, ("seed", "data_dir"), "config") == {
            "data_dir": "a\u2028b", "seed": "1"
        }


# bytes that are not UTF-8 wherever a character may start
_NOT_UTF8 = [b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf5"]


class TestReadText:
    @given(
        st.lists(st.tuples(_UTF8_LINE, st.sampled_from(["\n", "\r\n", "\r"])), min_size=1),
        st.booleans(),
        st.booleans(),
        st.none() | st.tuples(st.integers(0), st.integers(0), st.sampled_from(_NOT_UTF8)),
    )
    def test_reads_as_open_reads_or_names_the_line_of_the_first_bad_byte(
        self, tmp_path_factory, ended, bom, unended, bad
    ):
        lines, ends = [line for line, _ in ended], [end for _, end in ended]
        if bom:
            lines[0] = "\ufeff" + lines[0]
        if unended:
            ends[-1] = ""
        # draws whose lines would not read back are skipped: a "\r" end before
        # an empty "\n"-ended line reads as one "\r\n", and an empty last
        # line left unended reads as no line
        assume(split_lines("".join(map(str.__add__, lines, ends))) == lines)
        data = [line.encode() for line in lines]
        if bad is not None:
            index, offset, byte = bad
            index %= len(lines)
            head = lines[index][: offset % (len(lines[index]) + 1)].encode()
            data[index] = head + byte + data[index][len(head):]
        path = tmp_path_factory.mktemp("read") / "input.txt"
        path.write_bytes(b"".join(line + end.encode() for line, end in zip(data, ends)))
        if bad is None:
            with open(path, encoding="utf-8") as fh:
                assert read_text(path) == fh.read()
        else:
            with pytest.raises(InvalidInputError) as err:
                read_text(path)
            assert str(err.value).startswith(f"{path} line {index + 1} is not UTF-8: byte 0x")


_TOY = parse_grammar('S -> "a"\n')
# each headered TSV reader, its header and one valid row
READERS = {
    "dataset": (parse_dataset, "text\tlabel\tsplit\tsource", "are you a robot\tp\ttrain\tgrammar"),
    "manifest": (lambda text: load_partition(_TOY, text).assignment,
                 "rule\talt_index\tassignment", "S\t0\tshared"),
}


@pytest.mark.parametrize("reader, header, row", READERS.values(), ids=list(READERS))
def test_tsv_readers_skip_blank_rows_and_report_the_same_errors(reader, header, row):
    assert reader(f"{header}\n\n{row}\n \t \n") == reader(f"{header}\n{row}\n")
    with pytest.raises(DatasetFormatError) as err:
        reader(f"{row}\n")
    assert (str(err.value), err.value.line) == (f"missing header row {header!r} (line 1)", 1)
    width = header.count("\t") + 1
    with pytest.raises(DatasetFormatError) as err:
        reader(f"{header}\n\n{row}\tx\n")
    assert str(err.value) == f"expected {width} tab-separated fields, got {width + 1} (line 3)"


def test_parse_file_names_the_file_in_a_format_error(tmp_path):
    path = tmp_path / "g.cfg"
    path.write_text('S -> "a" |\n', encoding="utf-8")
    with pytest.raises(GrammarError, match="empty alternative") as err:
        parse_file(path, parse_grammar)
    assert (err.value.source, err.value.line, err.value.col) == (str(path), 1, 11)
    assert str(err.value) == f"{path} line 1, col 11: empty alternative"
    # parsed from a string, the error reads as it always did
    with pytest.raises(GrammarError, match="empty alternative") as err:
        parse_grammar('S -> "a" |\n')
    assert err.value.source is None and str(err.value) == "empty alternative (line 1, col 11)"
    # an error at no line names the file alone
    with pytest.raises(DatasetFormatError) as err:
        parse_file(path, lambda text: load_partition(_TOY, "rule\talt_index\tassignment\n"))
    assert str(err.value).startswith(f"{path}: rule 'S' covers 0 of ")


def test_parse_file_leaves_other_errors_alone(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("text\tlabel\tsplit\tsource\n", encoding="utf-8")

    def refuse(text):
        raise InvalidInputError("no rows")

    with pytest.raises(InvalidInputError) as err:
        parse_file(path, refuse)
    assert str(err.value) == "no rows" and not hasattr(err.value, "source")

import pytest
from hypothesis import given, strategies as st

from namebasis.lexicon import (
    Lexicon,
    LexiconError,
    TranscriptionEntry,
    build_lexicon,
    compose,
    emit_lexicon,
    load_transcriptions,
    render_lexicon,
)

# Six-entry reference table; kanth's SAPI string matches the composed
# outputs asserted below.
TABLE_ROWS = [
    ("kanth", "k aa n th", "k A n T h"),
    ("ma", "m aa", "m A"),
    ("ra", "r a", "r a"),
    ("je", "jh ey", "j E"),
    ("shwar", "s v ax r", "S v a r"),
    ("ram", "r aa m", "r A m"),
]


@pytest.fixture
def table():
    return {word: TranscriptionEntry(darpa, sapi) for word, darpa, sapi in TABLE_ROWS}


@pytest.fixture
def table_file(tmp_path):
    path = tmp_path / "table.tsv"
    lines = ["# word\tdarpa\tsapi"]
    lines += ["\t".join(row) for row in TABLE_ROWS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadTranscriptions:
    def test_loads_all_entries(self, table_file):
        loaded = load_transcriptions(table_file)
        assert len(loaded) == 6
        assert loaded["kanth"] == TranscriptionEntry("k aa n th", "k A n T h")

    def test_duplicate_word_named_in_error(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("ra\tr a\tr a\nra\tr aa\tr A\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="'ra'"):
            load_transcriptions(path)

    def test_empty_phone_field(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ra\t\tr a\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="empty phone field"):
            load_transcriptions(path)

    def test_empty_word(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ra\tr a\tr a\n\tx\ty\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=f"^{path}: line 2: empty word$"):
            load_transcriptions(path)

    def test_whitespace_in_word(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ra\tr a\tr a\nra ma\tr a\tr a\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=f"^{path}: line 2: whitespace in word 'ra ma'$"):
            load_transcriptions(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ra r a r a\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="line 1"):
            load_transcriptions(path)

    def test_word_outside_basis_kept_with_warning(self, table_file, caplog):
        with caplog.at_level("WARNING"):
            loaded = load_transcriptions(table_file, basis={"ra", "ma"})
        assert "kanth" in loaded
        assert any("not a basis word" in message for message in caplog.messages)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LexiconError, match="cannot read"):
            load_transcriptions(tmp_path / "nope.tsv")


class TestCompose:
    def test_ramakanth(self, table):
        darpa, sapi = compose(["ra", "ma", "kanth"], table)
        assert darpa == "r a m aa k aa n th"
        assert sapi == "r a m A k A n T h"

    def test_rajeshwar(self, table):
        darpa, sapi = compose(["ra", "je", "shwar"], table)
        assert darpa == "r a jh ey s v ax r"
        assert sapi == "r a j E S v a r"

    def test_single_segment_identity(self, table):
        assert compose(["ram"], table) == ("r aa m", "r A m")

    def test_homomorphism(self, table):
        left = compose(["ra", "ma"], table)
        right = compose(["kanth"], table)
        joined = compose(["ra", "ma", "kanth"], table)
        assert joined[0] == f"{left[0]} {right[0]}"
        assert joined[1] == f"{left[1]} {right[1]}"

    def test_phone_counts_add_up(self, table):
        darpa, sapi = compose(["ra", "ma", "kanth"], table)
        expected = sum(len(table[w].darpa.split()) for w in ("ra", "ma", "kanth"))
        assert len(darpa.split()) == expected


class TestBuildAndEmit:
    def test_build_collects_all_missing(self, table):
        with pytest.raises(LexiconError, match="missing transcriptions: dra, na"):
            build_lexicon({"nadra": ("na", "dra"), "rama": ("ra", "ma")}, table)

    def test_tsv_body(self, tmp_path, table):
        lexicon = build_lexicon(
            {"ramakanth": ("ra", "ma", "kanth"), "rajeshwar": ("ra", "je", "shwar")},
            table,
        )
        path = tmp_path / "lex.tsv"
        emit_lexicon(lexicon, "tsv", path)
        assert path.read_bytes().decode("utf-8").split("\n") == [
            "# name\twords\tdarpa\tsapi",
            "rajeshwar\tra je shwar\tr a jh ey s v ax r\tr a j E S v a r",
            "ramakanth\tra ma kanth\tr a m aa k aa n th\tr a m A k A n T h",
            "",
        ]

    def test_tsv_sorted_and_headed(self, table):
        lexicon = build_lexicon(
            {"rama": ("ra", "ma"), "maram": ("ma", "ram")}, table
        )
        body = render_lexicon(lexicon, "tsv")
        lines = body.splitlines()
        assert lines[0].startswith("#")
        assert [line.split("\t")[0] for line in lines[1:]] == ["maram", "rama"]

    def test_empty_lexicon_header_only(self):
        assert render_lexicon(Lexicon({}), "tsv") == "# name\twords\tdarpa\tsapi\n"

    def test_festival_like(self, table):
        lexicon = build_lexicon({"rama": ("ra", "ma")}, table)
        assert render_lexicon(lexicon, "festival_like") == '("rama" nil (r a m aa))\n'

    def test_sapi_like(self, table):
        lexicon = build_lexicon({"rama": ("ra", "ma")}, table)
        assert render_lexicon(lexicon, "sapi_like") == "rama\tr a m A\n"

    def test_unknown_format(self, table):
        lexicon = build_lexicon({"rama": ("ra", "ma")}, table)
        with pytest.raises(ValueError):
            render_lexicon(lexicon, "ipa")


words_st = st.text(alphabet="abcdef", min_size=1, max_size=5)
phones_st = st.text(alphabet="abctw ", min_size=1, max_size=9).filter(str.strip)


@given(st.dictionaries(words_st, st.tuples(phones_st, phones_st), min_size=1, max_size=8))
def test_compose_is_concatenation(entries):
    table = {w: TranscriptionEntry(d, s) for w, (d, s) in entries.items()}
    words = sorted(entries)
    darpa, sapi = compose(words, table)
    assert darpa == " ".join(entries[w][0] for w in words)
    assert sapi == " ".join(entries[w][1] for w in words)

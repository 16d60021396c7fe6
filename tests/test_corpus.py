import logging

import pytest
from hypothesis import given, strategies as st

from namebasis.corpus import (
    Corpus,
    CorpusError,
    load_names,
    normalize,
)


def write(tmp_path, text, name="names.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadNames:
    def test_plain_counts_repetitions(self, tmp_path):
        path = write(tmp_path, "rama\nrama\nsita\n")
        assert load_names(path, "plain") == Corpus({"rama": 2, "sita": 1})

    def test_name_freq_tab(self, tmp_path):
        path = write(tmp_path, "rama\t5\n")
        assert load_names(path, "name_freq") == Corpus({"rama": 5})

    def test_name_freq_comma(self, tmp_path):
        path = write(tmp_path, "rama,5\nsita,2\n")
        assert load_names(path, "name_freq") == Corpus({"rama": 5, "sita": 2})

    def test_malformed_count_reports_line(self, tmp_path):
        path = write(tmp_path, "rama\tx\n")
        with pytest.raises(CorpusError, match="line 1"):
            load_names(path, "name_freq")

    def test_malformed_count_later_line(self, tmp_path):
        path = write(tmp_path, "rama\t5\nsita\toops\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_names(path, "name_freq")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            load_names(tmp_path / "missing.txt")

    def test_crlf_and_blank_lines(self, tmp_path):
        path = write(tmp_path, "rama\r\n\r\nsita\r\n")
        assert load_names(path) == Corpus({"rama": 1, "sita": 1})

    def test_duplicates_merge_in_name_freq(self, tmp_path):
        path = write(tmp_path, "rama\t2\nrama\t3\n")
        assert load_names(path, "name_freq") == Corpus({"rama": 5})

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            load_names(write(tmp_path, "x\n"), "csv")


class TestNormalize:
    def test_two_part_names_split(self):
        out = normalize(Corpus({"Rama Krishna": 1}))
        assert out == Corpus({"rama": 1, "krishna": 1})

    def test_short_names_dropped(self):
        out = normalize(Corpus({"jo": 4, "k": 9, "rama": 1}), min_length=3)
        assert out == Corpus({"rama": 1})

    def test_case_fold_then_merge(self):
        out = normalize(Corpus({"RAMA": 2, "rama": 3}))
        assert out == Corpus({"rama": 5})

    def test_non_letters_stripped_not_split(self):
        out = normalize(Corpus({"o'neil": 2, "anne-marie": 1, "jo3se": 1}))
        assert out == Corpus({"oneil": 2, "annemarie": 1, "jose": 1})

    def test_lost_letters_warned_once(self, caplog):
        raw = Corpus({"José": 2, "Zoë Ann": 1, "o'neil": 1, "rama": 1})
        with caplog.at_level(logging.WARNING, logger="namebasis.corpus"):
            out = normalize(raw)
        assert out == Corpus({"jos": 2, "ann": 1, "oneil": 1, "rama": 1})
        assert [r.getMessage() for r in caplog.records] == [
            "2 of 4 names lost letters outside a-z: 'José', 'Zoë Ann'"
        ]

    def test_stripped_non_letters_not_warned(self, caplog):
        with caplog.at_level(logging.WARNING, logger="namebasis.corpus"):
            normalize(Corpus({"o'neil": 2, "anne-marie": 1, "jo3se": 1}))
        assert caplog.records == []

    def test_empty_after_normalization(self):
        with pytest.raises(CorpusError, match="empty corpus"):
            normalize(Corpus({"j9": 1}))

    def test_min_length_validation(self):
        with pytest.raises(ValueError):
            normalize(Corpus({"rama": 1}), min_length=0)

    def test_split_parts_can_merge(self):
        out = normalize(Corpus({"ram ram": 2, "ram": 1}))
        assert out == Corpus({"ram": 5})


names_st = st.text(alphabet="abcdefgh", min_size=1, max_size=8)
corpora_st = st.dictionaries(names_st, st.integers(1, 9), min_size=1, max_size=20)


@given(corpora_st)
def test_normalize_idempotent(counts):
    try:
        once = normalize(Corpus(counts))
    except CorpusError:
        return  # everything was too short
    assert normalize(once) == once


@given(corpora_st)
def test_frequency_preserved_when_nothing_dropped(counts):
    raw = Corpus(counts)
    try:
        out = normalize(raw, min_length=1)
    except CorpusError:
        return
    assert sum(map(out.frequency, out)) == sum(map(raw.frequency, raw))

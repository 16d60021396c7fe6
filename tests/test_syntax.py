import pytest
from hypothesis import given, strategies as st

from namebasis.config import read_kv
from namebasis.syntax import CharClassTable, accepts_syntax


class TestRejections:
    def test_pure_consonants_rejected(self):
        assert not accepts_syntax("nk", "shashank", 6)

    def test_joseph_ph_rejected(self):
        assert not accepts_syntax("ph", "joseph", 4)

    def test_vowel_vowel_split_rejected(self):
        # the a|i cut inside shailendra separates a diphthong
        assert not accepts_syntax("ilendra", "shailendra", 3)

    def test_digraph_split_rejected(self):
        # the t|h cut inside bharathi splits one sound
        assert not accepts_syntax("hi", "bharathi", 6)

    def test_digraph_split_rejected_from_left_word(self):
        assert not accepts_syntax("bharat", "bharathi", 0)


class TestAcceptances:
    def test_clean_word_accepted(self):
        assert accepts_syntax("na", "krishna", 5)

    def test_whole_name_accepted(self):
        assert accepts_syntax("rama", "rama", 0)

    def test_consonant_vowel_boundary_does_not_reject(self):
        # c|a cut: consonant-vowel, discouraged but not rejected
        assert accepts_syntax("amla", "kamla", 1)


class TestErrors:
    def test_empty_word(self):
        with pytest.raises(ValueError):
            accepts_syntax("", "", 0)

    def test_offset_out_of_range(self):
        with pytest.raises(ValueError):
            accepts_syntax("na", "krishna", 6)


def test_custom_table():
    table = CharClassTable(vowels=frozenset("ae"), digraphs=frozenset({"zz"}))
    assert not accepts_syntax("io", "io", 0, table=table)  # no vowel under this table
    assert not accepts_syntax("zig", "azzig", 2, table=table)  # splits zz


def test_table_from_file(tmp_path):
    path = tmp_path / "classes.cfg"
    path.write_text("# overrides\nvowels = aeiouy\ndigraphs = sh, ch\n", encoding="utf-8")
    table = CharClassTable.from_mapping(read_kv(path))
    assert "y" in table.vowels
    assert table.digraphs == {"sh", "ch"}
    assert accepts_syntax("ty", "ty", 0, table=table)


def test_table_from_file_rejects_long_digraphs(tmp_path):
    path = tmp_path / "classes.cfg"
    path.write_text("digraphs = sch\n", encoding="utf-8")
    with pytest.raises(Exception, match="two letters"):
        CharClassTable.from_mapping(read_kv(path))


@given(st.text(alphabet="bcdfghjklmnpqrstvwxz", min_size=1, max_size=8))
def test_vowelless_words_rejected_everywhere(word):
    assert not accepts_syntax(word, word, 0)
    assert not accepts_syntax(word, "aaa" + word + "aaa", 3)

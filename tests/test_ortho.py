from hypothesis import given, strategies as st

from conftest import brute_constructions
from namebasis.ortho import (
    Basis,
    count_constructions,
    first_construction,
    is_constructible,
    is_ortho,
    make_ortho,
)

# Substring pool for the krishna walk-through (its own text excluded)
KRISHNA_POOL = frozenset(
    {"krishn", "krish", "rish", "kris", "ris", "ish", "hna", "na", "kr", "hn", "is", "ri", "sh"}
)


def basis_of(*texts):
    return Basis(texts)


class TestIsConstructible:
    def test_krishna(self):
        assert is_constructible("krishna", KRISHNA_POOL)

    def test_narayana_with_repeats(self):
        assert is_constructible("narayana", {"na", "ra", "ya"})

    def test_uncovered_suffix(self):
        assert not is_constructible("abc", {"ab"})

    def test_empty_word(self):
        assert not is_constructible("", {"a"})

    def test_single_piece(self):
        assert is_constructible("ab", {"ab"})


class TestCountConstructions:
    def test_krishna_distinct_boundary_sets(self):
        assert count_constructions("krishna", KRISHNA_POOL) == 4
        assert {
            tuple(c) for c in brute_constructions("krishna", KRISHNA_POOL)
        } == {
            ("krish", "na"),
            ("kris", "hna"),
            ("kr", "ish", "na"),
            ("kr", "is", "hna"),
        }

    def test_repeated_piece_is_one_way(self):
        assert count_constructions("aaaa", {"a"}) == 1

    def test_empty_pool(self):
        assert count_constructions("ab", set()) == 0

    @given(
        word=st.text(alphabet="ab", min_size=1, max_size=10),
        pool=st.sets(st.text(alphabet="ab", min_size=1, max_size=3), max_size=6),
    )
    def test_matches_brute_force(self, word, pool):
        pool = pool - {word}
        assert count_constructions(word, pool) == len(brute_constructions(word, pool))
        assert is_constructible(word, pool) == bool(brute_constructions(word, pool))


class TestWitnesses:
    def test_rank_deficient_with_witness(self):
        ok, witnesses = is_ortho(basis_of("ra", "ma", "rama"))
        assert not ok
        assert witnesses == [("rama", ["ra", "ma"])]

    def test_orthogonal_pair(self):
        ok, witnesses = is_ortho(basis_of("ra", "ma"))
        assert ok and witnesses == []

    def test_empty_basis_is_orthogonal(self):
        ok, witnesses = is_ortho(Basis())
        assert ok and witnesses == []

    def test_first_construction_is_leftmost(self):
        assert first_construction("aaa", {"a", "aa"}) == ["a", "a", "a"]
        assert first_construction("abc", {"ab"}) is None


class TestMakeOrtho:
    def test_longest_constructible_removed(self):
        assert make_ortho(basis_of("rama", "ra", "ma", "na")).texts == {"ra", "ma", "na"}

    def test_krishna_removed(self):
        pruned = make_ortho(basis_of("krishna", *KRISHNA_POOL))
        assert "krishna" not in pruned

    def test_orthogonal_input_is_fixed_point(self):
        basis = basis_of("ra", "ma", "na")
        assert make_ortho(basis).texts == basis.texts

    @given(st.sets(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=8))
    def test_idempotent_and_orthogonal(self, texts):
        pruned = make_ortho(Basis(texts))
        assert is_ortho(pruned)[0]
        assert make_ortho(pruned).texts == pruned.texts

    @given(st.sets(st.text(alphabet="abc", min_size=1, max_size=4), min_size=1, max_size=8))
    def test_spanning_preserved(self, texts):
        basis = Basis(texts)
        pruned = make_ortho(basis)
        for text in texts:
            assert is_constructible(text, pruned.texts)

    @given(
        pieces=st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=5),
        joins=st.lists(st.lists(st.integers(0, 20), min_size=2, max_size=4), max_size=6),
    )
    def test_removed_words_spanned_by_survivors(self, pieces, joins):
        # each join may reuse earlier joins, so removals chain across lengths
        words = list(pieces)
        for join in joins:
            words.append("".join(words[i % len(words)] for i in join))
        pruned = make_ortho(Basis(words))
        assert is_ortho(pruned)[0]
        assert pruned.texts <= set(words)
        for text in set(words) - pruned.texts:
            assert is_constructible(text, pruned.texts)


class TestBasisContainer:
    def test_iteration_sorted(self):
        assert list(basis_of("zz", "aa", "mm")) == ["aa", "mm", "zz"]

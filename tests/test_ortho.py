from itertools import accumulate

from hypothesis import given, strategies as st

from conftest import brute_constructions
from namebasis.cli import write_basis_file
from namebasis.ortho import (
    first_construction,
    is_constructible,
    is_ortho,
    make_ortho,
)
from namebasis.segmenter import candidate_words, enumerate_with_basis, word_heads

# Substring pool for the krishna walk-through (its own text excluded)
KRISHNA_POOL = frozenset(
    {"krishn", "krish", "rish", "kris", "ris", "ish", "hna", "na", "kr", "hn", "is", "ri", "sh"}
)


def basis_of(*texts):
    return frozenset(texts)


def count_constructions(word, pool):
    """Constructions of ``word`` from ``pool``, counted by the segment
    table: they are the covering tilings by the pool's occurrences."""
    candidates = candidate_words(word, pool, word_heads(pool))
    return len(enumerate_with_basis(word, candidates, 2 ** len(word), gaps=False))


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
        brute = brute_constructions(word, pool)
        assert count_constructions(word, pool) == len(brute)
        assert is_constructible(word, pool) == bool(brute)
        # the witness is the construction whose piece ends are least
        # in lexicographic order
        least = min(brute, key=lambda pieces: tuple(accumulate(map(len, pieces))), default=None)
        assert first_construction(word, pool) == (None if least is None else list(least))


class TestWitnesses:
    def test_rank_deficient_with_witness(self):
        ok, witnesses = is_ortho(basis_of("ra", "ma", "rama"))
        assert not ok
        assert witnesses == [("rama", ["ra", "ma"])]

    def test_orthogonal_pair(self):
        ok, witnesses = is_ortho(basis_of("ra", "ma"))
        assert ok and witnesses == []

    def test_empty_basis_is_orthogonal(self):
        ok, witnesses = is_ortho(frozenset())
        assert ok and witnesses == []

    def test_first_construction_is_leftmost(self):
        assert first_construction("aaa", {"a", "aa"}) == ["a", "a", "a"]
        assert first_construction("abc", {"ab"}) is None


class TestMakeOrtho:
    def test_longest_constructible_removed(self):
        assert make_ortho(basis_of("rama", "ra", "ma", "na")) == {"ra", "ma", "na"}

    def test_krishna_removed(self):
        pruned = make_ortho(basis_of("krishna", *KRISHNA_POOL))
        assert "krishna" not in pruned

    def test_orthogonal_input_is_fixed_point(self):
        basis = basis_of("ra", "ma", "na")
        assert make_ortho(basis) == basis

    @given(st.sets(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=8))
    def test_idempotent_and_orthogonal(self, texts):
        pruned = make_ortho(frozenset(texts))
        assert is_ortho(pruned)[0]
        assert make_ortho(pruned) == pruned

    @given(st.sets(st.text(alphabet="abc", min_size=1, max_size=4), min_size=1, max_size=8))
    def test_spanning_preserved(self, texts):
        basis = frozenset(texts)
        pruned = make_ortho(basis)
        for text in texts:
            assert is_constructible(text, pruned)

    @given(
        pieces=st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=5),
        joins=st.lists(st.lists(st.integers(0, 20), min_size=2, max_size=4), max_size=6),
    )
    def test_removed_words_spanned_by_survivors(self, pieces, joins):
        # each join may reuse earlier joins, so removals chain across lengths
        words = list(pieces)
        for join in joins:
            words.append("".join(words[i % len(words)] for i in join))
        pruned = make_ortho(frozenset(words))
        assert is_ortho(pruned)[0]
        assert pruned <= set(words)
        for text in set(words) - pruned:
            assert is_constructible(text, pruned)



class TestInsertionOrder:
    """A basis is a frozenset, which iterates in hash order: no result may
    depend on the order its words were added in."""

    @given(
        words=st.lists(
            st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=8, unique=True
        ),
        data=st.data(),
    )
    def test_same_result_from_any_order(self, words, data, tmp_path_factory):
        orders = [words, words[::-1], data.draw(st.permutations(words))]
        bases = [frozenset(order) for order in orders]
        path = tmp_path_factory.mktemp("basis") / "basis.txt"
        for basis in bases:
            assert make_ortho(basis) == make_ortho(bases[0])
            assert is_ortho(basis) == is_ortho(bases[0])
            write_basis_file(basis, path)
            assert path.read_text(encoding="utf-8") == "".join(f"{w}\n" for w in sorted(words))

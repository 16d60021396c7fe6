from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_tilings, spans_of
from namebasis.ortho import Basis
from namebasis.segmenter import (
    SequenceCandidate,
    basis_tilings,
    candidate_words,
    composition_table,
    enumerate_all,
    enumerate_with_basis,
    tiling_table,
)

# The 15 splits of gopal, in generation order (fewest parts first,
# leftmost boundary first within a level)
GOPAL_SPLITS = [
    "g opal", "go pal", "gop al", "gopa l",
    "g o pal", "g op al", "g opa l", "go p al", "go pa l", "gop a l",
    "g o p al", "g o pa l", "g op a l", "go p a l",
    "g o p a l",
]

KRISHNA_BASIS = ["krish", "na", "kris", "hna", "kr", "ish", "is", "hn", "ri", "sh", "rish", "ris"]


def basis_of(*texts):
    return Basis(texts)


class TestCandidateWords:
    def test_krishna_occurrences(self):
        found = candidate_words("krishna", basis_of("krish", "na", "ram"))
        assert found == {"krish": (0,), "na": (5,)}

    def test_no_occurrence(self):
        assert candidate_words("abc", basis_of("xyz")) == {}

    def test_overlapping_occurrences_all_reported(self):
        assert candidate_words("aaa", basis_of("aa")) == {"aa": (0, 1)}

    def test_whole_name_included_when_in_basis(self):
        found = candidate_words("rama", basis_of("rama", "ra"))
        assert found == {"ra": (0,), "rama": (0,)}

    def test_plain_set_works_too(self):
        assert candidate_words("aba", {"a", "ab"}) == {"a": (0, 2), "ab": (0,)}


class TestEnumerateWithBasis:
    def test_krishna_fully_existing_tilings(self):
        seqs = enumerate_with_basis(
            "krishna", candidate_words("krishna", basis_of(*KRISHNA_BASIS))
        )
        covered = {s.texts for s in seqs if s.eta_new == 0}
        assert covered == {
            ("krish", "na"),
            ("kris", "hna"),
            ("kr", "ish", "na"),
            ("kr", "is", "hna"),
        }

    def test_one_occurrence_plus_whole_name(self):
        seqs = enumerate_with_basis("abcd", {"ab": (0,)})
        assert [s.texts for s in seqs] == [("abcd",), ("ab", "cd")]
        assert seqs[1].new == (False, True)

    def test_empty_candidates_single_new_segment(self):
        seqs = enumerate_with_basis("abc", {})
        assert len(seqs) == 1
        assert seqs[0].texts == ("abc",)
        assert seqs[0].new[0]

    def test_whole_name_existing_when_in_candidates(self):
        seqs = enumerate_with_basis("rama", {"rama": (0,), "ra": (0,)})
        whole = seqs[0]
        assert whole.texts == ("rama",)
        assert not whole.new[0]

    def test_gap_that_spells_a_candidate_is_existing(self):
        # both halves of "aa" are occurrences of "a"; the canonical
        # candidate marks them existing however it was generated
        seqs = enumerate_with_basis("aa", {"a": (0, 1)})
        split = next(s for s in seqs if s.eta_total == 2)
        assert not any(split.new)

    def test_no_adjacent_new_segments(self):
        seqs = enumerate_with_basis("abcdef", {"cd": (2,)})
        for seq in seqs:
            for left, right in zip(seq.new, seq.new[1:]):
                assert not (left and right)

    def test_cap_keeps_fewest_segments(self):
        candidates = candidate_words("aaaaaa", basis_of("a", "aa", "aaa"))
        seqs = enumerate_with_basis("aaaaaa", candidates, cap=3)
        assert len(seqs) == 3
        assert [s.boundaries for s in seqs] == [(), (1,), (2,)]

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            enumerate_with_basis("ab", {}, cap=0)

    def test_deterministic_order(self):
        candidates = candidate_words("banana", basis_of("an", "na", "ban"))
        first = enumerate_with_basis("banana", candidates)
        second = enumerate_with_basis("banana", candidates)
        assert [s.boundaries for s in first] == [s.boundaries for s in second]
        etas = [s.eta_total for s in first]
        assert etas == sorted(etas)


class TestOracleEquivalence:
    @given(
        name=st.text(alphabet="ab", min_size=1, max_size=10),
        words=st.sets(st.text(alphabet="ab", min_size=1, max_size=3), max_size=5),
    )
    @settings(max_examples=300)
    def test_matches_brute_force_tiler(self, name, words):
        candidates = candidate_words(name, words)
        seqs = enumerate_with_basis(name, candidates, cap=10**9)
        assert {s.boundaries for s in seqs} == brute_tilings(name, spans_of(candidates))
        assert len({s.boundaries for s in seqs}) == len(seqs)  # no duplicates

    @given(
        name=st.text(alphabet="ab", min_size=1, max_size=10),
        words=st.sets(st.text(alphabet="ab", min_size=1, max_size=3), max_size=5),
        cap=st.one_of(st.integers(min_value=1, max_value=20), st.just(10**9)),
        gaps=st.booleans(),
    )
    @settings(max_examples=300)
    def test_order_and_cap_match_brute_force(self, name, words, cap, gaps):
        candidates = candidate_words(name, words)
        spans = set(spans_of(candidates))
        tilings = brute_tilings(name, spans)
        if not gaps:
            tilings = {
                cuts for cuts in tilings
                if set(zip((0, *cuts), (*cuts, len(name)))) <= spans
            }
        expected = sorted(tilings, key=lambda c: (len(c), c))[:cap]
        seqs = enumerate_with_basis(name, candidates, cap, gaps=gaps)
        assert [s.boundaries for s in seqs] == expected

    @given(
        name=st.text(alphabet="abc", min_size=1, max_size=9),
        words=st.sets(st.text(alphabet="abc", min_size=1, max_size=3), max_size=5),
    )
    def test_every_candidate_reconstructs_name(self, name, words):
        for seq in enumerate_with_basis(name, candidate_words(name, words)):
            assert "".join(seq.texts) == seq.name
            assert seq.eta_new == sum(seq.new)
            assert len(seq.new) == seq.eta_total
            assert seq.eta_joins == seq.eta_total - 1


class TestEnumerateAll:
    def test_gopal_all_proper_splits(self):
        seqs = enumerate_all("gopal", min_segment=1, include_whole=False)
        assert [" ".join(s.texts) for s in seqs] == GOPAL_SPLITS

    def test_gopal_min_segment_two(self):
        seqs = enumerate_all("gopal", min_segment=2, include_whole=False)
        assert [s.texts for s in seqs] == [("go", "pal"), ("gop", "al")]

    def test_whole_name_only(self):
        seqs = enumerate_all("ab", min_segment=2, include_whole=True)
        assert [s.texts for s in seqs] == [("ab",)]

    def test_too_short_name(self):
        assert enumerate_all("a", min_segment=2) == []

    def test_all_segments_new(self):
        for seq in enumerate_all("gopal", min_segment=1):
            assert all(seq.new)

    def test_min_segment_validation(self):
        with pytest.raises(ValueError):
            enumerate_all("abc", min_segment=0)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            enumerate_all("abc", min_segment=1, cap=0)

    @given(
        n=st.integers(1, 12),
        min_segment=st.integers(1, 3),
        include_whole=st.booleans(),
        cap=st.one_of(st.integers(1, 20), st.none()),
    )
    def test_order_and_cap_match_brute_force(self, n, min_segment, include_whole, cap):
        expected = sorted(
            (
                cuts
                for parts in range(0 if include_whole else 1, n)
                for cuts in combinations(range(1, n), parts)
                if all(b - a >= min_segment for a, b in zip((0, *cuts), (*cuts, n)))
            ),
            key=lambda cuts: (len(cuts), cuts),
        )[:cap]
        seqs = enumerate_all("x" * n, min_segment, include_whole, cap)
        assert [s.boundaries for s in seqs] == expected

    @given(
        n=st.integers(1, 12),
        min_segment=st.integers(1, 3),
        cap=st.one_of(st.integers(1, 20), st.none()),
        # a name, its basis words and gaps: tile it instead of composing
        tiled=st.one_of(
            st.none(),
            st.tuples(
                st.text(alphabet="ab", min_size=1, max_size=10),
                st.sets(st.text(alphabet="ab", min_size=1, max_size=3), max_size=5),
                st.booleans(),
            ),
        ),
    )
    def test_table_rows_masks_and_squares(self, n, min_segment, cap, tiled):
        if tiled is None:
            table = composition_table(n, min_segment, True, cap)
            existing = frozenset()  # every part is new
        else:
            name, words, gaps = tiled
            n = len(name)
            candidates = candidate_words(name, words)
            existing, tilings = basis_tilings(name, candidates, cap or 10**9, gaps=gaps)
            table = tiling_table(name, existing, tilings)
            assert [table.boundaries(r) for r in range(len(table.rows))] == list(tilings)
        assert len(set(table.spans)) == len(table.spans)
        for r, row in enumerate(table.rows):
            placed = [table.spans[i] for i in row]
            assert [start for start, _ in placed] == [0] + [end for _, end in placed[:-1]]
            assert placed[-1][1] == n
            assert table.q[r] == sum((end - start) ** 2 for start, end in placed)
            assert table.eta_new[r] == sum(span not in existing for span in placed)
        for i, mask in enumerate(table.masks):
            assert mask == sum(1 << r for r, row in enumerate(table.rows) if i in row)

    def test_cap(self):
        seqs = enumerate_all("abcdef", min_segment=1, include_whole=True, cap=4)
        assert len(seqs) == 4
        assert [s.eta_total for s in seqs] == [1, 2, 2, 2]

    @given(st.text(alphabet="ab", min_size=1, max_size=10))
    def test_composition_counts(self, name):
        n = len(name)
        with_whole = enumerate_all(name, min_segment=1, include_whole=True)
        without = enumerate_all(name, min_segment=1, include_whole=False)
        assert len(with_whole) == 2 ** (n - 1)
        assert len(without) == 2 ** (n - 1) - 1


def test_from_boundaries_rejects_bad_cuts():
    with pytest.raises(ValueError):
        SequenceCandidate.from_boundaries("abc", (2, 1))

from itertools import combinations, islice
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import brute_tilings, check_rows_placing
from namebasis.corpus import Corpus
from namebasis.engine import RunConfig, _choose_row, _survey, weight_grid
from namebasis.segmenter import (
    candidate_words,
    composition_table,
    covering_tiling,
    enumerate_all,
    enumerate_with_basis,
    span_pattern,
    tiling_table,
    word_heads,
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
    return frozenset(texts)


def spans_by(name, words):
    """``name``'s occurrences of ``words``, scanned through their head index."""
    return candidate_words(name, words, word_heads(words))


class TestCandidateWords:
    def test_krishna_occurrences(self):
        found = spans_by("krishna", basis_of("krish", "na", "ram"))
        assert found == {(0, 5), (5, 7)}

    def test_no_occurrence(self):
        assert spans_by("abc", basis_of("xyz")) == frozenset()

    def test_overlapping_occurrences_all_reported(self):
        assert spans_by("aaa", basis_of("aa")) == {(0, 2), (1, 3)}

    def test_whole_name_included_when_in_basis(self):
        found = spans_by("rama", basis_of("rama", "ra"))
        assert found == {(0, 2), (0, 4)}

    def test_plain_set_works_too(self):
        assert spans_by("aba", {"a", "ab"}) == {(0, 1), (2, 3), (0, 2)}

    @given(
        name=st.text(alphabet="abc", max_size=10),
        # one-letter words and words up to 12 letters, longer than most names
        words=st.builds(
            frozenset.union,
            st.frozensets(st.sampled_from("abc")),
            st.frozensets(st.text(alphabet="abc", min_size=2, max_size=12), max_size=6),
        ),
        whole=st.booleans(),
    )
    @example("aaa", frozenset({"aa"}), False)
    @example("aba", frozenset({"a", "ab"}), False)
    @example("abc", frozenset({"c", "bc"}), False)  # the last letter is a one-letter word
    def test_matches_every_substring(self, name, words, whole):
        if whole and name:
            words |= {name}
        n = len(name)
        expected = {
            (start, end)
            for start in range(n)
            for end in range(start + 1, n + 1)
            if name[start:end] in words
        }
        found = candidate_words(name, words, word_heads(words))
        assert isinstance(found, frozenset)
        assert found == expected


class TestEnumerateWithBasis:
    def test_krishna_fully_existing_tilings(self):
        seqs = enumerate_with_basis(
            "krishna",
            spans_by("krishna", basis_of(*KRISHNA_BASIS)),
        )
        covered = {s.texts for s in seqs if s.eta_new == 0}
        assert covered == {
            ("krish", "na"),
            ("kris", "hna"),
            ("kr", "ish", "na"),
            ("kr", "is", "hna"),
        }

    def test_one_occurrence_plus_whole_name(self):
        seqs = enumerate_with_basis("abcd", {(0, 2)})
        assert [s.texts for s in seqs] == [("abcd",), ("ab", "cd")]
        assert seqs[1].new == (False, True)

    def test_empty_candidates_single_new_segment(self):
        seqs = enumerate_with_basis("abc", frozenset())
        assert len(seqs) == 1
        assert seqs[0].texts == ("abc",)
        assert seqs[0].new[0]

    def test_whole_name_existing_when_in_candidates(self):
        seqs = enumerate_with_basis("rama", {(0, 4), (0, 2)})
        whole = seqs[0]
        assert whole.texts == ("rama",)
        assert not whole.new[0]

    def test_gap_that_spells_a_candidate_is_existing(self):
        # both halves of "aa" are occurrences of "a"; the canonical
        # candidate marks them existing however it was generated
        seqs = enumerate_with_basis("aa", {(0, 1), (1, 2)})
        split = next(s for s in seqs if s.eta_total == 2)
        assert not any(split.new)

    def test_no_adjacent_new_segments(self):
        seqs = enumerate_with_basis("abcdef", {(2, 4)})
        for seq in seqs:
            for left, right in zip(seq.new, seq.new[1:]):
                assert not (left and right)

    def test_cap_keeps_fewest_segments(self):
        spans = spans_by("aaaaaa", basis_of("a", "aa", "aaa"))
        seqs = enumerate_with_basis("aaaaaa", spans, cap=3)
        assert len(seqs) == 3
        assert [s.boundaries for s in seqs] == [(), (1,), (2,)]

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            enumerate_with_basis("ab", frozenset(), cap=0)

    def test_deterministic_order(self):
        spans = spans_by("banana", basis_of("an", "na", "ban"))
        first = enumerate_with_basis("banana", spans)
        second = enumerate_with_basis("banana", spans)
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
        spans = candidate_words(name, words, word_heads(words))
        seqs = enumerate_with_basis(name, spans, cap=10**9)
        assert {s.boundaries for s in seqs} == brute_tilings(name, spans)
        assert len({s.boundaries for s in seqs}) == len(seqs)  # no duplicates

    @given(
        name=st.text(alphabet="ab", min_size=1, max_size=10),
        words=st.sets(st.text(alphabet="ab", min_size=1, max_size=3), max_size=5),
        cap=st.one_of(st.integers(min_value=1, max_value=20), st.just(10**9)),
        gaps=st.booleans(),
    )
    @settings(max_examples=300)
    def test_order_and_cap_match_brute_force(self, name, words, cap, gaps):
        spans = candidate_words(name, words, word_heads(words))
        tilings = brute_tilings(name, spans)
        if not gaps:
            tilings = {
                cuts for cuts in tilings
                if set(zip((0, *cuts), (*cuts, len(name)))) <= spans
            }
        expected = sorted(tilings, key=lambda c: (len(c), c))[:cap]
        seqs = enumerate_with_basis(name, spans, cap, gaps=gaps)
        assert [s.boundaries for s in seqs] == expected

    @given(
        name=st.text(alphabet="abc", min_size=1, max_size=9),
        words=st.sets(st.text(alphabet="abc", min_size=1, max_size=3), max_size=5),
    )
    def test_every_candidate_reconstructs_name(self, name, words):
        spans = candidate_words(name, words, word_heads(words))
        for seq in enumerate_with_basis(name, spans):
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
        include_whole=st.booleans(),
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
    # 300 compositions place more than 256 spans, too many for one byte an index
    @example(n=25, min_segment=1, include_whole=True, cap=300, tiled=None)
    def test_table_rows_and_counts(self, n, min_segment, include_whole, cap, tiled):
        if tiled is None:
            table = composition_table(n, min_segment, include_whole, cap)
            existing = frozenset()  # every part is new
            # combinations come in leftmost-boundary order within a cut count
            expected = list(
                islice(
                    (
                        cuts
                        for parts in range(0 if include_whole else 1, n)
                        for cuts in combinations(range(1, n), parts)
                        if all(b - a >= min_segment for a, b in zip((0, *cuts), (*cuts, n)))
                    ),
                    cap,
                )
            )
        else:
            name, words, gaps = tiled
            n = len(name)
            existing = candidate_words(name, words, word_heads(words))
            table = tiling_table(n, existing, cap or 10**9, gaps=gaps)
            tilings = brute_tilings(name, existing)
            if not gaps:
                tilings = {
                    cuts for cuts in tilings if set(zip((0, *cuts), (*cuts, n))) <= existing
                }
            expected = sorted(tilings, key=lambda cuts: (len(cuts), cuts))[:cap]
        rows = sorted(
            (k, row, eta_new)
            for eta_new, ks in enumerate(table.cells)
            for k in ks
            for row in table.cell(k, eta_new)
        )
        assert table.total == len(rows)
        assert [tuple(table.spans[i][1] for i in row[:-1]) for _, row, _ in rows] == expected
        assert len(set(table.spans)) == len(table.spans)
        assert table.new == tuple(span not in existing for span in table.spans)
        for k, row, eta_new in rows:
            placed = [table.spans[i] for i in row]
            assert len(placed) == k
            assert [start for start, _ in placed] == [0] + [end for _, end in placed[:-1]]
            assert placed[-1][1] == n
            assert eta_new == sum(span not in existing for span in placed)
        # every span is placed by some row, and counted once per row
        for i, count in enumerate(table.counts):
            assert count == sum(i in row for _, row, _ in rows) > 0

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


class TestCountingOracle:
    """The table's counts against a listing of every row it keeps."""

    @given(
        name=st.one_of(
            st.text(alphabet="ab", min_size=1, max_size=10),
            # texts placed at more than one offset
            st.sampled_from(["abab", "aaaa", "abcabc", "aaaaaaaaa", "abababab", "baaab"]),
        ),
        # a basis and gaps, or a minimum part and include_whole
        tiled=st.one_of(
            st.tuples(
                st.sets(st.text(alphabet="abc", min_size=1, max_size=3), max_size=6),
                st.booleans(),
            ),
            st.tuples(st.integers(1, 3), st.booleans()),
        ),
        cap=st.one_of(st.integers(1, 20), st.none()),
        shuffle=st.randoms(use_true_random=False),
    )
    @settings(max_examples=400)
    # an uncapped gapped tiling, with texts placed at two offsets
    @example(name="abcabc", tiled=({"ab", "bc", "ca"}, True), cap=None, shuffle=Random(0))
    # the cap cuts level 2 after 4 of its 8 rows, so the tiles (0, 5)...(0, 8)
    # and (5, 9)...(8, 9), placed only by rows it drops, are left out
    @example(name="a" * 9, tiled=(1, True), cap=5, shuffle=Random(0))
    # the cap keeps two of level 2's three rows; the last, ab ab, places
    # "ab" at both offsets, and its rows are counted before any listing
    @example(name="abab", tiled=(1, True), cap=3, shuffle=Random(0))
    # 300 compositions place 276 spans, too many for one byte an index
    @example(name="a" * 23, tiled=(1, True), cap=300, shuffle=Random(0))
    def test_counts_match_listing(self, name, tiled, cap, shuffle):
        n = len(name)
        if isinstance(tiled[0], int):
            min_segment, include_whole = tiled
            seqs = enumerate_all(name, min_segment, include_whole, cap)
            table = composition_table(n, min_segment, include_whole, cap)
        else:
            words, gaps = tiled
            spans = candidate_words(name, words, word_heads(words))
            seqs = enumerate_with_basis(name, spans, cap or 10**9, gaps=gaps)
            table = tiling_table(n, spans, cap or 10**9, gaps=gaps)
            if gaps:
                # pass 1 of alg1 counts a text new for a name when a row
                # places it as a new segment
                _, corpus_freq, _ = _survey(
                    Corpus({name: 1}), frozenset(words), RunConfig(cap=cap or 10**9)
                )
                assert set(corpus_freq) == {
                    text for seq in seqs for text, new in zip(seq.texts, seq.new) if new
                }

        assert table.total == len(seqs)
        assert list(table.levels[1:]) == [
            sum(seq.eta_total == k for seq in seqs) for k in range(1, len(table.levels))
        ]
        offsets = range(n + 1)
        placed = [tuple(zip((0, *seq.boundaries), (*seq.boundaries, n))) for seq in seqs]
        texts = check_rows_placing(table, name, offsets, placed)
        assert set(texts) == {text for seq in seqs for text in seq.texts}
        for span, count in zip(table.spans, table.counts):
            assert count == sum(span in row for row in placed)

        # cells listed on demand, in any order, join into the listing
        cells = [(k, e) for e, ks in enumerate(table.cells) for k in ks]
        shuffle.shuffle(cells)
        for k, e in cells:
            table.cell(k, e)
        assert table.candidates(name, offsets) == seqs
        # the counts, kept per span set, serve any name read through the
        # same stops (a composition table is shared by every name of its
        # length), whether it groups the spans alike or not
        check_rows_placing(table, name[::-1], offsets, placed)


class TestCellOracle:
    """Each cell of a table against a brute-force listing of its level."""

    @given(
        name=st.one_of(
            st.text(alphabet="ab", min_size=1, max_size=10),
            # texts placed at more than one offset
            st.sampled_from(["abab", "aaaa", "abcabc", "aaaaaaaaa", "abababab", "baaab"]),
        ),
        # a basis and gaps, or a minimum part and include_whole
        tiled=st.one_of(
            st.tuples(
                st.sets(st.text(alphabet="abc", min_size=1, max_size=3), max_size=6),
                st.booleans(),
            ),
            st.tuples(st.integers(1, 3), st.booleans()),
        ),
        cap=st.one_of(st.integers(1, 20), st.none()),
        shuffle=st.randoms(use_true_random=False),
    )
    @settings(max_examples=400)
    # the cap cuts level 3 of a gapped tiling after 2 rows, one with two
    # new segments and one with none, so levels 1 and 2 are walked by cell
    @example(name="abcabc", tiled=({"ab", "bc", "ca"}, True), cap=5, shuffle=Random(0))
    # the cap cuts level 2 of the compositions after 4 of its 8 rows
    @example(name="a" * 9, tiled=(1, True), cap=5, shuffle=Random(0))
    # the cap keeps a aa b, not aa a b, of level 3: its last kept row
    # starts with the gap a, so the gap a at offset 1 cannot follow it
    @example(name="aaab", tiled=({"aa", "ab", "b"}, True), cap=4, shuffle=Random(0))
    def test_cells_split_levels_by_new_count(self, name, tiled, cap, shuffle):
        n = len(name)
        if isinstance(tiled[0], int):
            min_part, include_whole = tiled
            table = composition_table(n, min_part, include_whole, cap)
            spans = frozenset()  # every part is new
            tilings = {
                cuts
                for parts in range(0 if include_whole else 1, n)
                for cuts in combinations(range(1, n), parts)
                if all(b - a >= min_part for a, b in zip((0, *cuts), (*cuts, n)))
            }
        else:
            words, gaps = tiled
            spans = candidate_words(name, words, word_heads(words))
            table = tiling_table(n, spans, cap or 10**9, gaps=gaps)
            tilings = brute_tilings(name, spans)
            if not gaps:
                tilings = {
                    cuts for cuts in tilings if set(zip((0, *cuts), (*cuts, n))) <= spans
                }
        # the kept rows in level order, filed under their cells
        expected: dict[tuple[int, int], list] = {}
        for cuts in sorted(tilings, key=lambda cuts: (len(cuts), cuts))[:cap]:
            placed = list(zip((0, *cuts), (*cuts, n)))
            fresh = sum(span not in spans for span in placed)
            expected.setdefault((len(placed), fresh), []).append(cuts)

        # cells with rows, as the table knows them before listing any, and
        # the covering tilings, kept under the cap or not, counted to 2
        assert {(k, e) for e, levels in enumerate(table.cells) for k in levels} == set(expected)
        covers = [set(zip((0, *cuts), (*cuts, n))) <= spans for cuts in tilings]
        ways = covering_tiling(n, spans)[0]
        assert (ways > 0) == any(covers)
        assert ways == min(2, sum(covers))
        assert all(list(levels) == sorted(levels) for levels in table.cells)
        order = sorted(expected)
        shuffle.shuffle(order)
        for k, e in order:
            rows = table.cell(k, e)
            assert [tuple(table.spans[i][1] for i in row[:-1]) for row in rows] == expected[k, e]
            assert all(sum(map(table.new.__getitem__, row)) == e for row in rows)
        # a text's rows, counted once every cell is listed
        placed = [set(zip((0, *cuts), (*cuts, n))) for rows in expected.values() for cuts in rows]
        check_rows_placing(table, name, range(n + 1), placed)


class TestPatternOracle:
    """A table built on a name's span pattern, read through its stops,
    against the table built on the name's offsets."""

    @given(
        name=st.text(alphabet="abe", min_size=1, max_size=10),
        words=st.sets(st.text(alphabet="abe", min_size=1, max_size=3), max_size=5),
        gaps=st.booleans(),
        cap=st.one_of(st.integers(1, 20), st.none()),
        weights=st.sampled_from(weight_grid(0.25)),
        pav_inverted=st.booleans(),
    )
    @settings(max_examples=400)
    # "ab" at offsets 0 and 3: one text at two offsets, its rows counted
    # by a pass that avoids both spans
    @example("abeabe", {"ab"}, True, None, weight_grid(0.25)[0], False)
    # "ee" is a gap from stop 1 to stop 2, the last, of (0, 2, 4)
    @example("abee", {"ab"}, True, None, weight_grid(0.25)[0], False)
    # the cap keeps 3 of level 2's rows, so level 2 is cut and counted
    # along the path of its last kept row
    @example("ababab", {"a", "b", "ab"}, True, 3, weight_grid(0.25)[0], False)
    def test_pattern_table_matches_offsets_table(
        self, name, words, gaps, cap, weights, pav_inverted
    ):
        n = len(name)
        spans = candidate_words(name, words, word_heads(words))
        stops, pattern = span_pattern(n, spans)
        offsets = range(n + 1)
        cap = cap or 10**9
        raw = tiling_table(n, spans, cap, gaps=gaps)
        shared = tiling_table(len(stops) - 1, pattern, cap, gaps=gaps)

        assert stops[0] == 0 and stops[-1] == n and list(stops) == sorted(set(stops))
        assert (shared.levels, shared.total, shared.cells) == (raw.levels, raw.total, raw.cells)
        assert [(stops[a], stops[b]) for a, b in shared.spans] == list(raw.spans)
        assert (shared.new, shared.counts) == (raw.new, raw.counts)
        for e, levels in enumerate(raw.cells):
            for k in levels:
                rows = shared.cell(k, e)
                assert rows == raw.cell(k, e)
                for row in rows:
                    assert [
                        (stops[shared.spans[i][1]] - stops[shared.spans[i][0]]) ** 2
                        for i in row
                    ] == [(raw.spans[i][1] - raw.spans[i][0]) ** 2 for i in row]
        seqs = raw.candidates(name, offsets)
        assert shared.candidates(name, stops) == seqs
        placed = [tuple(zip((0, *seq.boundaries), (*seq.boundaries, n))) for seq in seqs]
        assert check_rows_placing(shared, name, stops, placed) == check_rows_placing(
            raw, name, offsets, placed
        )

        if raw.total:
            corpus_freq = {  # any fixed share per new text
                name[start:end]: (1 + sum(map(ord, name[start:end])) % 3) / 3
                for (start, end), is_new in zip(raw.spans, raw.new)
                if is_new
            }
            cfg = RunConfig(cap=cap, weights=weights, pav_inverted=pav_inverted)
            assert _choose_row(name, stops, shared, corpus_freq, cfg) == _choose_row(
                name, offsets, raw, corpus_freq, cfg
            )


class TestCutPositions:
    """A capped table against the first ``cap`` rows of the uncapped
    table's listing, at every cap that cuts a level."""

    @pytest.mark.parametrize(
        "name, tiled",
        [
            # a basis and gaps, or a minimum part and include_whole
            ("banana", ({"an", "na", "ban"}, True)),
            ("abab", ({"ab", "b"}, True)),
            ("aaaaaa", ({"a", "aa", "aaa"}, False)),
            ("a" * 9, (2, True)),
            ("abcabcab", (1, False)),
            # the cut path runs through a gap: its siblings after that gap
            # are spans only, and the gap text "aaa" is placed at two offsets
            ("aaaabbb", ({"a", "bb"}, True)),
        ],
    )
    def test_every_cut_keeps_the_listing_prefix(self, name, tiled):
        n = len(name)
        offsets = range(n + 1)

        def build(cap):
            if isinstance(tiled[0], int):
                return composition_table(n, *tiled, cap)
            words, gaps = tiled
            spans = candidate_words(name, words, word_heads(words))
            return tiling_table(n, spans, cap or 10**9, gaps=gaps)

        whole = build(None)
        listing = whole.candidates(name, offsets)
        assert whole.total == len(listing) > 1
        for cap in range(1, whole.total):
            table = build(cap)
            kept = listing[:cap]
            placed = [tuple(zip((0, *seq.boundaries), (*seq.boundaries, n))) for seq in kept]
            last = kept[-1].eta_total
            assert table.levels == tuple(
                sum(seq.eta_total == k for seq in kept) for k in range(last + 1)
            )
            assert table.total == cap
            assert table.spans == tuple(sorted({span for row in placed for span in row}))
            assert table.new == tuple(whole.new[whole.spans.index(span)] for span in table.spans)
            assert table.counts == tuple(
                sum(span in row for row in placed) for span in table.spans
            )
            check_rows_placing(table, name, offsets, placed)
            cells = {(seq.eta_total, seq.eta_new) for seq in kept}
            assert table.cells == tuple(
                tuple(sorted(k for k, e in cells if e == fresh)) for fresh in range(last + 1)
            )
            for k, e in cells:
                assert [tuple(map(table.spans.__getitem__, row)) for row in table.cell(k, e)] == [
                    row
                    for seq, row in zip(kept, placed)
                    if (seq.eta_total, seq.eta_new) == (k, e)
                ]

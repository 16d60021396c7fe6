import dataclasses
import logging
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import check_rows_placing, lengths_of
from namebasis import cli, engine
from namebasis.config import ConfigError, read_kv
from namebasis.corpus import Corpus
from namebasis.engine import (
    IterationStats,
    RunConfig,
    _choose_row,
    check_convergence,
    global_cost,
    grid_search_weights,
    run_alg1,
    run_alg2,
    run_iteration_alg1,
    seed_basis,
    segment_corpus,
    trivial_case_a,
    trivial_case_b,
    weight_grid,
)
from namebasis.features import (
    WeightSet,
    composition_cost,
    compute_features,
    cost_alg1,
    cost_alg2,
    demand_shares,
    select_best,
    tiling_cost,
)
from namebasis.ortho import is_constructible, is_ortho
from namebasis.segmenter import (
    SegmentTable,
    SequenceCandidate,
    candidate_words,
    composition_table,
    enumerate_all,
    enumerate_with_basis,
    span_pattern,
    tiling_table,
)
from namebasis.syntax import CharClassTable, accepts_syntax
from namebasis.synthetic import make_planted_corpus, write_corpus

# A large-run trace whose pruned-basis column creeps back up near
# convergence; exercises both checker conditions including failures.
REFERENCE_TRACE = [
    IterationStats(1, 25476, 10435, 27614, 23006.0),
    IterationStats(2, 11131, 6168, 38570, 16307.7),
    IterationStats(3, 6549, 5985, 39629, 15348.1),
    IterationStats(4, 6064, 5990, 39654, 15326.1),
    IterationStats(5, 6053, 5991, 39654, 15326.1),
]


def basis_of(*texts):
    return frozenset(texts)


def syntax_bits(seq, cache, table):
    """Admissibility of each new word at its placements in this sequence.

    A word placed more than once must be admissible everywhere it is
    placed to count as accepted.
    """
    bits = {}
    for text, start, new in zip(seq.texts, (0, *seq.boundaries), seq.new):
        if not new:
            continue
        key = (text, start)
        if key not in cache:
            cache[key] = accepts_syntax(text, seq.name, start, table)
        bits[text] = bits.get(text, True) and cache[key]
    return bits


def choose(seqs, corpus_freq, cfg, cost_fn):
    """The oracle chooser: every candidate's full feature vector, costed."""
    demand = demand_shares(seqs)
    syntax_cache = {}
    costs = []
    for seq in seqs:
        bits = syntax_bits(seq, syntax_cache, cfg.char_table)
        fv = compute_features(seq, demand, corpus_freq, bits)
        costs.append(cost_fn(fv, cfg.resolved_weights, cfg.pav_inverted))
    return select_best(seqs, costs)


class TestGlobalCost:
    def test_reference_arithmetic(self):
        assert global_cost(6053, 39654, 25884) == pytest.approx(15326.2, abs=0.5)
        assert global_cost(5991, 39654, 25884) == pytest.approx(15169.0, abs=0.5)

    def test_zero_joins(self):
        assert global_cost(17, 0, 9) == 17.0

    def test_requires_names(self):
        with pytest.raises(ValueError):
            global_cost(1, 0, 0)


class TestTrivialCases:
    def test_case_a_distinct_letters(self):
        corpus = Corpus({"aba": 1, "bab": 2})
        # 2 letters, (3-1)+(3-1) joins over 2 names
        assert trivial_case_a(corpus) == pytest.approx(2 * (1 + 4 / 2))

    def test_case_b_is_name_count(self):
        corpus = Corpus({"rama": 3, "krishna": 1, "sita": 2})
        assert trivial_case_b(corpus) == 3.0


class TestSeedBasis:
    def test_threshold_is_fraction_of_max(self):
        corpus = Corpus({"rama": 10, "sita": 4, "gopal": 3})
        seeded = seed_basis(corpus, 0.4)
        assert seeded == {"rama", "sita"}

    def test_boundary_full_fraction(self):
        corpus = Corpus({"rama": 10, "sita": 9})
        assert seed_basis(corpus, 1.0) == {"rama"}

    def test_seed_is_orthogonalized(self):
        corpus = Corpus({"rama": 10, "ra": 10, "ma": 10})
        assert seed_basis(corpus, 1.0) == {"ra", "ma"}

    def test_k_validated(self):
        with pytest.raises(ValueError):
            seed_basis(Corpus({"rama": 1}), 0.0)

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            seed_basis(Corpus(), 0.4)


class TestIterationAlg1:
    def test_consonant_gap_keeps_whole_name(self):
        # the only split has a vowelless gap, so its syntax penalty
        # makes the unsplit sequence win
        corpus = Corpus({"abcd": 1})
        grown, pruned, stats, chosen = run_iteration_alg1(
            corpus, basis_of("ab"), RunConfig()
        )
        assert chosen["abcd"].texts == ("abcd",)
        assert grown == {"ab", "abcd"}
        assert stats.j_total == 0

    def test_fully_covered_corpus_does_not_grow(self):
        corpus = Corpus({"rama": 1})
        grown, pruned, stats, chosen = run_iteration_alg1(
            corpus, basis_of("ra", "ma"), RunConfig()
        )
        assert chosen["rama"].texts == ("ra", "ma")
        assert grown == {"ra", "ma"}
        assert stats.j_total == 1
        assert stats.b_m_size == stats.b_size == 2

    def test_corpus_demand_counts_a_text_once_per_name(self, monkeypatch):
        # xaxa places the new texts "a" and "xa" at two offsets each,
        # xax at one; each still counts once per name
        seen = []

        def capture(name, stops, table, corpus_freq, cfg, cost_fn):
            seen.append(corpus_freq)
            return choose_row(name, stops, table, corpus_freq, cfg, cost_fn)

        choose_row = engine._choose_row
        monkeypatch.setattr(engine, "_choose_row", capture)
        run_iteration_alg1(Corpus({"xaxa": 1, "xax": 1}), basis_of("x"), RunConfig())
        corpus_freq = seen[0]
        assert corpus_freq["a"] == corpus_freq["xa"] == 1.0
        assert corpus_freq["axa"] == 0.5
        assert max(corpus_freq.values()) == 1.0


class TestRunAlg1:
    def test_single_name_corpus_spans(self):
        corpus = Corpus({"rama": 1})
        basis, trace = run_alg1(corpus, RunConfig())
        assert is_constructible("rama", basis)
        assert trace[0].iteration == 1

    def test_planted_corpus_recovery(self):
        planted = make_planted_corpus(n_names=120, n_units=12, seed=7)
        basis, trace = run_alg1(planted.corpus, RunConfig(min_length=2))
        assert len(trace) <= 20
        assert is_ortho(basis)[0]
        for name in planted.corpus:
            assert is_constructible(name, basis)
        assert trace[-1].cost <= min(
            trivial_case_a(planted.corpus), trivial_case_b(planted.corpus)
        )

    def test_max_iterations_cap(self):
        corpus = Corpus({"rama": 1, "sita": 1})
        basis, trace = run_alg1(corpus, RunConfig(max_iterations=1))
        assert len(trace) == 1

    def test_epsilon_stops_after_first_round(self, caplog):
        corpus = make_planted_corpus(n_names=60, n_units=8, seed=3).corpus
        cfg = RunConfig(min_length=2)
        _, default_trace = run_alg1(corpus, cfg)
        assert len(default_trace) >= 2
        one_round, _ = run_alg1(corpus, dataclasses.replace(cfg, max_iterations=1))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="namebasis.engine"):
            basis, trace = run_alg1(corpus, dataclasses.replace(cfg, epsilon=10**9))
        assert len(trace) == 1
        assert not [r for r in caplog.records if "max_iterations" in r.getMessage()]
        assert basis == one_round

    def test_stats_join_consistency(self):
        planted = make_planted_corpus(n_names=60, n_units=8, seed=3)
        cfg = RunConfig(min_length=2)
        basis, trace = run_alg1(planted.corpus, cfg)
        # replay the final basis: chosen joins must match a fresh pass
        grown, pruned, stats, chosen = run_iteration_alg1(planted.corpus, basis, cfg)
        assert stats.j_total == sum(seq.eta_joins for seq in chosen.values())


class TestRunAlg2:
    def test_length_dominant_weights_pick_whole_name(self):
        corpus = Corpus({"abab": 1})
        basis, trace = run_alg2(
            corpus, RunConfig(algorithm="alg2", weights=WeightSet(1, 0, 0, 0))
        )
        assert basis == {"abab"}
        assert trace[-1].j_total == 0

    def test_unsplittable_name_kept_whole(self):
        corpus = Corpus({"abc": 1})
        basis, stats = run_alg2(corpus, RunConfig(algorithm="alg2"))
        assert basis == {"abc"}

    def test_spanning_and_orthogonality(self):
        planted = make_planted_corpus(n_names=40, n_units=8, seed=11)
        basis, stats = run_alg2(planted.corpus, RunConfig(algorithm="alg2", min_length=2))
        assert is_ortho(basis)[0]
        for name in planted.corpus:
            assert is_constructible(name, basis)

    def test_syntax_weighted_run(self):
        corpus = Corpus({"rama": 1, "ramana": 1})
        basis, stats = run_alg2(
            corpus, RunConfig(algorithm="alg2", weights=WeightSet(0.4, 0.3, 0.2, 0.1))
        )
        assert is_ortho(basis)[0]


def oracle_composition(name, cfg):
    """alg2's pick by scoring every composition as a full candidate."""
    seqs = enumerate_all(name, cfg.min_segment, cfg.include_whole, cap=cfg.cap)
    if not seqs:
        seqs = enumerate_with_basis(name, frozenset(), cap=1)
    return choose(seqs, None, cfg, cost_alg2)


def table_composition(name, cfg):
    table = composition_table(len(name), cfg.min_segment, cfg.include_whole, cfg.cap)
    return _choose_row(name, range(len(name) + 1), table, None, cfg, composition_cost)[0]


class TestCompositionOracle:
    @given(
        name=st.text(alphabet="ab", min_size=1, max_size=14),
        min_segment=st.integers(1, 3),
        include_whole=st.booleans(),
        cap=st.one_of(st.integers(1, 20), st.just(10**9)),
        weights=st.sampled_from(weight_grid(0.25)),
        pav_inverted=st.booleans(),
    )
    # The demand average must be summed left to right: a reversed sum
    # rounds differently and picks ('ab', 'b', 'b').
    @example("abbb", 1, False, 10**9, WeightSet(0.0, 0.25, 0.5, 0.25), True)
    # "aa" is rejected at offset 0 (a vowel-vowel join) but accepted at
    # 4, so ('aa', 'ab', 'aa') accepts none of its texts; counting the
    # placements alone would give it one in three and pick it.
    @example("aaabaa", 1, True, 10**9, WeightSet(0.0, 0.5, 0.25, 0.25), True)
    # Each way the chooser finds a demand share. With no length weight,
    # the scan costs every row, so it reaches every span. Every text of
    # "abcdef" is placed once; "anan" holds "an" at 0 and 2 and "aaaa"
    # holds "aa" at 0, 1 and 2, so they count the rows placing any of the
    # text's spans (each span's own count picks another row for both);
    # the rows "abab" keeps at cap 2 place "a" at 0 only, where the name
    # holds it at 2 too. "aaa" holds "aa" first at 0, and again at 1: a
    # name must be searched past a text's offset too. "abc" has one part
    # of at least 2 letters, so its one row is picked without costing.
    @example("abcdef", 2, True, 10**9, WeightSet(0.0, 0.0, 1.0, 0.0), False)
    @example("anan", 1, True, 10**9, WeightSet(0.0, 0.0, 0.5, 0.5), True)
    @example("aaaa", 1, False, 10**9, WeightSet(0.0, 0.0, 0.25, 0.75), False)
    @example("aaa", 1, True, 10**9, WeightSet(0.25, 0.0, 0.75, 0.0), True)
    @example("abab", 1, True, 2, WeightSet(0.0, 0.0, 1.0, 0.0), False)
    @example("abc", 2, True, 10**9, WeightSet(0.0, 0.0, 1.0, 0.0), False)
    @settings(max_examples=400)
    def test_matches_full_scoring(
        self, name, min_segment, include_whole, cap, weights, pav_inverted
    ):
        cfg = RunConfig(
            algorithm="alg2",
            min_segment=min_segment,
            include_whole=include_whole,
            cap=cap,
            weights=weights,
            pav_inverted=pav_inverted,
        )
        assert table_composition(name, cfg) == oracle_composition(name, cfg)

    @pytest.mark.parametrize(
        "weights, pav_inverted",
        [
            pytest.param(None, False, id="default"),
            pytest.param(WeightSet(0.2, 0.2, 0.2, 0.4), False, id="syntax"),
            pytest.param(WeightSet(0.2, 0.2, 0.2, 0.4), True, id="syntax-pav-inverted"),
        ],
    )
    def test_planted_corpus(self, weights, pav_inverted):
        planted = make_planted_corpus(n_names=150, n_units=30, seed=7)
        cfg = RunConfig(algorithm="alg2", weights=weights, pav_inverted=pav_inverted)
        for name in sorted(planted.corpus):
            assert table_composition(name, cfg) == oracle_composition(name, cfg)

    @pytest.mark.parametrize(
        "name, min_segment, include_whole",
        [
            ("ab", 3, True),  # shorter than min_segment
            ("abc", 2, False),  # no split and the whole name excluded
            ("abcde", 3, False),
        ],
    )
    def test_no_composition_keeps_name_whole(self, name, min_segment, include_whole):
        cfg = RunConfig(algorithm="alg2", min_segment=min_segment, include_whole=include_whole)
        chosen = table_composition(name, cfg)
        assert chosen == oracle_composition(name, cfg)
        assert chosen.texts == (name,)


class TestReachedSpans:
    """The chooser reads a span's demand share only when a costed row
    places it, and counts rows placing a text only for a text the name
    holds at more than one span, which the table keeps per span set."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Each ``rows_placing`` call: whether its count was kept already."""
        calls = []
        read = SegmentTable.rows_placing

        def counting(self, spans):
            calls.append(spans in self._placing)
            return read(self, spans)

        monkeypatch.setattr(SegmentTable, "rows_placing", counting)
        return calls

    # demand weight only, so the scan costs every row
    cfg = RunConfig(algorithm="alg2", weights=WeightSet(0.0, 0.0, 1.0, 0.0))

    def test_texts_placed_once_need_no_count(self, reads):
        table = composition_table(10, 2, True, self.cfg.cap)
        _, costed, _ = _choose_row("abcdefghij", range(11), table, None, self.cfg, composition_cost)
        assert costed == table.total == 34
        assert reads == []

    def test_a_text_held_twice_is_counted_once(self, reads):
        # "an" is two spans of "anan", placed by one of its two rows
        table = composition_table(4, 2, True, self.cfg.cap)
        chosen, costed, _ = _choose_row("anan", range(5), table, None, self.cfg, composition_cost)
        assert costed == table.total == 2
        assert reads == [False]
        assert chosen == oracle_composition("anan", self.cfg)
        # "inin" groups the spans alike: it reads the kept count, and no
        # second backward pass runs
        chosen, costed, _ = _choose_row("inin", range(5), table, None, self.cfg, composition_cost)
        assert costed == 2
        assert reads == [False, True]
        assert chosen == oracle_composition("inin", self.cfg)

    @pytest.mark.parametrize(
        "table, stops, picked",
        [
            pytest.param(
                composition_table(3, 2, True, 5000),
                range(4),
                SequenceCandidate("abc", (), ("abc",), (True,), 1),
                id="composition",
            ),
            pytest.param(
                tiling_table(2, frozenset({(0, 1), (1, 2)}), 5000, gaps=False),
                (0, 2, 4),
                SequenceCandidate("rama", (2,), ("ra", "ma"), (False, False), 0),
                id="covering-tiling",
            ),
        ],
    )
    def test_one_row_table_is_listed_not_costed(self, reads, table, stops, picked):
        assert table.total == 1
        assert _choose_row(picked.name, stops, table, None, self.cfg, composition_cost) == (
            picked, 0, 1
        )
        assert reads == []


# Each cost flavour as the table chooser takes it, and as the oracle does.
FLAVOURS = {"alg1": (tiling_cost, cost_alg1), "alg2": (composition_cost, cost_alg2)}


def oracle_demand(seqs_by_name, n_total):
    """run_iteration_alg1's corpus frequencies, from full candidates."""
    count = {}
    for seqs in seqs_by_name.values():
        for text in {t for seq in seqs for t, new in zip(seq.texts, seq.new) if new}:
            count[text] = count.get(text, 0) + 1
    return {text: c / n_total for text, c in count.items()}


def table_tiling(name, basis, corpus_freq, cfg, gaps, flavour):
    """The chooser's pick from the name's table built on its span pattern."""
    spans = candidate_words(name, basis, lengths_of(basis))
    stops, pattern = span_pattern(len(name), spans)
    table = tiling_table(len(stops) - 1, pattern, cfg.cap, gaps=gaps)
    return _choose_row(name, stops, table, corpus_freq, cfg, FLAVOURS[flavour][0])[0]


class TestTilingOracle:
    @given(
        name=st.text(alphabet="abe", min_size=1, max_size=10),
        basis=st.frozensets(st.text(alphabet="abe", min_size=1, max_size=3), max_size=6),
        cap=st.one_of(st.integers(1, 20), st.just(5000)),
        weights=st.sampled_from(weight_grid(0.25)),
        pav_inverted=st.booleans(),
        # at 10**10 names every share is below 1e-6, where _reciprocal
        # exceeds ZERO_PENALTY
        n_total=st.one_of(st.none(), st.integers(1, 9), st.just(10**10)),
        flavour=st.sampled_from(sorted(FLAVOURS)),
        gaps=st.booleans(),
    )
    # "bb" and "b b" tie on every term, so the whole name, placed first,
    # wins unless ties go to the fewer new segments.
    @example(
        "bb", frozenset({"b"}), 5000, WeightSet(0.0, 0.5, 0.5, 0.0), True, 5, "alg1", True
    )
    # The demand average must be summed left to right: a reversed sum
    # rounds differently and picks another covering tiling.
    @example(
        "bbbababa",
        frozenset({"bab", "aa", "a", "b"}),
        20,
        WeightSet(0.5, 0.0, 0.25, 0.25),
        False,
        None,
        "alg1",
        False,
    )
    # In "aa a b a" the gap "a" is rejected at offset 2 (a vowel-vowel
    # join) but accepted at 4, so that tiling accepts none of its new
    # texts; counting the placements alone would give it one in two.
    @example(
        "aaaba",
        frozenset({"aa", "b"}),
        5000,
        WeightSet(0.0, 0.5, 0.25, 0.25),
        True,
        8,
        "alg2",
        True,
    )
    # "ee" costs 0.5, and "e e" costs its first term, 0.5 / (2 / 2),
    # alone: the scan may stop only once that term is above the best.
    @example(
        "ee", frozenset({"e"}), 5000, WeightSet(0.5, 0.25, 0.0, 0.25), True, None, "alg2", True
    )
    # "aaea ba b" costs exactly its bound at syntax_avg = 1.0, which ties
    # the earlier "aaea b ab"; it has fewer new segments, so it must be
    # costed and win.
    @example(
        "aaeabab",
        frozenset({"b", "ba"}),
        5000,
        WeightSet(0.25, 0.25, 0.25, 0.25),
        True,
        None,
        "alg2",
        True,
    )
    # With no length weight the first term is 0 and never stops the
    # scan; the last, three-segment row wins.
    @example(
        "aab", frozenset({"a"}), 5000, WeightSet(0.0, 0.0, 1.0, 0.0), True, None, "alg1", True
    )
    # "e e b e" cannot beat "e e be" (0.486): its bound is 0.5. That ends
    # the scan of the rows with no new segment only; "eebe", one new
    # segment, costs 0.125 and wins.
    @example(
        "eebe", frozenset({"b", "e", "be"}), 5000, WeightSet(0.5, 0.5, 0.0, 0.0), False, None,
        "alg1", True,
    )
    # The scan costs the one covering row, of seven letters, first; "b
    # ebbaeb", two segments, one new, still wins.
    @example(
        "bebbaeb",
        frozenset({"a", "b", "e", "ebe"}),
        5000,
        WeightSet(0.75, 0.0, 0.0, 0.25),
        False,
        3,
        "alg1",
        True,
    )
    # With no new-word weight and inverted demand, a cell's bound is its
    # first term plus the demand weight; "b b abb", one new segment, beats
    # the covering rows of three to five segments, costed before it.
    @example(
        "bbabb",
        frozenset({"a", "b", "bb", "e"}),
        5000,
        WeightSet(0.5, 0.0, 0.5, 0.0),
        True,
        None,
        "alg1",
        True,
    )
    # Each way the chooser finds a demand share, with demand weight only,
    # so every row is costed: "babe" places each text once; "anan" by
    # "an" holds "an" at 0 and 2; "aaaa" by "aa" at 0, 1 and 2, where each
    # span's own count picks another row; "abab" by "aba" has the gap "b"
    # at 3 and no span at 1. "rama" by "ra" and "ma" has one covering row,
    # picked without costing.
    @example(
        "babe", frozenset({"ba", "be"}), 5000, WeightSet(0.0, 0.0, 1.0, 0.0), False, None,
        "alg1", True,
    )
    @example(
        "anan", frozenset({"an"}), 5000, WeightSet(0.0, 0.0, 1.0, 0.0), False, None, "alg1", True
    )
    @example(
        "aaaa", frozenset({"aa"}), 5000, WeightSet(0.0, 0.0, 1.0, 0.0), False, None, "alg1", True
    )
    @example(
        "abab", frozenset({"aba"}), 5000, WeightSet(0.0, 0.0, 1.0, 0.0), False, None, "alg2", True
    )
    @example(
        "rama", frozenset({"ra", "ma"}), 5000, WeightSet(0.0, 0.0, 1.0, 0.0), False, None,
        "alg1", False,
    )
    @settings(max_examples=400)
    def test_matches_full_scoring(
        self, name, basis, cap, weights, pav_inverted, n_total, flavour, gaps
    ):
        cfg = RunConfig(cap=cap, weights=weights, pav_inverted=pav_inverted)
        spans = candidate_words(name, basis, lengths_of(basis))
        seqs = enumerate_with_basis(name, spans, cap, gaps=gaps)
        if not seqs:
            return  # no covering tiling; segment_corpus falls back to gaps
        corpus_freq = None
        if n_total is not None:
            # any fixed share per new text, as count / n_total
            corpus_freq = {
                text: (1 + sum(map(ord, text)) % n_total) / n_total
                for seq in seqs
                for text, new in zip(seq.texts, seq.new)
                if new
            }
        assert table_tiling(name, basis, corpus_freq, cfg, gaps, flavour) == choose(
            seqs, corpus_freq, cfg, FLAVOURS[flavour][1]
        )

    @pytest.fixture(scope="class")
    def planted(self):
        corpus = make_planted_corpus(n_names=606, n_units=150, seed=7).corpus
        first = seed_basis(corpus, RunConfig().seed_fraction)
        _, second, _, _ = run_iteration_alg1(corpus, first, RunConfig())
        return corpus, {1: first, 2: second}

    @pytest.mark.parametrize("round_", [1, 2])
    @pytest.mark.parametrize(
        "weights, pav_inverted",
        [
            pytest.param(None, False, id="default"),
            pytest.param(WeightSet(0.2, 0.2, 0.2, 0.4), True, id="syntax-pav-inverted"),
            pytest.param(WeightSet(0.4, 0.3, 0.3, 0.0), False, id="no-extra"),
        ],
    )
    def test_planted_corpus(self, planted, round_, weights, pav_inverted):
        corpus, bases = planted
        basis = bases[round_]
        cfg = RunConfig(weights=weights, pav_inverted=pav_inverted)
        names = sorted(corpus)
        lengths = lengths_of(basis)
        gapped = {
            name: enumerate_with_basis(name, candidate_words(name, basis, lengths), cfg.cap)
            for name in names
        }
        corpus_freq = oracle_demand(gapped, corpus.total_unique)
        # run_iteration_alg1 also collects the corpus frequencies itself
        _, _, _, chosen = run_iteration_alg1(corpus, basis, cfg)
        assert chosen == {
            name: choose(seqs, corpus_freq, cfg, cost_alg1) for name, seqs in gapped.items()
        }
        for name, seqs in gapped.items():
            for flavour, (_, oracle_cost) in FLAVOURS.items():
                assert table_tiling(name, basis, None, cfg, True, flavour) == choose(
                    seqs, None, cfg, oracle_cost
                )
            covering = enumerate_with_basis(
                name, candidate_words(name, basis, lengths), cfg.cap, gaps=False
            )
            if covering:
                assert table_tiling(name, basis, None, cfg, False, "alg1") == choose(
                    covering, None, cfg, cost_alg1
                )


class TestSegmentCorpus:
    def test_all_segments_existing(self):
        planted = make_planted_corpus(n_names=50, n_units=8, seed=5)
        cfg = RunConfig(min_length=2)
        basis, _ = run_alg1(planted.corpus, cfg)
        chosen = segment_corpus(planted.corpus, basis, cfg)
        assert set(chosen) == set(planted.corpus)
        for name, seq in chosen.items():
            assert "".join(seq.texts) == seq.name
            assert seq.eta_new == 0
            assert all(text in basis for text in seq.texts)

    def test_covering_tiling_beyond_cap_of_gapped_ones(self, caplog):
        # the one gapped tiling "xy" comes first, the covering "x y" second
        with caplog.at_level(logging.WARNING, logger="namebasis.engine"):
            chosen = segment_corpus(
                Corpus({"xy": 1}), basis_of("x", "y"), RunConfig(cap=1, min_length=1)
            )
        assert chosen["xy"].texts == ("x", "y")
        assert not [r for r in caplog.records if "does not span" in r.getMessage()]

    def test_planted_alg2_names_written_in_basis_words(self, caplog):
        planted = make_planted_corpus(n_names=50, n_units=12, seed=7)
        cfg = RunConfig(
            algorithm="alg2",
            min_length=2,
            min_segment=1,
            cap=300,
            include_whole=False,
            pav_inverted=True,
            weights=WeightSet(0.2, 0.2, 0.2, 0.4),
        )
        basis, _ = run_alg2(planted.corpus, cfg)
        with caplog.at_level(logging.WARNING, logger="namebasis.engine"):
            chosen = segment_corpus(planted.corpus, basis, cfg)
        assert not [r for r in caplog.records if "does not span" in r.getMessage()]
        for seq in chosen.values():
            assert seq.eta_new == 0
            assert all(text in basis for text in seq.texts)


# alg2's pass on make_planted_corpus(150, 30, seed=7) at the default weights
ALG2_DEFAULTS_LINE = (
    "alg2: 2 of 150 names reached the candidate cap 5000; "
    f"42398 rows enumerated, {20 + 1 + 2} listed, "
    f"{150 - 12 + 9 * 1 + 10 * 2} costed in full"
)


class TestCapCount:
    def test_names_reaching_cap_logged_once_per_pass(self, caplog):
        # with cap 2, rama and ram have two tilings by "ra" and gopal one,
        # 5 tilings enumerated in each pass (none covers, so segmentation
        # reads the gapped ones); rama and ram place "ra" at 0 and share
        # one table, so 3 rows are listed; rama and gopal have two or more
        # compositions into parts >= 2, one table each. Each pass has one
        # one-row table (gopal's tilings, ram's compositions), listed but
        # not costed, so 4 rows are costed in full.
        corpus = Corpus({"rama": 1, "ram": 1, "gopal": 1})
        cfg = RunConfig(cap=2, min_length=2)
        basis = basis_of("ra")
        with caplog.at_level(logging.INFO, logger="namebasis.engine"):
            run_iteration_alg1(corpus, basis, cfg)
            run_alg2(corpus, dataclasses.replace(cfg, algorithm="alg2"))
            segment_corpus(corpus, basis, cfg)
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
            "alg1 iteration 1: 2 of 3 names reached the candidate cap 2; "
            "5 rows enumerated, 3 listed, 4 costed in full",
            "alg2: 2 of 3 names reached the candidate cap 2; "
            "5 rows enumerated, 5 listed, 4 costed in full",
            "segmentation: 2 of 3 names reached the candidate cap 2; "
            "5 rows enumerated, 3 listed, 4 costed in full",
        ]

    def test_segmentation_counts_covering_tilings_only(self, caplog):
        # rama has 4 covering tilings (ra ma, ra m a, r a ma, r a m a)
        # and more gapped ones; ra ma, the only two-part one, wins, and
        # the three-part rows' first term alone already costs more, so
        # they are counted but never listed
        corpus = Corpus({"rama": 1})
        with caplog.at_level(logging.INFO, logger="namebasis.engine"):
            segment_corpus(corpus, basis_of("ra", "ma", "r", "a", "m"), RunConfig())
        assert [r.getMessage() for r in caplog.records] == [
            "segmentation: 0 of 1 names reached the candidate cap 5000; "
            "4 rows enumerated, 1 listed, 1 costed in full",
        ]

    def test_alg1_lists_and_costs_cells_that_can_win(self, caplog):
        # Rows are costed fewest new segments first, and a cell is listed
        # only while its bound can still win; at the default weights each
        # new segment adds at least 2 * 0.3 to it. A scan by level alone
        # lists 301 and 316 rows and costs 264 and 276 of them. Names of
        # one span pattern share one table, whose cells are listed once
        # for all of them: a table per name lists 135 and 112 rows, a
        # table per length and span set 121 and 97. The 11 names of each
        # round whose table has one row list it but do not cost it.
        corpus = make_planted_corpus(n_names=60, n_units=12, seed=7).corpus
        with caplog.at_level(logging.INFO, logger="namebasis.engine"):
            run_alg1(corpus, RunConfig(min_length=2))
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
            "alg1 iteration 1: 0 of 60 names reached the candidate cap 5000; "
            "303 rows enumerated, 76 listed, 85 costed in full",
            "alg1 iteration 2: 0 of 60 names reached the candidate cap 5000; "
            "318 rows enumerated, 52 listed, 61 costed in full",
        ]

    def test_shared_survey_logs_each_pass_its_own_counts(self, caplog):
        # A second pass over one survey under other weights reads cells the
        # first listed, so it lists none, and logs its own 77 rows costed
        # (a fresh survey lists 40 for them), not 85 + 77.
        corpus = make_planted_corpus(n_names=60, n_units=12, seed=7).corpus
        cfg = RunConfig(min_length=2)
        other = dataclasses.replace(cfg, weights=WeightSet(0.1, 0.1, 0.1, 0.7))
        basis = seed_basis(corpus, cfg.seed_fraction)
        surveys = {}
        with caplog.at_level(logging.INFO, logger="namebasis.engine"):
            run_iteration_alg1(corpus, basis, cfg, surveys=surveys)
            run_iteration_alg1(corpus, basis, other, surveys=surveys)
            run_iteration_alg1(corpus, basis, other)
        head = "alg1 iteration 1: 0 of 60 names reached the candidate cap 5000; "
        assert [r.getMessage() for r in caplog.records] == [
            head + "303 rows enumerated, 76 listed, 85 costed in full",
            head + "303 rows enumerated, 0 listed, 77 costed in full",
            head + "303 rows enumerated, 40 listed, 77 costed in full",
        ]

    def test_round_counts_do_not_depend_on_earlier_work(self, caplog):
        # a grid on another corpus in between leaves the round's line as it was
        corpus = make_planted_corpus(n_names=60, n_units=12, seed=7).corpus
        other = make_planted_corpus(n_names=40, n_units=8, seed=3).corpus
        cfg = RunConfig(min_length=2)
        basis = seed_basis(corpus, cfg.seed_fraction)
        with caplog.at_level(logging.INFO, logger="namebasis.engine"):
            run_iteration_alg1(corpus, basis, cfg)
            grid_search_weights(other, dataclasses.replace(cfg, max_iterations=3), weight_grid(0.5))
            run_iteration_alg1(corpus, basis, cfg)
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert len(messages) > 3
        assert messages[0] == messages[-1] == (
            "alg1 iteration 1: 0 of 60 names reached the candidate cap 5000; "
            "303 rows enumerated, 76 listed, 85 costed in full"
        )

    def test_tables_list_nothing_when_built(self):
        # The cap cuts level 6 of a 23-letter name's compositions after
        # 1,612 rows and level 5 of a gapped tiling after 44 of its 56.
        # Building either lists no row; the cut level's cells, listed on
        # demand, together list exactly the rows the cap keeps.
        name = "abc" * 4
        spans = candidate_words(name, {"ab", "bc", "ca", "abc"}, [2, 3])
        tables = [
            composition_table(23, 2, True, 5000),
            tiling_table(len(name), spans, 100, gaps=True),
        ]
        assert [table.listed for table in tables] == [0, 0]
        uncapped = [
            composition_table(23, 2, True, None),
            tiling_table(len(name), spans, 10**9, gaps=True),
        ]
        for table, whole, cut, kept in zip(tables, uncapped, (6, 5), (1612, 44)):
            assert (len(table.levels) - 1, table.levels[cut]) == (cut, kept)
            assert whole.levels[cut] > kept
            for e, levels in enumerate(table.cells):
                if cut in levels:
                    table.cell(cut, e)
            assert table.listed == kept

    def test_alg2_defaults_cost_few_rows_past_the_whole_name(self, caplog):
        # At the default weights the whole name wins, at 0.4 / n + 0.3 /
        # rows. A k-part row costs at least 0.4 k / n, so the scan stops
        # at the first two-part row, except on the 9 names of 4 letters
        # and 10 of 5, whose 1 and 2 two-part rows are costed too. The 12
        # names of 2 and 3 letters have the whole name as their one row,
        # which is listed but not costed.
        # Listed: the whole-name row of each of the 20 name lengths and
        # the two-part rows of lengths 4 and 5. The cut six-part levels of
        # the two capped names (22 and 23 letters) are counted along
        # their last kept row and never listed.
        corpus = make_planted_corpus(n_names=150, n_units=30, seed=7).corpus
        with caplog.at_level(logging.INFO, logger="namebasis.engine"):
            _, [stats] = run_alg2(corpus, RunConfig(algorithm="alg2", min_length=2))
        assert stats.j_total == 0
        assert [r.getMessage() for r in caplog.records] == [ALG2_DEFAULTS_LINE]

    def test_alg2_run_reports_only_its_own_work(self, caplog):
        # a second run in one process builds and lists its own tables, so it
        # logs the same counts as the first
        corpus = make_planted_corpus(n_names=150, n_units=30, seed=7).corpus
        cfg = RunConfig(algorithm="alg2", min_length=2)
        with caplog.at_level(logging.INFO, logger="namebasis.engine"):
            first = run_alg2(corpus, cfg)
            second = run_alg2(corpus, cfg)
        assert first == second
        assert [r.getMessage() for r in caplog.records] == [ALG2_DEFAULTS_LINE] * 2


class TestSharedTables:
    """Names of one span pattern share one tiling table per pass."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []

        def counting(n, spans, cap, *, gaps):
            built.append((n, spans, gaps))
            return tiling_table(n, spans, cap, gaps=gaps)

        monkeypatch.setattr(engine, "tiling_table", counting)
        return built

    def test_alg1_round_builds_one_table_per_span_pattern(self, builds):
        # mara places "ra" at 2 of 4 letters, between stops 1 and 2 of
        # (0, 2, 4); rama at 0 of 4 and ramas at 0 of 5, both between
        # stops 0 and 1, of (0, 2, 4) and (0, 2, 5): one table for both
        corpus = Corpus({"mara": 1, "rama": 1, "ramas": 1})
        _, _, _, chosen = run_iteration_alg1(corpus, basis_of("ra"), RunConfig())
        assert builds == [
            (2, frozenset({(1, 2)}), True),
            (2, frozenset({(0, 1)}), True),
        ]
        assert {name: seq.texts for name, seq in chosen.items()} == {
            "mara": ("ma", "ra"),
            "rama": ("ra", "ma"),
            "ramas": ("ramas",),
        }

    def test_shared_table_counts_and_picks_per_name(self, builds, monkeypatch):
        # abab places the text "ab" twice, abcd each text once; both tile
        # as spans (0, 2) and (2, 4), so one table serves both names, and
        # the cells the first name lists are not listed again for the second
        seen = {}

        def capture(name, stops, table, corpus_freq, cfg, cost_fn):
            returned = choose_row(name, stops, table, corpus_freq, cfg, cost_fn)
            seen[name] = stops, table, corpus_freq, returned
            return returned

        choose_row = engine._choose_row
        monkeypatch.setattr(engine, "_choose_row", capture)
        cfg = RunConfig()
        _, _, _, chosen = run_iteration_alg1(
            Corpus({"abab": 1, "abcd": 1}), basis_of("ab", "cd"), cfg
        )
        assert len(builds) == 1
        assert seen["abab"][1] is seen["abcd"][1]
        offsets = range(5)
        groups = {}
        for name, (stops, shared, corpus_freq, returned) in seen.items():
            assert stops == (0, 2, 4)
            alone = tiling_table(4, frozenset({(0, 2), (2, 4)}), cfg.cap, gaps=True)
            assert shared.total == alone.total
            picked, costed, listed = choose_row(name, offsets, alone, corpus_freq, cfg, tiling_cost)
            assert returned[:2] == (chosen[name], costed) and picked == chosen[name]
            assert listed == alone.listed > 0
            placed = [
                tuple(zip((0, *seq.boundaries), (*seq.boundaries, 4)))
                for seq in alone.candidates(name, offsets)
            ]
            groups[name] = check_rows_placing(shared, name, stops, placed)
            assert groups[name] == check_rows_placing(alone, name, offsets, placed)
        assert len(groups["abab"]["ab"]) == 2
        assert max(map(len, groups["abcd"].values())) == 1
        assert [returned[2] for *_, returned in seen.values()] == [seen["abab"][1].listed, 0]

    @given(
        first=st.text(alphabet="abcdn", min_size=1, max_size=8),
        # the second name: for compositions, this text cut to the first's
        # length; for tilings, the first with each of a, b, c, d, n relabeled
        other=st.text(alphabet="abcdn", min_size=8, max_size=8),
        relabel=st.text(alphabet="abcdn", min_size=5, max_size=5),
        # a basis and gaps, or a minimum part and include_whole
        tiled=st.one_of(
            st.tuples(
                st.frozensets(st.text(alphabet="abcdn", min_size=1, max_size=3), max_size=5),
                st.booleans(),
            ),
            st.tuples(st.integers(1, 3), st.booleans()),
        ),
        cap=st.one_of(st.integers(1, 20), st.just(5000)),
        weights=st.sampled_from(weight_grid(0.25)),
        pav_inverted=st.booleans(),
    )
    # "abab" groups the spans of "ab" (stops 0 to 1 and 1 to 2 of (0, 2,
    # 4)), "abcd" keeps them apart; "anan" groups the compositions' spans
    # of "an", "anna" none
    @example(
        "abcd", "aaaaaaaa", "ababn", (frozenset({"ab", "cd"}), True), 5000,
        WeightSet(0.0, 0.0, 1.0, 0.0), False,
    )
    @example("anna", "anannnnn", "abcdn", (2, True), 5000, WeightSet(0.0, 0.0, 1.0, 0.0), False)
    @example("anna", "anannnnn", "abcdn", (1, False), 5000, WeightSet(0.0, 0.0, 0.5, 0.5), True)
    @settings(max_examples=300)
    def test_names_sharing_a_table_choose_as_alone(
        self, first, other, relabel, tiled, cap, weights, pav_inverted
    ):
        """Two names that share a table, its listed cells and its kept
        ``rows_placing`` counts, in either order, choose as on a fresh one."""
        n = len(first)
        cfg = RunConfig(cap=cap, weights=weights, pav_inverted=pav_inverted)
        corpus_freq = None
        if isinstance(tiled[0], int):
            second = other[:n]
            stops = range(n + 1)
            cost_fn = composition_cost

            def build():
                return composition_table(n, *tiled, cap)

        else:
            basis, gaps = tiled
            letters = str.maketrans("abcdn", relabel)
            second = first.translate(letters)
            stops, pattern = span_pattern(n, candidate_words(first, basis, lengths_of(basis)))
            relabeled = {word.translate(letters) for word in basis}
            spans = candidate_words(second, relabeled, lengths_of(relabeled))
            assume(span_pattern(n, spans) == (stops, pattern))
            cost_fn = tiling_cost

            def build():
                return tiling_table(len(stops) - 1, pattern, cap, gaps=gaps)

            table = build()
            new = [
                name[stops[start] : stops[end]]
                for name in (first, second)
                for (start, end), is_new in zip(table.spans, table.new)
                if is_new
            ]
            # any fixed share per new text
            corpus_freq = {text: (1 + sum(map(ord, text)) % 3) / 3 for text in new}
        alone = {
            name: _choose_row(name, stops, build(), corpus_freq, cfg, cost_fn)
            for name in (first, second)
        }
        listed = set()
        for one, two in ((first, second), (second, first)):
            shared = build()
            picked = _choose_row(one, stops, shared, corpus_freq, cfg, cost_fn)
            assert picked == alone[one]
            picked = _choose_row(two, stops, shared, corpus_freq, cfg, cost_fn)
            assert picked[:2] == alone[two][:2]
            # the second name lists only the cells the first left unlisted
            assert alone[one][2] + picked[2] == shared.listed
            assert max(alone[one][2], alone[two][2]) <= shared.listed
            assert shared.listed <= alone[one][2] + alone[two][2]
            listed.add(shared.listed)
        assert len(listed) == 1

    def test_segmentation_warns_for_each_unspanned_name(self, builds, caplog):
        corpus = Corpus({"abxy": 1, "abzw": 1})
        with caplog.at_level(logging.WARNING, logger="namebasis.engine"):
            chosen = segment_corpus(corpus, basis_of("ab"), RunConfig())
        assert [r.getMessage() for r in caplog.records] == [
            "basis does not span 'abxy'; keeping a gapped sequence",
            "basis does not span 'abzw'; keeping a gapped sequence",
        ]
        pattern = frozenset({(0, 1)})  # "ab" from stop 0 to stop 1 of (0, 2, 4)
        assert builds == [(2, pattern, False), (2, pattern, True)]
        # each name reads its own texts from the shared gapped table
        assert {name: seq.texts for name, seq in chosen.items()} == {
            "abxy": ("abxy",),
            "abzw": ("abzw",),
        }

    def test_segmentation_reuses_the_last_rounds_patterns(self, tmp_path, monkeypatch):
        # A converged alg1 run ends on the basis its last round surveyed,
        # so induce finds each name's basis words in the survey passes
        # only, and segments with the patterns the last one found.
        planted = make_planted_corpus(n_names=60, n_units=8, seed=41)
        names = tmp_path / "names.tsv"
        write_corpus(planted, names, format="name_freq")
        config = tmp_path / "run.cfg"
        config.write_text("min_length = 2\n", encoding="utf-8")
        calls = []

        def counting(name, words, lengths):
            calls.append(name)
            return find(name, words, lengths)

        find = engine.candidate_words
        monkeypatch.setattr(engine, "candidate_words", counting)
        out = tmp_path / "out"
        assert cli.main(
            ["induce", "--names", str(names), "--input-format", "name_freq",
             "--config", str(config), "--out", str(out)]
        ) == 0
        trace = cli.read_stats_csv(out / "stats.csv")
        assert len(trace) < RunConfig().max_iterations  # a fixed point, as epsilon is 0
        corpus = planted.corpus
        names_seen = sorted(corpus)
        assert calls == names_seen * len(trace)
        # the patterns give the segmentation a fresh scan would
        monkeypatch.setattr(engine, "candidate_words", find)
        cfg = RunConfig(min_length=2)
        patterns = {}
        basis, _ = run_alg1(corpus, cfg, patterns=patterns)
        assert list(patterns) == names_seen
        assert segment_corpus(corpus, basis, cfg, patterns=patterns) == segment_corpus(
            corpus, basis, cfg
        )


class TestCheckConvergence:
    def test_reference_trace_flags(self):
        report = check_convergence(REFERENCE_TRACE)
        assert [step.product_nonincreasing for step in report] == [True] * 4
        assert [step.basis_nonincreasing for step in report] == [True, True, False, False]

    def test_constant_trace_passes(self):
        trace = [IterationStats(i, 10, 10, 5, 15.0) for i in (1, 2, 3)]
        report = check_convergence(trace)
        assert all(s.basis_nonincreasing and s.product_nonincreasing for s in report)

    def test_short_trace_empty_report(self):
        assert check_convergence(REFERENCE_TRACE[:1]) == []


class TestWeightGrid:
    def test_step_tenth_has_286_points(self):
        grid = weight_grid(0.1)
        assert len(grid) == 286
        assert len(set(grid)) == 286

    def test_step_one_gives_unit_vectors(self):
        grid = weight_grid(1.0)
        assert [w.as_tuple() for w in grid] == [
            (0.0, 0.0, 0.0, 1.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
            (1.0, 0.0, 0.0, 0.0),
        ]

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            weight_grid(0.3)

    @pytest.mark.parametrize("step", [0.0, -0.5, float("nan")])
    def test_non_positive_step_rejected(self, step):
        with pytest.raises(ValueError, match="must be positive"):
            weight_grid(step)


class TestGridSearch:
    def test_deterministic_best_on_tiny_corpus(self):
        planted = make_planted_corpus(n_names=12, n_units=4, seed=2)
        cfg = RunConfig(min_length=2, max_iterations=5)
        best1, table1 = grid_search_weights(planted.corpus, cfg, weight_grid(0.5))
        best2, table2 = grid_search_weights(planted.corpus, cfg, weight_grid(0.5))
        assert best1 == best2
        assert table1 == table2
        assert len(table1) == 10  # compositions of 2 into 4 parts, C(5,3)
        best_cost = min(cost for _, cost in table1)
        assert dict(table1)[best1] == best_cost


class TestGridSurveys:
    """A survey kept per input basis for the whole grid changes nothing."""

    @pytest.fixture(scope="class")
    def planted(self):
        corpus = make_planted_corpus(n_names=60, n_units=10, seed=3).corpus
        return corpus, RunConfig(min_length=2, max_iterations=6)

    def test_matches_a_fresh_run_per_weight_set(self, planted):
        corpus, cfg = planted
        grid = weight_grid(0.5)
        best, table = grid_search_weights(corpus, cfg, grid)
        fresh = [run_alg1(corpus, dataclasses.replace(cfg, weights=w)) for w in grid]
        assert table == [(w, trace[-1].cost) for w, (_, trace) in zip(grid, fresh)]
        keys = [(trace[-1].cost, len(basis), i) for i, (basis, trace) in enumerate(fresh)]
        assert best == grid[min(keys)[2]]

    def test_rounds_logged_and_surveys_counted(self, planted, caplog, monkeypatch):
        corpus, cfg = planted
        inputs = []
        round_ = engine.run_iteration_alg1

        def spy(corpus, basis, *args, **kwargs):
            inputs.append(basis)
            return round_(corpus, basis, *args, **kwargs)

        monkeypatch.setattr(engine, "run_iteration_alg1", spy)
        with caplog.at_level(logging.INFO, logger="namebasis.engine"):
            grid_search_weights(corpus, cfg, weight_grid(0.5))
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        rounds, built = len(inputs), len(set(inputs))
        assert 1 < built < rounds
        # each round logs its line, whether its survey is built or reused
        assert sum(m.startswith("alg1 iteration ") for m in messages) == rounds
        assert messages[-1] == (
            f"grid search: {built} alg1 surveys built, "
            f"{rounds - built} reused over {rounds} rounds"
        )

    def test_alg2_builds_one_table_per_length_for_the_grid(self, planted, caplog, monkeypatch):
        # alg2's one survey, under the empty basis, holds one table per name length
        corpus, cfg = planted
        cfg = dataclasses.replace(cfg, algorithm="alg2")
        grid = weight_grid(0.5)
        built = []

        def counting(n, *args):
            built.append(n)
            return composition_table(n, *args)

        monkeypatch.setattr(engine, "composition_table", counting)
        with caplog.at_level(logging.INFO, logger="namebasis.engine"):
            best, table = grid_search_weights(corpus, cfg, grid)
        assert sorted(built) == sorted({len(name) for name in corpus})
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert messages[-1] == "grid search: 1 alg2 surveys built, 9 reused over 10 rounds"
        monkeypatch.undo()
        fresh = [run_alg2(corpus, dataclasses.replace(cfg, weights=w)) for w in grid]
        assert table == [(w, trace[-1].cost) for w, (_, trace) in zip(grid, fresh)]
        keys = [(trace[-1].cost, len(basis), i) for i, (basis, trace) in enumerate(fresh)]
        assert best == grid[min(keys)[2]]


class TestDeterminismAcrossWorkers:
    def test_threaded_run_is_bit_identical(self):
        planted = make_planted_corpus(n_names=80, n_units=10, seed=13)
        serial_cfg = RunConfig(min_length=2, workers=1)
        threaded_cfg = RunConfig(min_length=2, workers=4)
        basis1, trace1 = run_alg1(planted.corpus, serial_cfg)
        basis2, trace2 = run_alg1(planted.corpus, threaded_cfg)
        assert basis1 == basis2
        assert trace1 == trace2


class TestRunConfig:
    def test_defaults_resolve_weights_per_algorithm(self):
        assert RunConfig().resolved_weights.as_tuple() == (0.4, 0.2, 0.1, 0.3)
        assert RunConfig(algorithm="alg2").resolved_weights.as_tuple() == (0.4, 0.3, 0.3, 0.0)

    def test_from_mapping(self):
        cfg = RunConfig.from_mapping(
            {
                "algorithm": "alg2",
                "weights": "0.25,0.25,0.25,0.25",
                "cap": "100",
                "include_whole": "false",
                "pav_inverted": "true",
                "vowels": "aeiouy",
            }
        )
        assert cfg.algorithm == "alg2"
        assert cfg.weights == WeightSet(0.25, 0.25, 0.25, 0.25)
        assert cfg.cap == 100
        assert cfg.include_whole is False
        assert cfg.pav_inverted is True
        assert "y" in cfg.char_table.vowels

    def test_bad_values_raise_config_error(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"weights": "0.9,0.9,0.9,0.9"})
        with pytest.raises(ValueError):
            RunConfig(algorithm="alg3")
        with pytest.raises(ValueError):
            RunConfig(seed_fraction=0.0)

    def test_vowel_commas_and_spaces_are_separators(self):
        cfg = RunConfig.from_mapping({"vowels": "a, e, i"})
        assert cfg.char_table.vowels == {"a", "e", "i"}

    def test_short_digraph_rejected(self):
        with pytest.raises(ConfigError, match="two letters"):
            RunConfig.from_mapping({"digraphs": "sh, t, "})

    @pytest.mark.parametrize(
        "key, value",
        [("vowels", ""), ("vowels", "a;e;i"), ("vowels", "1, 2"), ("digraphs", "1a, s-")],
    )
    def test_malformed_char_classes_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            RunConfig.from_mapping({key: value})

    def test_empty_digraph_list_allowed(self):
        assert RunConfig.from_mapping({"digraphs": ""}).char_table.digraphs == frozenset()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="max_iteration"):
            RunConfig.from_mapping({"max_iteration": "5"})

    @pytest.mark.parametrize("key", ["cap", "min_segment", "min_length"])
    def test_sizes_at_least_one(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be >= 1"):
            RunConfig.from_mapping({key: "0"})
        with pytest.raises(ValueError):
            RunConfig(**{key: -1})
        assert getattr(RunConfig.from_mapping({key: "1"}), key) == 1

    def test_readme_keys_block_is_a_config_of_the_defaults(self, tmp_path):
        # the README's "Keys and defaults" block, pasted as a config file,
        # sets every key but weights, whose default depends on the algorithm
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        path = tmp_path / "run.cfg"
        path.write_text(readme.split("Keys and defaults", 1)[1].split("```\n")[1], encoding="utf-8")
        values = read_kv(path)
        cfg, default = RunConfig.from_mapping(values), RunConfig()
        keys = {f.name for f in dataclasses.fields(RunConfig)} - {"weights", "char_table"}
        assert set(values) == keys | set(CharClassTable.KEYS)
        for f in dataclasses.fields(RunConfig):
            assert getattr(cfg, f.name) == getattr(default, f.name), f.name

    def test_workers_accepted(self):
        assert RunConfig.from_mapping({"workers": "2"}).workers == 2
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"workers": "0"})

    def test_stats_product_field(self):
        stats = IterationStats(1, 25476, 10435, 27614, 23006.0)
        assert stats.b_m_times_j == 25476 * 27614


@st.composite
def small_corpora(draw):
    names = draw(
        st.sets(st.text(alphabet="abcdeio", min_size=3, max_size=8), min_size=1, max_size=12)
    )
    return Corpus({name: draw(st.integers(1, 9)) for name in names})


@given(small_corpora())
@settings(max_examples=40)
def test_induced_basis_always_spans_and_is_orthogonal(corpus):
    basis, trace = run_alg1(corpus, RunConfig(max_iterations=6))
    assert is_ortho(basis)[0]
    for name in corpus:
        assert is_constructible(name, basis)
    assert trace[-1].cost <= trivial_case_b(corpus)

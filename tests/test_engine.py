import dataclasses
import logging

import pytest
from hypothesis import example, given, settings, strategies as st

from namebasis import engine
from namebasis.config import ConfigError
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
from namebasis.ortho import Basis, is_constructible, is_ortho
from namebasis.segmenter import (
    basis_tilings,
    candidate_words,
    composition_table,
    enumerate_all,
    enumerate_with_basis,
    tiling_table,
)
from namebasis.syntax import accepts_syntax
from namebasis.synthetic import make_planted_corpus

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
    return Basis(texts)


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

    def test_case_a_full_alphabet_matches_plain_cost(self):
        corpus = Corpus({"rama": 3, "krishna": 1})
        joins = sum(len(n) - 1 for n in corpus)
        assert trivial_case_a(corpus, full_alphabet=True) == global_cost(
            26, joins, corpus.total_unique
        )

    def test_case_b_is_name_count(self):
        corpus = Corpus({"rama": 3, "krishna": 1, "sita": 2})
        assert trivial_case_b(corpus) == 3.0


class TestSeedBasis:
    def test_threshold_is_fraction_of_max(self):
        corpus = Corpus({"rama": 10, "sita": 4, "gopal": 3})
        seeded = seed_basis(corpus, 0.4)
        assert seeded.texts == {"rama", "sita"}

    def test_boundary_full_fraction(self):
        corpus = Corpus({"rama": 10, "sita": 9})
        assert seed_basis(corpus, 1.0).texts == {"rama"}

    def test_seed_is_orthogonalized(self):
        corpus = Corpus({"rama": 10, "ra": 10, "ma": 10})
        assert seed_basis(corpus, 1.0).texts == {"ra", "ma"}

    def test_k_validated(self):
        with pytest.raises(ValueError):
            seed_basis(Corpus({"rama": 1}), 0.0)


class TestIterationAlg1:
    def test_consonant_gap_keeps_whole_name(self):
        # the only split has a vowelless gap, so its syntax penalty
        # makes the unsplit sequence win
        corpus = Corpus({"abcd": 1})
        grown, pruned, stats, chosen = run_iteration_alg1(
            corpus, basis_of("ab"), RunConfig()
        )
        assert chosen["abcd"].texts == ("abcd",)
        assert grown.texts == {"ab", "abcd"}
        assert stats.j_total == 0

    def test_fully_covered_corpus_does_not_grow(self):
        corpus = Corpus({"rama": 1})
        grown, pruned, stats, chosen = run_iteration_alg1(
            corpus, basis_of("ra", "ma"), RunConfig()
        )
        assert chosen["rama"].texts == ("ra", "ma")
        assert grown.texts == {"ra", "ma"}
        assert stats.j_total == 1
        assert stats.b_m_size == stats.b_size == 2

    def test_corpus_demand_counts_a_text_once_per_name(self, monkeypatch):
        # xaxa places the new texts "a" and "xa" at two offsets each,
        # xax at one; each still counts once per name
        seen = []

        def capture(name, table, existing_spans, corpus_freq, cfg, cost_fn):
            seen.append(corpus_freq)
            return choose_row(name, table, existing_spans, corpus_freq, cfg, cost_fn)

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
        assert is_constructible("rama", basis.texts)
        assert trace[0].iteration == 1

    def test_planted_corpus_recovery(self):
        planted = make_planted_corpus(n_names=120, n_units=12, seed=7)
        basis, trace = run_alg1(planted.corpus, RunConfig(min_length=2))
        assert len(trace) <= 20
        assert is_ortho(basis)[0]
        for name in planted.corpus:
            assert is_constructible(name, basis.texts)
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
        assert basis.texts == one_round.texts

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
        assert basis.texts == {"abab"}
        assert trace[-1].j_total == 0

    def test_unsplittable_name_kept_whole(self):
        corpus = Corpus({"abc": 1})
        basis, stats = run_alg2(corpus, RunConfig(algorithm="alg2"))
        assert basis.texts == {"abc"}

    def test_spanning_and_orthogonality(self):
        planted = make_planted_corpus(n_names=40, n_units=8, seed=11)
        basis, stats = run_alg2(planted.corpus, RunConfig(algorithm="alg2", min_length=2))
        assert is_ortho(basis)[0]
        for name in planted.corpus:
            assert is_constructible(name, basis.texts)

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
        seqs = enumerate_with_basis(name, {}, cap=1)
    return choose(seqs, None, cfg, cost_alg2)


def table_composition(name, cfg):
    table = composition_table(len(name), cfg.min_segment, cfg.include_whole, cfg.cap)
    return _choose_row(name, table, frozenset(), None, cfg, composition_cost)


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
    spans, tilings = basis_tilings(name, candidate_words(name, basis), cfg.cap, gaps=gaps)
    table = tiling_table(name, spans, tilings)
    return _choose_row(name, table, spans, corpus_freq, cfg, FLAVOURS[flavour][0])


class TestTilingOracle:
    @given(
        name=st.text(alphabet="abe", min_size=1, max_size=10),
        basis=st.frozensets(st.text(alphabet="abe", min_size=1, max_size=3), max_size=6),
        cap=st.one_of(st.integers(1, 20), st.just(5000)),
        weights=st.sampled_from(weight_grid(0.25)),
        pav_inverted=st.booleans(),
        n_total=st.one_of(st.none(), st.integers(1, 9)),
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
    @settings(max_examples=400)
    def test_matches_full_scoring(
        self, name, basis, cap, weights, pav_inverted, n_total, flavour, gaps
    ):
        cfg = RunConfig(cap=cap, weights=weights, pav_inverted=pav_inverted)
        seqs = enumerate_with_basis(name, candidate_words(name, basis), cap, gaps=gaps)
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
        gapped = {
            name: enumerate_with_basis(name, candidate_words(name, basis), cfg.cap)
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
                name, candidate_words(name, basis), cfg.cap, gaps=False
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


class TestCapCount:
    def test_names_reaching_cap_logged_once_per_pass(self, caplog):
        # with cap 2, rama and ram have two tilings by "ra" and gopal one,
        # 5 tilings costed in each pass (none covers, so segmentation
        # costs the gapped ones); rama and gopal have two or more
        # compositions into parts >= 2
        corpus = Corpus({"rama": 1, "ram": 1, "gopal": 1})
        cfg = RunConfig(cap=2, min_length=2)
        basis = basis_of("ra")
        with caplog.at_level(logging.INFO, logger="namebasis.engine"):
            run_iteration_alg1(corpus, basis, cfg)
            run_alg2(corpus, dataclasses.replace(cfg, algorithm="alg2"))
            segment_corpus(corpus, basis, cfg)
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
            "alg1 iteration 1: 2 of 3 names reached the candidate cap 2; 5 tilings costed",
            "alg2: 2 of 3 names reached the candidate cap 2",
            "segmentation: 2 of 3 names reached the candidate cap 2; 5 tilings costed",
        ]

    def test_segmentation_counts_covering_tilings_only(self, caplog):
        # rama has 4 covering tilings (ra ma, ra m a, r a ma, r a m a)
        # and more gapped ones
        corpus = Corpus({"rama": 1})
        with caplog.at_level(logging.INFO, logger="namebasis.engine"):
            segment_corpus(corpus, basis_of("ra", "ma", "r", "a", "m"), RunConfig())
        assert [r.getMessage() for r in caplog.records] == [
            "segmentation: 0 of 1 names reached the candidate cap 5000; 4 tilings costed",
        ]


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


class TestDeterminismAcrossWorkers:
    def test_threaded_run_is_bit_identical(self):
        planted = make_planted_corpus(n_names=80, n_units=10, seed=13)
        serial_cfg = RunConfig(min_length=2, workers=1)
        threaded_cfg = RunConfig(min_length=2, workers=4)
        basis1, trace1 = run_alg1(planted.corpus, serial_cfg)
        basis2, trace2 = run_alg1(planted.corpus, threaded_cfg)
        assert basis1.texts == basis2.texts
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
        assert is_constructible(name, basis.texts)
    assert trace[-1].cost <= trivial_case_b(corpus)

"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_tilings
from namebasis.corpus import Corpus
from namebasis.engine import (
    IterationStats,
    RunConfig,
    check_convergence,
    global_cost,
    grid_search_weights,
    run_alg1,
    run_iteration_alg1,
    segment_corpus,
    trivial_case_a,
    trivial_case_b,
    weight_grid,
)
from namebasis.features import compute_features
from namebasis.lexicon import TranscriptionEntry, compose
from namebasis.ortho import (
    is_constructible,
    is_ortho,
    make_ortho,
)
from namebasis.segmenter import candidate_words, enumerate_all, enumerate_with_basis, word_heads
from namebasis.synthetic import make_planted_corpus
from namebasis.syntax import accepts_syntax

KRISHNA_POOL = frozenset(
    {"krishn", "krish", "rish", "kris", "ris", "ish", "hna", "na", "kr", "hn", "is", "ri", "sh"}
)

GOPAL_SPLITS = [
    "g opal", "go pal", "gop al", "gopa l",
    "g o pal", "g op al", "g opa l", "go p al", "go pa l", "gop a l",
    "g o p al", "g o pa l", "g op a l", "go p a l",
    "g o p a l",
]

TABLE1 = [
    IterationStats(1, 25476, 10435, 27614, 23006.0),
    IterationStats(2, 11131, 6168, 38570, 16307.7),
    IterationStats(3, 6549, 5985, 39629, 15348.1),
    IterationStats(4, 6064, 5990, 39654, 15326.1),
    IterationStats(5, 6053, 5991, 39654, 15326.1),
]


def report(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_01_golden_krishna():
    started = time.perf_counter()
    assert is_constructible("krishna", KRISHNA_POOL)
    # the constructions are the covering tilings by the pool's occurrences
    spans = candidate_words("krishna", KRISHNA_POOL, word_heads(KRISHNA_POOL))
    covering = enumerate_with_basis("krishna", spans, 2 ** len("krishna"), gaps=False)
    assert len(covering) == 4
    pruned = make_ortho(frozenset(KRISHNA_POOL | {"krishna"}))
    assert "krishna" not in pruned
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "golden krishna")


def test_02_golden_gopal():
    seqs = enumerate_all("gopal", min_segment=1, include_whole=False)
    assert [" ".join(s.texts) for s in seqs] == GOPAL_SPLITS
    pair = enumerate_all("gopal", min_segment=2, include_whole=False)
    assert [s.texts for s in pair] == [("go", "pal"), ("gop", "al")]
    report(2, "golden gopal")


def test_03_golden_lexicon():
    table = {
        "kanth": TranscriptionEntry("k aa n th", "k A n T h"),
        "ma": TranscriptionEntry("m aa", "m A"),
        "ra": TranscriptionEntry("r a", "r a"),
        "je": TranscriptionEntry("jh ey", "j E"),
        "shwar": TranscriptionEntry("s v ax r", "S v a r"),
        "ram": TranscriptionEntry("r aa m", "r A m"),
    }
    assert compose(["ra", "ma", "kanth"], table) == (
        "r a m aa k aa n th",
        "r a m A k A n T h",
    )
    assert compose(["ra", "je", "shwar"], table) == (
        "r a jh ey s v ax r",
        "r a j E S v a r",
    )
    report(3, "golden lexicon composition")


def test_04_global_cost_arithmetic():
    assert global_cost(6053, 39654, 25884) == pytest.approx(15326.2, abs=0.5)
    # two names that use all 26 letters: the letters-only basis has 26 words
    corpus = Corpus({"abcdefghijklm": 1, "nopqrstuvwxyz": 1})
    joins = sum(len(name) - 1 for name in corpus)
    assert trivial_case_a(corpus) == global_cost(26, joins, corpus.total_unique)
    report(4, "cost-function arithmetic")


def test_05_convergence_checker_on_reference_trace():
    steps = check_convergence(TABLE1)
    assert [s.product_nonincreasing for s in steps] == [True, True, True, True]
    assert [s.basis_nonincreasing for s in steps] == [True, True, False, False]
    report(5, "convergence conditions on the reference trace")


def test_06_planted_basis_recovery():
    started = time.perf_counter()
    planted = make_planted_corpus(
        n_names=1000, n_units=30, min_unit_len=2, max_unit_len=6, seed=20260810
    )
    corpus = planted.corpus
    cfg = RunConfig(algorithm="alg1", min_length=2)
    basis, trace = run_alg1(corpus, cfg)

    assert len(trace) <= 20
    ok, witnesses = is_ortho(basis)
    assert ok, witnesses[:3]
    for name in corpus:
        assert is_constructible(name, basis), name
    final_cost = trace[-1].cost
    assert final_cost <= min(trivial_case_a(corpus), trivial_case_b(corpus))
    assert final_cost <= 1.5 * planted.planted_cost
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(6, f"planted-basis recovery ({elapsed:.1f}s, {len(trace)} iterations)")


@st.composite
def random_corpora(draw):
    names = draw(
        st.sets(st.text(alphabet="abdeiors", min_size=3, max_size=8), min_size=1, max_size=14)
    )
    return Corpus({name: draw(st.integers(1, 9)) for name in names})


@given(random_corpora())
@settings(max_examples=200)
def test_07_invariant_suite(corpus):
    cfg = RunConfig(max_iterations=6)
    basis, trace = run_alg1(corpus, cfg)
    threaded, threaded_trace = run_alg1(
        corpus, RunConfig(max_iterations=6, workers=3)
    )
    assert threaded == basis
    assert threaded_trace == trace

    grown, pruned, stats, chosen = run_iteration_alg1(corpus, basis, cfg)
    for name, seq in chosen.items():
        assert "".join(seq.texts) == seq.name
        assert seq.eta_new == sum(seq.new)
        assert len(seq.new) == seq.eta_total
        assert seq.eta_joins == seq.eta_total - 1
        ones = {text: 1.0 for text in seq.texts}
        fv = compute_features(seq, ones, ones, {t: True for t in seq.texts})
        assert fv.avg_len * fv.eta_total == pytest.approx(len(name), rel=1e-9)

    repruned = make_ortho(pruned)
    assert repruned == pruned
    for text in grown:
        assert is_constructible(text, pruned)


def test_07_invariant_suite_report():
    report(7, "invariant suite, 200 randomized corpora")


@given(
    name=st.text(alphabet="ab", min_size=1, max_size=10),
    words=st.sets(st.text(alphabet="ab", min_size=1, max_size=4), max_size=6),
)
@settings(max_examples=200)
def test_08_enumeration_matches_independent_tiler(name, words):
    spans = candidate_words(name, words, word_heads(words))
    seqs = enumerate_with_basis(name, spans, cap=10**9)
    boundaries = {s.boundaries for s in seqs}
    assert len(boundaries) == len(seqs)
    assert boundaries == brute_tilings(name, spans)


def test_08_enumeration_report():
    report(8, "enumeration equals brute-force tiler")


def test_09_syntax_rules():
    assert not accepts_syntax("nk", "shashank", 6)
    assert not accepts_syntax("ph", "joseph", 4)
    assert not accepts_syntax("ilendra", "shailendra", 3)
    assert not accepts_syntax("hi", "bharathi", 6)
    assert accepts_syntax("na", "krishna", 5)
    report(9, "syntax rule examples")


def test_10_grid_search_deterministic():
    planted = make_planted_corpus(n_names=100, n_units=10, seed=99)
    cfg = RunConfig(algorithm="alg1", min_length=2, max_iterations=8)
    best_first, table_first = grid_search_weights(planted.corpus, cfg, weight_grid(0.1))
    best_again, table_again = grid_search_weights(planted.corpus, cfg, weight_grid(0.1))
    assert len(table_first) == 286
    assert best_first == best_again
    assert table_first == table_again
    best_cost = min(cost for _, cost in table_first)
    assert dict(table_first)[best_first] == best_cost
    report(10, f"grid search, best={best_first.as_tuple()}")

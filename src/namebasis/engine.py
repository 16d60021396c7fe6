"""Basis induction: seeding, grow/prune iterations, convergence, search.

The seeded algorithm (``alg1``) starts from a frequency seed and
iterates two passes per round. Pass 1 enumerates every name's tilings
by the current basis, as boundary tuples, and collects the corpus-wide
demand for each not-yet-in-basis word (a word counts at most once per
name however many of the name's tilings want it); the demand shares
feed the cost of pass 2, which picks each name's cheapest tiling and
adds its new words to the grown set, which is then orthogonalized and
fed back in. The from-scratch algorithm (``alg2``) needs no seed: it
picks the cheapest composition of every name outright and runs the same
grow-and-orthogonalize step, ``_grow_and_prune``, once from an empty
basis. Both return the basis, a set of plain word strings, and a trace
of one stats row per round. The final segmentation picks each name's
cheapest covering tiling. All three picks go through one chooser,
``_choose_row``, over a ``SegmentTable`` of the name's candidates
(cached per length for alg2, built per name from its tilings
otherwise), so every candidate is one row of sums and one scalar cost,
and only the winner becomes a ``SequenceCandidate``.

The global objective for a finished basis is

    cost = basis_size * (1 + total_joins / name_count)

which is what the weight grid search minimizes. The two trivial bases
(single letters, or every full name) are reference points, not upper
bounds: on a dense pool of 2000 names from 200 planted units the
letters-only basis costs 0.52 times the planted basis.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Container, Iterable, Mapping, Sequence

from . import config as _config
from .corpus import Corpus, frequency_rank
from .features import (
    ALG1_DEFAULT_WEIGHTS,
    ALG2_DEFAULT_WEIGHTS,
    WeightSet,
    composition_cost,
    tiling_cost,
)
# Unused here, but perfbench's tracer wraps these engine attributes.
from .features import compute_features, cost_alg1, cost_alg2, demand_shares, select_best
from .ortho import Basis, make_ortho
from .segmenter import (
    SegmentTable,
    SequenceCandidate,
    basis_tilings,
    candidate_words,
    composition_table,
    tiling_table,
    enumerate_all,  # unused here, but perfbench's tracer wraps engine.enumerate_all
    enumerate_with_basis,  # unused here, but perfbench's tracer wraps it too
)
from .syntax import CharClassTable, accepts_syntax

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IterationStats:
    """One row of the induction trace."""

    iteration: int
    b_m_size: int  # grown basis, before orthogonalization
    b_size: int  # after orthogonalization
    j_total: int  # joins of the chosen sequences
    cost: float

    @property
    def b_m_times_j(self) -> int:
        return self.b_m_size * self.j_total

    CSV_HEADER = ("iteration", "B_m", "B", "J", "BmJ", "C")

    def to_row(self) -> tuple:
        return (
            self.iteration,
            self.b_m_size,
            self.b_size,
            self.j_total,
            self.b_m_times_j,
            self.cost,
        )


@dataclass(frozen=True)
class ConvergenceStep:
    """Whether one trace transition kept both convergence conditions."""

    step: int  # transition from row `step` to row `step + 1`, 1-based
    basis_nonincreasing: bool
    product_nonincreasing: bool


@dataclass
class RunConfig:
    algorithm: str = "alg1"  # "alg1" | "alg2"
    seed_fraction: float = 0.40  # of the maximum frequency
    epsilon: int = 0
    max_iterations: int = 20
    weights: WeightSet | None = None  # per-algorithm default when None
    cap: int = 5000  # per-name candidate cap
    min_segment: int = 2  # alg2 only
    include_whole: bool = True  # alg2 only
    min_length: int = 3  # corpus normalization
    pav_inverted: bool = False
    workers: int = 1  # accepted and validated; runs are serial
    char_table: CharClassTable = field(default_factory=CharClassTable)

    def __post_init__(self):
        if self.algorithm not in ("alg1", "alg2"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not 0.0 < self.seed_fraction <= 1.0:
            raise ValueError(f"seed_fraction must be in (0, 1], got {self.seed_fraction}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        if self.min_segment < 1:
            raise ValueError(f"min_segment must be >= 1, got {self.min_segment}")
        if self.min_length < 1:
            raise ValueError(f"min_length must be >= 1, got {self.min_length}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def resolved_weights(self) -> WeightSet:
        if self.weights is not None:
            return self.weights
        return ALG1_DEFAULT_WEIGHTS if self.algorithm == "alg1" else ALG2_DEFAULT_WEIGHTS

    @classmethod
    def from_mapping(cls, values: Mapping[str, str]) -> "RunConfig":
        """Parse config values; an unknown key is a ``ConfigError``."""
        kwargs: dict = {}
        parsers: dict[str, Callable[[str], object]] = {
            "algorithm": str,
            "seed_fraction": float,
            "epsilon": int,
            "max_iterations": int,
            "weights": WeightSet.parse,
            "cap": int,
            "min_segment": int,
            "include_whole": _config.parse_bool,
            "min_length": int,
            "pav_inverted": _config.parse_bool,
            "workers": int,
        }
        for key in values:
            if key not in parsers and key not in ("vowels", "digraphs"):
                raise _config.ConfigError(f"unknown config key {key!r}")
        for key, parse in parsers.items():
            if key in values:
                try:
                    kwargs[key] = parse(values[key])
                except ValueError as exc:
                    raise _config.ConfigError(f"bad value for {key}: {exc}") from exc
        kwargs["char_table"] = CharClassTable.from_mapping(values)
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise _config.ConfigError(str(exc)) from exc


def global_cost(b_size: int, j_total: int, n_total: int) -> float:
    """Construction cost of a finished basis over ``n_total`` names."""
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    return b_size * (1.0 + j_total / n_total)


def trivial_case_a(corpus: Corpus, full_alphabet: bool = False) -> float:
    """Cost of the letters-only basis (maximal joins).

    By default the basis is the set of distinct letters the corpus
    actually uses; ``full_alphabet`` charges all 26 instead.
    """
    letters = 26 if full_alphabet else len({ch for name in corpus for ch in name})
    joins = sum(len(name) - 1 for name in corpus)
    return global_cost(letters, joins, corpus.total_unique)


def trivial_case_b(corpus: Corpus) -> float:
    """Cost of the every-name-is-a-basis-word basis (zero joins)."""
    return global_cost(corpus.total_unique, 0, corpus.total_unique)


def seed_basis(corpus: Corpus, k: float) -> Basis:
    """Names with frequency >= k * max frequency, orthogonalized.

    The most frequent name always passes, since ``k <= 1``.
    """
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k must be in (0, 1], got {k}")
    ranked = frequency_rank(corpus)
    if not ranked:
        raise ValueError("cannot seed from an empty corpus")
    threshold = k * corpus.max_frequency
    picked = [r for r in ranked if r.frequency >= threshold]
    return make_ortho(Basis(r.surface for r in picked))


def _choose_row(
    name: str,
    table: SegmentTable,
    existing_spans: Container[tuple[int, int]],
    corpus_freq: Mapping[str, float] | None,
    cfg: RunConfig,
    cost_fn: Callable[..., float],
) -> SequenceCandidate:
    """The cheapest row of ``table``, a segmentation table of ``name``.

    A segment is new unless its span is in ``existing_spans``. A text's
    demand share is the share of rows containing it: the popcount of
    the OR of its spans' masks, over the row count. Each row's features
    are summed in ``compute_features``' order and costed by ``cost_fn``,
    which takes ``tiling_cost``'s arguments. The new-word features
    (corpus frequency, syntax bit) are only built when
    ``weights.extra > 0``, since the cost ignores them otherwise. Rows
    come fewest segments first, then by boundaries, so the first row of
    least ``(cost, new segments)`` is ``select_best``'s pick; only it
    becomes a candidate. A table with no rows keeps the name whole.
    """
    if not table.rows:
        return SequenceCandidate.from_boundaries(name, (), existing_spans)
    texts = [name[start:end] for start, end in table.spans]
    # demand_shares: a text counts once per row that contains it
    rows_with: dict[str, int] = {}
    for text, mask in zip(texts, table.masks):
        rows_with[text] = rows_with.get(text, 0) | mask
    share = {text: mask.bit_count() / len(table.rows) for text, mask in rows_with.items()}
    demand = list(map(share.__getitem__, texts))
    new = [span not in existing_spans for span in table.spans]

    weights = cfg.resolved_weights
    scored_new = weights.extra > 0.0
    if scored_new:
        accepted = [
            is_new and accepts_syntax(text, name, start, cfg.char_table)
            for text, (start, _), is_new in zip(texts, table.spans, new)
        ]
        if corpus_freq is not None:
            freq = [corpus_freq[text] if is_new else 0.0 for text, is_new in zip(texts, new)]

    n = len(name)
    best = 0
    best_key: tuple[float, int] | None = None
    for r, (row, q, eta_new) in enumerate(zip(table.rows, table.q, table.eta_new)):
        k = len(row)
        new_freq_avg = syntax_avg = None
        if scored_new and eta_new:
            fresh = list(filter(new.__getitem__, row))
            if corpus_freq is not None:
                new_freq_avg = sum(map(freq.__getitem__, fresh)) / eta_new
            # a new text placed twice counts only if accepted at both
            bits: dict[str, bool] = {}
            for i in fresh:
                bits[texts[i]] = bits.get(texts[i], True) and accepted[i]
            syntax_avg = sum(bits[texts[i]] for i in fresh) / eta_new
        cost = cost_fn(
            n / k,
            (k * q - n * n) / (k * k),
            sum(map(demand.__getitem__, row)) / k,
            eta_new,
            new_freq_avg,
            syntax_avg,
            weights,
            cfg.pav_inverted,
        )
        if best_key is None or (cost, eta_new) < best_key:
            best, best_key = r, (cost, eta_new)
    return SequenceCandidate.from_boundaries(name, table.boundaries(best), existing_spans)


def _grow_and_prune(
    basis: Basis, chosen: Iterable[SequenceCandidate], iteration: int, n_total: int
) -> tuple[Basis, Basis, IterationStats]:
    """Add the chosen sequences' new words to ``basis``, orthogonalize.

    Returns the grown basis, the orthogonalized basis and the stats row,
    whose joins are those of the chosen sequences.
    """
    grown = Basis(basis.texts)
    j_total = 0
    for seq in chosen:
        j_total += seq.eta_joins
        for text, new in zip(seq.texts, seq.new):
            if new:
                grown.add(text)
    pruned = make_ortho(grown)
    stats = IterationStats(
        iteration=iteration,
        b_m_size=len(grown),
        b_size=len(pruned),
        j_total=j_total,
        cost=global_cost(len(pruned), j_total, n_total),
    )
    return grown, pruned, stats


def run_iteration_alg1(
    corpus: Corpus, basis: Basis, cfg: RunConfig, iteration: int = 1
) -> tuple[Basis, Basis, IterationStats, dict[str, SequenceCandidate]]:
    """One grow/prune round of the seeded algorithm.

    Returns the grown basis, the orthogonalized basis, the stats row,
    and each name's chosen sequence.
    """
    names = sorted(corpus)
    # Pass 1 keeps each name's spans and (cached) tilings, and collects
    # the corpus demand for every new text some tiling places.
    surveyed = [basis_tilings(name, candidate_words(name, basis), cfg.cap) for name in names]
    logger.info(
        "alg1 iteration %d: %d of %d names reached the candidate cap %d; %d tilings costed",
        iteration,
        sum(len(tilings) >= cfg.cap for _, tilings in surveyed),
        len(names),
        cfg.cap,
        sum(len(tilings) for _, tilings in surveyed),
    )
    demand_count: dict[str, int] = {}
    for name, (spans, tilings) in zip(names, surveyed):
        n = len(name)
        placed: set[tuple[int, int]] = set()
        for cuts in tilings:
            placed.update(zip((0, *cuts), (*cuts, n)))
        for text in {name[start:end] for start, end in placed - spans}:
            demand_count[text] = demand_count.get(text, 0) + 1
    n_total = corpus.total_unique
    corpus_freq = {text: count / n_total for text, count in demand_count.items()}

    chosen = {
        name: _choose_row(
            name, tiling_table(name, spans, tilings), spans, corpus_freq, cfg, tiling_cost
        )
        for name, (spans, tilings) in zip(names, surveyed)
    }

    grown, pruned, stats = _grow_and_prune(basis, chosen.values(), iteration, n_total)
    return grown, pruned, stats, chosen


def run_alg1(corpus: Corpus, cfg: RunConfig) -> tuple[Basis, list[IterationStats]]:
    """Seeded grow/prune induction to a fixed point or iteration cap."""
    basis = seed_basis(corpus, cfg.seed_fraction)
    trace: list[IterationStats] = []
    for iteration in range(1, cfg.max_iterations + 1):
        _, pruned, stats, _ = run_iteration_alg1(corpus, basis, cfg, iteration)
        trace.append(stats)
        # At an exact fixed point every further round would repeat this row.
        done = stats.b_m_size - stats.b_size < cfg.epsilon or pruned.texts == basis.texts
        basis = pruned
        if done:
            break
    else:
        logger.warning("stopped at max_iterations=%d without converging", cfg.max_iterations)
    return basis, trace


def run_alg2(corpus: Corpus, cfg: RunConfig) -> tuple[Basis, list[IterationStats]]:
    """Single-shot induction from exhaustive compositions, no seed.

    Every segment is new, so one grow/prune round from an empty basis
    takes all the chosen words; the trace has that one row.
    """
    names = sorted(corpus)
    chosen = []
    capped = 0
    for name in names:
        table = composition_table(len(name), cfg.min_segment, cfg.include_whole, cfg.cap)
        capped += len(table.rows) >= cfg.cap
        chosen.append(_choose_row(name, table, frozenset(), None, cfg, composition_cost))
    logger.info(
        "alg2: %d of %d names reached the candidate cap %d", capped, len(names), cfg.cap
    )
    _, pruned, stats = _grow_and_prune(Basis(), chosen, 1, corpus.total_unique)
    return pruned, [stats]


def segment_corpus(
    corpus: Corpus, basis: Basis, cfg: RunConfig
) -> dict[str, SequenceCandidate]:
    """Best fully-in-basis segmentation of every name.

    Used to write the final name -> word-sequence table once induction
    is done. Each name is chosen among its first ``cfg.cap`` covering
    tilings. Every name a finished run produced is coverable, but a
    foreign basis may leave gaps, in which case the best of the first
    ``cfg.cap`` gapped tilings is kept and a warning logged.
    """
    cost_fn = tiling_cost if cfg.algorithm == "alg1" else composition_cost
    names = sorted(corpus)
    chosen: dict[str, SequenceCandidate] = {}
    capped = costed = 0
    for name in names:
        words = candidate_words(name, basis)
        spans, tilings = basis_tilings(name, words, cfg.cap, gaps=False)
        if not tilings:
            logger.warning("basis does not span %r; keeping a gapped sequence", name)
            spans, tilings = basis_tilings(name, words, cfg.cap)
        capped += len(tilings) >= cfg.cap
        costed += len(tilings)
        table = tiling_table(name, spans, tilings)
        chosen[name] = _choose_row(name, table, spans, None, cfg, cost_fn)
    logger.info(
        "segmentation: %d of %d names reached the candidate cap %d; %d tilings costed",
        capped, len(names), cfg.cap, costed,
    )
    return chosen


def check_convergence(trace: Sequence[IterationStats]) -> list[ConvergenceStep]:
    """Evaluate both convergence conditions on each trace transition.

    Condition one: the orthogonalized basis size must not grow.
    Condition two: the grown-size x joins product must not grow.
    This reports; it does not assert.
    """
    report = []
    for i in range(len(trace) - 1):
        current, following = trace[i], trace[i + 1]
        report.append(
            ConvergenceStep(
                step=i + 1,
                basis_nonincreasing=following.b_size <= current.b_size,
                product_nonincreasing=following.b_m_times_j <= current.b_m_times_j,
            )
        )
    return report


def weight_grid(grid_step: float) -> list[WeightSet]:
    """All weight 4-tuples on the given grid that sum to 1."""
    if not grid_step > 0.0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    steps = round(1.0 / grid_step)
    if abs(steps * grid_step - 1.0) > 1e-9 or steps < 1:
        raise ValueError(f"grid_step must divide 1 evenly, got {grid_step}")
    grid = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            for k in range(steps + 1 - i - j):
                l = steps - i - j - k
                grid.append(WeightSet(i / steps, j / steps, k / steps, l / steps))
    return grid


def grid_search_weights(
    corpus: Corpus, cfg: RunConfig, grid: Sequence[WeightSet]
) -> tuple[WeightSet, list[tuple[WeightSet, float]]]:
    """Run the configured algorithm once per weight set of ``grid``.

    Returns the weights minimizing the final global cost (ties prefer
    the smaller final basis, then the earlier tuple in grid order) and
    the full (weights, cost) table in grid order.
    """
    run = run_alg1 if cfg.algorithm == "alg1" else run_alg2
    table: list[tuple[WeightSet, float]] = []
    best: tuple[float, int, int] | None = None
    best_weights: WeightSet | None = None
    for index, weights in enumerate(grid):
        basis, trace = run(corpus, replace(cfg, weights=weights))
        final = trace[-1]
        table.append((weights, final.cost))
        key = (final.cost, len(basis), index)
        if best is None or key < best:
            best = key
            best_weights = weights
    assert best_weights is not None
    return best_weights, table

"""Basis induction: seeding, grow/prune iterations, convergence, search.

The seeded algorithm (``alg1``) starts from a frequency seed and
iterates two passes per round. Pass 1 enumerates every name's candidate
sequences and collects the corpus-wide demand for each not-yet-in-basis
word (a word counts at most once per name however many of the name's
sequences want it); the demand shares feed the cost of pass 2, which
picks each name's cheapest sequence and adds its new words to the grown
set. The grown set is then orthogonalized and fed back in. The
from-scratch algorithm (``alg2``) needs no seed: it picks the cheapest
full composition of every name outright and orthogonalizes once at the
end.

The global objective for a finished basis is

    cost = basis_size * (1 + total_joins / name_count)

which is maximal at both trivial extremes (single letters as the basis,
or every full name as the basis) and is what the weight grid search
minimizes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from . import config as _config
from .corpus import Corpus, frequency_rank
from .features import (
    ALG1_DEFAULT_WEIGHTS,
    ALG2_DEFAULT_WEIGHTS,
    WeightSet,
    composition_cost,
    compute_features,
    cost_alg1,
    cost_alg2,
    demand_shares,
    select_best,
)
from .ortho import Basis, BasisWord, make_ortho
from .segmenter import (
    CompositionTable,
    SequenceCandidate,
    candidate_words,
    composition_table,
    enumerate_all,  # unused here, but perfbench's tracer wraps engine.enumerate_all
    enumerate_with_basis,
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
    basis = Basis(BasisWord(r.surface, "seed") for r in picked)
    return make_ortho(basis)


def _syntax_bits(
    seq: SequenceCandidate,
    cache: dict[tuple[str, int], bool],
    table: CharClassTable,
) -> dict[str, bool]:
    """Admissibility of each new word at its placements in this sequence.

    A word placed more than once must be admissible everywhere it is
    placed to count as accepted.
    """
    bits: dict[str, bool] = {}
    for text, start, new in zip(seq.texts, (0, *seq.boundaries), seq.new):
        if not new:
            continue
        key = (text, start)
        if key not in cache:
            cache[key] = accepts_syntax(text, seq.name, start, table)
        bits[text] = bits.get(text, True) and cache[key]
    return bits


def _choose(
    seqs: Sequence[SequenceCandidate],
    corpus_freq: Mapping[str, float] | None,
    cfg: RunConfig,
    cost_fn: Callable,
) -> SequenceCandidate:
    demand = demand_shares(seqs)
    syntax_cache: dict[tuple[str, int], bool] = {}
    costs = []
    for seq in seqs:
        bits = _syntax_bits(seq, syntax_cache, cfg.char_table)
        fv = compute_features(seq, demand, corpus_freq, bits)
        costs.append(cost_fn(fv, cfg.resolved_weights, cfg.pav_inverted))
    return select_best(seqs, costs)


def _choose_composition(
    name: str, table: CompositionTable, cfg: RunConfig
) -> SequenceCandidate:
    """The composition ``_choose`` picks among ``table``'s rows for ``name``.

    Each row's cost is the ``cost_alg2`` float of its features, built in
    the same order as ``compute_features``. Rows come fewest segments
    first, then by boundaries, and every segment is new, so the first
    row of least cost is ``select_best``'s pick. A name with no rows is
    kept whole.
    """
    if not table.rows:
        return SequenceCandidate.from_boundaries(name, ())
    texts = [name[start:end] for start, end in table.spans]
    placements: dict[str, list[int]] = {}
    for i, text in enumerate(texts):
        placements.setdefault(text, []).append(i)
    # demand_shares: a text counts once per row that contains it
    demand = [0.0] * len(texts)
    for same_text in placements.values():
        rows_with_text = 0
        for i in same_text:
            rows_with_text |= table.masks[i]
        share = rows_with_text.bit_count() / len(table.rows)
        for i in same_text:
            demand[i] = share

    weights = cfg.resolved_weights
    accepted: list[bool] | None = None
    if weights.extra > 0.0:
        accepted = [
            accepts_syntax(text, name, start, cfg.char_table)
            for text, (start, _) in zip(texts, table.spans)
        ]

    n = len(name)
    costs = []
    for row, q in zip(table.rows, table.q):
        k = len(row)
        syntax_avg = None
        if accepted is not None:
            # _syntax_bits: a repeated text counts only if accepted everywhere
            bits: dict[str, bool] = {}
            for i in row:
                bits[texts[i]] = bits.get(texts[i], True) and accepted[i]
            syntax_avg = sum(bits[texts[i]] for i in row) / k
        costs.append(
            composition_cost(
                n / k,
                (k * q - n * n) / (k * k),
                sum(map(demand.__getitem__, row)) / k,
                syntax_avg,
                weights,
                cfg.pav_inverted,
            )
        )
    best_row = min(range(len(costs)), key=costs.__getitem__)
    return SequenceCandidate.from_boundaries(name, table.boundaries(best_row))


def run_iteration_alg1(
    corpus: Corpus, basis: Basis, cfg: RunConfig, iteration: int = 1
) -> tuple[Basis, Basis, IterationStats, dict[str, SequenceCandidate]]:
    """One grow/prune round of the seeded algorithm.

    Returns the grown basis, the orthogonalized basis, the stats row,
    and each name's chosen sequence.
    """
    names = sorted(corpus)
    surveyed = [
        enumerate_with_basis(name, candidate_words(name, basis), cfg.cap) for name in names
    ]
    capped = sum(len(seqs) >= cfg.cap for seqs in surveyed)
    logger.info(
        "alg1 iteration %d: %d of %d names reached the candidate cap %d",
        iteration, capped, len(names), cfg.cap,
    )

    demand_count: dict[str, int] = {}
    for seqs in surveyed:
        new_texts = {
            text for seq in seqs for text, new in zip(seq.texts, seq.new) if new
        }
        for text in sorted(new_texts):
            demand_count[text] = demand_count.get(text, 0) + 1
    n_total = corpus.total_unique
    corpus_freq = {text: count / n_total for text, count in demand_count.items()}

    chosen = {
        name: _choose(seqs, corpus_freq, cfg, cost_alg1)
        for name, seqs in zip(names, surveyed)
    }

    grown = Basis(basis.word(text) for text in basis)
    j_total = 0
    for name in names:
        seq = chosen[name]
        j_total += seq.eta_joins
        for text, new in zip(seq.texts, seq.new):
            if new:
                grown.add(BasisWord(text, "mined", demand_count[text]))

    pruned = make_ortho(grown)
    stats = IterationStats(
        iteration=iteration,
        b_m_size=len(grown),
        b_size=len(pruned),
        j_total=j_total,
        cost=global_cost(len(pruned), j_total, n_total),
    )
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


def run_alg2(corpus: Corpus, cfg: RunConfig) -> tuple[Basis, IterationStats]:
    """Single-shot induction from exhaustive compositions, no seed."""
    names = sorted(corpus)
    chosen_list = []
    capped = 0
    for name in names:
        table = composition_table(len(name), cfg.min_segment, cfg.include_whole, cfg.cap)
        capped += len(table.rows) >= cfg.cap
        chosen_list.append(_choose_composition(name, table, cfg))
    logger.info(
        "alg2: %d of %d names reached the candidate cap %d", capped, len(names), cfg.cap
    )

    demand_count: dict[str, int] = {}
    j_total = 0
    for seq in chosen_list:
        j_total += seq.eta_joins
        for text in sorted(set(seq.texts)):
            demand_count[text] = demand_count.get(text, 0) + 1

    grown = Basis(
        BasisWord(text, "mined", demand_count[text]) for text in sorted(demand_count)
    )
    pruned = make_ortho(grown)
    stats = IterationStats(
        iteration=1,
        b_m_size=len(grown),
        b_size=len(pruned),
        j_total=j_total,
        cost=global_cost(len(pruned), j_total, corpus.total_unique),
    )
    return pruned, stats


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
    cost_fn = cost_alg1 if cfg.algorithm == "alg1" else cost_alg2
    names = sorted(corpus)
    chosen: dict[str, SequenceCandidate] = {}
    capped = 0
    for name in names:
        words = candidate_words(name, basis)
        seqs = enumerate_with_basis(name, words, cfg.cap, gaps=False)
        if not seqs:
            logger.warning("basis does not span %r; keeping a gapped sequence", name)
            seqs = enumerate_with_basis(name, words, cfg.cap)
        capped += len(seqs) >= cfg.cap
        chosen[name] = _choose(seqs, None, cfg, cost_fn)
    logger.info(
        "segmentation: %d of %d names reached the candidate cap %d",
        capped, len(names), cfg.cap,
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
    corpus: Corpus,
    cfg: RunConfig,
    grid_step: float = 0.1,
    *,
    grid: Sequence[WeightSet] | None = None,
) -> tuple[WeightSet, list[tuple[WeightSet, float]]]:
    """Run the configured algorithm once per grid weight set.

    ``grid`` defaults to ``weight_grid(grid_step)``. Returns the weights
    minimizing the final global cost (ties prefer the smaller final
    basis, then the earlier tuple in grid order) and the full
    (weights, cost) table in grid order.
    """
    if grid is None:
        grid = weight_grid(grid_step)
    table: list[tuple[WeightSet, float]] = []
    best: tuple[float, int, int] | None = None
    best_weights: WeightSet | None = None
    for index, weights in enumerate(grid):
        candidate_cfg = replace(cfg, weights=weights)
        if cfg.algorithm == "alg1":
            basis, trace = run_alg1(corpus, candidate_cfg)
            final = trace[-1]
        else:
            basis, final = run_alg2(corpus, candidate_cfg)
        table.append((weights, final.cost))
        key = (final.cost, len(basis), index)
        if best is None or key < best:
            best = key
            best_weights = weights
    assert best_weights is not None
    return best_weights, table

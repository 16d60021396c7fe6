"""Basis induction: seeding, grow/prune iterations, convergence, search.

Both algorithms run rounds of one shape, ``_round``, whose tables and
cost body follow ``cfg.algorithm``. Pass 1, ``_survey``, keys each
name's table and, for alg1, finds the corpus-wide demand for each
not-yet-in-basis word (a word counts at most once per name however
many of the name's tilings want it), each name's one covering tiling
when it has exactly one, and the largest demand among its new texts.
It does not depend on the weights, so the grid search keeps one
survey, with the tables built from it, per input basis and reuses it
across weight sets. Pass 2 picks each name's cheapest row and adds its
new words to the basis, which is then orthogonalized.
The seeded algorithm (``alg1``) tiles the names by the basis, from a
frequency seed, round after round; the from-scratch algorithm
(``alg2``) costs every name's compositions in one round from an empty
basis. Both return the basis, a frozenset of plain word strings that
keys the grid search's surveys (alg2's under the empty basis), and a
trace of one stats row per round.
The final segmentation picks each name's cheapest covering tiling; a
run that stops at a fixed point hands it the span patterns its last
survey found, since the final basis is the one that round surveyed.
A name whose one covering tiling is its pick whatever the rest of its
table holds (``_forced``: always in the final segmentation, and in an
alg1 round when no cap can cut the table and the tiling's cost at its
dearest demand is no greater than the least cost a row with a new
segment can have) is picked from its pattern, and no table is built
for it. Every other pick goes through one chooser, ``_choose_row``,
over a ``SegmentTable`` of the name's candidates, built on first use,
so every candidate is one
row of sums and one scalar cost, the table's ``new`` column says which
segments are new, its counts give each text's demand share without
listing a row, a name's span features are read only for the rows the
chooser costs, and only the winner becomes a ``SequenceCandidate``.
The chooser groups a name's spans by text; the table keeps no name.
A tiling table is built on the name's stops (0, its length and every
start and end of a basis-word occurrence) and its span pattern, the
occurrences as pairs of stop indices, so it is shared, for a pass or a
grid's survey, by every name of one pattern whatever its length;
compositions are shared by the names of one length. The name reads its
texts, offsets and squared segment lengths through its stops. The chooser
is a branch and bound with the same pick as costing every row: rows
come one cell (segment count ``k``, new-segment count ``e``) at a
time, fewest new segments first, then fewest segments. A row's cost is
never below its cell's bound, the cost at ``n / k`` letters a segment,
no length variance, the cheapest demand and, for ``e > 0``, a syntax
average at 1.0 and a corpus frequency average at the name's ``top``,
the ``mean_ceiling`` of its new texts' largest frequency, their
cheapest values; so each new segment adds at least ``2 *
weights.extra`` to an alg1 row. The
bound grows with ``k``, so the scan of an ``e`` stops, before the
table lists the cell, once the bound cannot beat the best row, and a
row with new segments is skipped when it loses even at those averages.
This needs corpus frequencies to be name shares in [0, 1], as
``_survey`` counts them. At alg2's default weights every name stays
whole, and the scan lists little past the whole-name row, so the rest
of the name's compositions are counted, never listed.

The global objective for a finished basis is

    cost = basis_size * (1 + total_joins / name_count)

which is what the weight grid search minimizes. The two trivial bases
(single letters, or every full name) are reference points, not upper
bounds: on a dense pool of 2000 names from 200 planted units the
letters-only basis costs 0.52 times the planted basis.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

from . import config as _config
from .corpus import Corpus
from .features import (
    ALG1_DEFAULT_WEIGHTS,
    ALG2_DEFAULT_WEIGHTS,
    WeightSet,
    composition_cost,
    left_sum,
    mean_ceiling,
    tiling_cost,
)
# Unused here, but perfbench's tracer wraps these engine attributes.
from .features import compute_features, cost_alg1, cost_alg2, demand_shares, select_best
from .ortho import make_ortho
from .segmenter import (
    Pattern,
    SegmentTable,
    SequenceCandidate,
    candidate_words,
    composition_table,
    covering_tiling,
    placed_gaps,
    span_pattern,
    tiling_candidate,
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
            if key not in parsers and key not in CharClassTable.KEYS:
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


def trivial_case_a(corpus: Corpus) -> float:
    """Cost of the letters-only basis (maximal joins): the basis is the
    set of distinct letters the corpus uses."""
    letters = len({ch for name in corpus for ch in name})
    joins = sum(len(name) - 1 for name in corpus)
    return global_cost(letters, joins, corpus.total_unique)


def trivial_case_b(corpus: Corpus) -> float:
    """Cost of the every-name-is-a-basis-word basis (zero joins)."""
    return global_cost(corpus.total_unique, 0, corpus.total_unique)


def seed_basis(corpus: Corpus, k: float) -> frozenset[str]:
    """Names with frequency >= k * max frequency, orthogonalized.

    The most frequent name always passes, since ``k <= 1``.
    """
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k must be in (0, 1], got {k}")
    if not corpus.total_unique:
        raise ValueError("cannot seed from an empty corpus")
    threshold = k * corpus.max_frequency
    return make_ortho(frozenset(name for name in corpus if corpus.frequency(name) >= threshold))


def _cost_body(cfg: RunConfig) -> Callable[..., float]:
    """The cost body of ``cfg.algorithm``: ``tiling_cost`` for alg1,
    ``composition_cost`` for alg2."""
    return tiling_cost if cfg.algorithm == "alg1" else composition_cost


def _choose_row(
    name: str,
    stops: Sequence[int],
    table: SegmentTable,
    corpus_freq: Mapping[str, float] | None,
    cfg: RunConfig,
    top: float = 1.0,
) -> tuple[SequenceCandidate, int, int]:
    """The cheapest row of ``table``, a segmentation table of ``name``,
    which reads it through its ``stops``, the rows costed in full and the
    rows the table listed for this call (a shared table lists a cell once).

    Which segments are new is the table's ``new`` column. A span's text,
    squared length, demand share and, for a new span, corpus frequency
    are read the first time the scan enters a cell with a row placing
    it, so a name pays for the spans of the rows it costs, not for every
    span of its table. A text's demand share is the share of rows
    containing it: for a text the name holds once, the table's count of
    rows placing its one span, over its row total. The first text the
    name holds more than once groups the table's spans by their text,
    and every share read after it is set for its whole group at once: a
    text of one span keeps that span's count, and a text of several asks
    ``SegmentTable.rows_placing``, which the names sharing the table
    share, for the rows placing any of them. Each row's features are
    summed in ``compute_features``' order and costed by the body of
    ``cfg.algorithm``, ``tiling_cost`` for alg1 and ``composition_cost``
    for alg2. The new-word features (corpus frequency, syntax bit) are
    only built when ``weights.extra > 0``, since the cost ignores them
    otherwise, and a span's syntax bit only when a row that places it
    is costed. Rows come one cell (segment count ``k``, new-segment
    count ``e``) at a time, ``e`` ascending, then ``k`` ascending, and
    by boundaries within a cell. That is ``select_best``'s tie order
    (fewer new segments, then fewer joins, then leftmost boundaries), so
    the first row of least cost is its pick; only it becomes a
    candidate. A table with no rows (alg2's, for a name with no
    composition) keeps the name whole, as one new segment. A table with
    one row lists it, as the scan would, and picks it without costing
    it: every cost is finite, so the scan would pick it whatever it
    costs.

    The scan is a branch and bound that keeps that pick exact, by the
    cost bodies' contract (see ``features``): every term is >= 0, and
    the new-word term is least at ``new_freq_avg = top`` and
    ``syntax_avg = 1.0``.
    That needs corpus frequencies to be name shares in [0, 1], as
    ``_survey`` counts them. A demand average is a mean of shares in
    (0, 1], so its term is least at 0.0, or at 1.0 when inverted. So
    the body at ``(n / k, 0.0, least demand, e, top, 1.0)`` (``None``
    for the two averages when ``e`` is 0) bounds the cost of every row of
    cell ``(k, e)`` from below, and never falls as ``k`` grows: once it
    is no longer below the best cost, no later cell of that ``e`` can
    win, and the scan goes on to the next ``e`` before the table lists
    the cell. A row with new segments is first costed at ``(top, 1.0)``,
    and its fresh, frequency and syntax work is skipped when that bound
    already loses to the best row. ``top`` may be below 1.0: the survey
    passes the ``mean_ceiling`` of the largest corpus frequency of a
    text the table's rows place as new. Every row that is costed in full
    goes through the same body with the same arguments as an exhaustive
    scan, so the pick is the same.
    """
    total = table.total
    if not total:
        return SequenceCandidate(name, (), (name,), (True,), 1), 0, 0
    listed = table.listed
    if total == 1:
        e, k = next((e, levels[0]) for e, levels in enumerate(table.cells) if levels)
        return table.candidate(name, stops, table.cell(k, e)[0]), 0, table.listed - listed
    spans, counts, new = table.spans, table.counts, table.new

    cost_fn = _cost_body(cfg)
    weights = cfg.resolved_weights
    inverted = cfg.pav_inverted
    scored_new = weights.extra > 0.0
    if scored_new:
        accepted: list[bool | None] = [None] * len(spans)
    read_freq = scored_new and corpus_freq is not None
    # by span index, read when the scan first reaches the span
    texts = [""] * len(spans)
    squares = [0] * len(spans)  # 0 until then: a span has at least one letter
    demand = [0.0] * len(spans)
    freq = [0.0] * len(spans)
    unread = len(spans)
    # the span indices of each text, grouped once the scan reaches a text
    # the name holds more than once; later shares are read by group
    groups: dict[str, list[int]] | None = None

    square_of, share_of = squares.__getitem__, demand.__getitem__
    n = len(name)
    n_squared = n * n
    # the cheapest demand average: a share of at most 1, inverted or not
    least_demand = 1.0 if inverted else 0.0
    best: Sequence[int] = ()
    best_cost = math.inf
    costed = 0
    for eta_new, levels in enumerate(table.cells):
        least_new = (top, 1.0) if eta_new else (None, None)
        for k in levels:
            avg_len = n / k
            if (
                cost_fn(avg_len, 0.0, least_demand, eta_new, *least_new, weights, inverted)
                >= best_cost
            ):
                break
            rows = table.cell(k, eta_new)
            for i in chain.from_iterable(rows) if unread else ():
                if squares[i]:
                    continue
                unread -= 1
                first, last = spans[i]
                start = stops[first]
                end = stops[last]
                text = texts[i] = name[start:end]
                squares[i] = (end - start) ** 2
                if groups is None and (
                    name.find(text) != start or name.find(text, start + 1) >= 0
                ):
                    groups = {}
                    for j, (a, b) in enumerate(spans):
                        groups.setdefault(name[stops[a] : stops[b]], []).append(j)
                if groups is None:
                    demand[i] = counts[i] / total
                elif not demand[i]:  # a share is > 0; set for the group at once
                    group = groups[text]
                    placed = table.rows_placing(frozenset(group)) if len(group) > 1 else counts[i]
                    for j in group:
                        demand[j] = placed / total
                if read_freq and new[i]:
                    freq[i] = corpus_freq[text]
            for row in rows:
                len_var = (k * sum(map(square_of, row)) - n_squared) / (k * k)
                demand_avg = left_sum(map(share_of, row)) / k
                new_freq_avg = syntax_avg = None
                if scored_new and eta_new:
                    if (
                        cost_fn(avg_len, len_var, demand_avg, eta_new, top, 1.0, weights, inverted)
                        >= best_cost
                    ):
                        continue
                    fresh = list(filter(new.__getitem__, row))
                    if corpus_freq is not None:
                        new_freq_avg = left_sum(map(freq.__getitem__, fresh)) / eta_new
                    # a new text placed twice counts only if accepted at both
                    bits: dict[str, bool] = {}
                    for i in fresh:
                        if accepted[i] is None:
                            accepted[i] = accepts_syntax(
                                texts[i], name, stops[spans[i][0]], cfg.char_table
                            )
                        bits[texts[i]] = bits.get(texts[i], True) and accepted[i]
                    syntax_avg = sum(bits[texts[i]] for i in fresh) / eta_new
                cost = cost_fn(
                    avg_len, len_var, demand_avg, eta_new, new_freq_avg, syntax_avg, weights,
                    inverted,
                )
                costed += 1
                if cost < best_cost:
                    best, best_cost = row, cost
    return table.candidate(name, stops, best), costed, table.listed - listed


# A covering tiling as a name's pick, with its length average and
# variance as the chooser computes them.
Cover = tuple[SequenceCandidate, float, float]

# A name, its stops, the key of the table it reads through them (stop
# intervals, span pattern and gaps for tilings; the length for
# compositions), its one covering tiling when no cap can cut its table,
# and, when some row places a new segment, ``mean_ceiling`` of the largest
# corpus frequency of the texts new there (None otherwise).
Entry = tuple[str, Sequence[int], tuple, Cover | None, float | None]


def _cover(name: str, stops: Sequence[int], tiles: Sequence[tuple[int, int]]) -> Cover:
    """``tiles``, a covering tiling of ``name`` read through its ``stops``,
    as its ``Cover``."""
    n, k = len(name), len(tiles)
    squares = sum((stops[end] - stops[start]) ** 2 for start, end in tiles)
    pick = tiling_candidate(name, stops, tiles, (False,) * k)
    return pick, n / k, (k * squares - n * n) / (k * k)


def _forced(cover: Cover, intervals: int, top: float | None, cfg: RunConfig) -> bool:
    """Whether ``cover``, a name's one covering tiling, is its pick among
    the rows of its gapped table, which has ``intervals`` stop intervals
    and so at most ``2 ** (intervals - 1)`` rows, uncut.

    With no new segment to place (``top`` None) it is the table's only
    row. Otherwise it comes first in tie order, having no new segment,
    so it is the pick when it costs no more than any row with new
    segments. It costs at most the body at its own length terms and the
    dearest demand average: every share is at most 1 and at least 1 over
    the table's rows, so at least ``2 ** (1 - intervals)``, a power of
    two that a mean cannot round below. By the cost bodies' contract, a
    row with new segments costs at least the body at the whole name as
    one segment, no variance, the cheapest demand, one new segment,
    ``top`` for its new-word frequency and syntax 1.0.
    """
    if top is None:
        return True
    pick, avg_len, len_var = cover
    cost_fn = _cost_body(cfg)
    weights = cfg.resolved_weights
    inverted = cfg.pav_inverted
    dearest = 2.0 ** (1 - intervals) if inverted else 1.0
    most = cost_fn(avg_len, len_var, dearest, 0, None, None, weights, inverted)
    cheapest = 1.0 if inverted else 0.0
    least = cost_fn(float(len(pick.name)), 0.0, cheapest, 1, top, 1.0, weights, inverted)
    return most <= least


def _choose_all(
    label: str,
    entries: Iterable[Entry],
    tables: Callable[..., SegmentTable],
    corpus_freq: Mapping[str, float] | None,
    cfg: RunConfig,
) -> dict[str, SequenceCandidate]:
    """Each name's pick from its ``(name, stops, key, cover, top)`` entry.

    A name whose covering tiling is ``_forced`` is picked from its
    pattern, and no table is built or read for it. Every other name is
    chosen by ``_choose_row`` from ``tables(*key)``, which builds each
    table on first use and shares it with the names of its key. A
    tiling table without gaps can have no row, when the basis does not
    span the name; the name then reads the gapped table of its pattern,
    and a warning says so. ``cfg.algorithm`` picks the cost body.

    Logs one line for the pass: of the names that read a table, those
    whose table reached the cap, the rows their tables count, and the
    sums of ``_choose_row``'s counts, the rows listed (tables list
    theirs one cell at a time, as the chooser asks, and a shared table
    only once) and costed in full (a one-row table's row is listed but
    not costed, since it is the pick); and, when there are any, the
    names picked from their pattern. Warns when the cap decided a pick:
    a capped name has a covering tiling, but every row the cap keeps has
    new segments (only gapped tiling tables can).
    """
    chosen: dict[str, SequenceCandidate] = {}
    capped = lost = rows = listed = costed = picked = 0
    for name, stops, key, cover, top in entries:
        if cover is not None and _forced(cover, len(stops) - 1, top, cfg):
            chosen[name] = cover[0]
            picked += 1
            continue
        table = tables(*key)
        # only a gapless tiling table can be empty: a composition table's
        # key is its length alone, and a gapped one has the whole name
        if not table.total and len(key) == 3:
            logger.warning("basis does not span %r; keeping a gapped sequence", name)
            table = tables(*key[:2], True)
        chosen[name], costs, lists = _choose_row(
            name, stops, table, corpus_freq, cfg, 1.0 if top is None else top
        )
        costed += costs
        listed += lists
        if table.total >= cfg.cap:
            capped += 1
            lost += table.covers and not table.cells[0]
        rows += table.total
    logger.info(
        "%s: %d of %d names reached the candidate cap %d; "
        "%d rows enumerated, %d listed, %d costed in full%s",
        label, capped, len(chosen), cfg.cap, rows, listed, costed,
        f"; {picked} picked from their pattern" if picked else "",
    )
    if lost:
        logger.warning(
            "%s: the candidate cap %d kept no covering tiling for %d of %d capped names",
            label, cfg.cap, lost, capped,
        )
    return chosen


def _patterns(corpus: Corpus, basis: frozenset[str]) -> dict[str, Pattern]:
    """Each name of ``corpus`` with its stops and span pattern by ``basis``."""
    lengths = sorted({len(word) for word in basis})
    return {
        name: span_pattern(len(name), candidate_words(name, basis, lengths))
        for name in corpus
    }


def _tiling_tables(cap: int) -> Callable[[int, frozenset, bool], SegmentTable]:
    """Tiling tables by stop intervals, span pattern and gaps, each built
    on first use and then shared by the names of its pattern, whatever
    their lengths, for as long as the caller keeps the function: a table
    kept longer keeps its listed cells."""
    def build(n: int, pattern: frozenset, gaps: bool) -> SegmentTable:
        return tiling_table(n, pattern, cap, gaps=gaps)

    return lru_cache(maxsize=None)(build)


# ``_survey``'s weight-free pass: each name's entry, for alg1 only new
# texts' corpus frequencies, and the tables the entries' keys name.
Survey = tuple[list[Entry], dict[str, float] | None, Callable[..., SegmentTable]]
Surveys = dict[frozenset[str], Survey]


def _survey(corpus: Corpus, basis: frozenset[str], cfg: RunConfig) -> Survey:
    """Pass 1 of a round, which does not depend on the weights.

    alg2 keys every name's table, of its compositions, by its length.
    alg1 keys it by the name's span pattern by the basis, and counts
    each new text (a gap that some row places) once per name that places
    it. A pattern of ``n`` stop intervals has at most ``2 ** (n - 1)``
    tilings, so below ``cfg.cap`` no cap cuts its table: its new texts
    are its ``placed_gaps``, and its entry keeps its one covering tiling
    when it has exactly one. Only the other names' tables are built
    here, to read their new texts from the rows the cap keeps; pass 2
    builds the rest as it needs them, and lists rows as it reads them.
    """
    if cfg.algorithm == "alg2":
        args = cfg.min_segment, cfg.include_whole, cfg.cap
        tables = lru_cache(maxsize=None)(lambda n: composition_table(n, *args))
        entries = [(name, range(len(name) + 1), (len(name),), None, None) for name in corpus]
        return entries, None, tables
    tables = _tiling_tables(cfg.cap)
    covering = lru_cache(maxsize=None)(covering_tiling)
    gaps_of = lru_cache(maxsize=None)(placed_gaps)
    placed = []
    demand_count: dict[str, int] = {}
    for name, (stops, pattern) in _patterns(corpus, basis).items():
        n = len(stops) - 1
        if 2 ** (n - 1) < cfg.cap:
            tiles = covering(n, pattern)
            gaps = gaps_of(n, pattern)
        else:
            tiles = None
            table = tables(n, pattern, True)
            gaps = [span for span, is_new in zip(table.spans, table.new) if is_new]
        new = {name[stops[start] : stops[end]] for start, end in gaps}
        for text in new:
            demand_count[text] = demand_count.get(text, 0) + 1
        placed.append((name, stops, (n, pattern, True), tiles, new))
    n_total = corpus.total_unique
    freq = {text: count / n_total for text, count in demand_count.items()}
    entries: list[Entry] = [
        (
            name,
            stops,
            key,
            None if tiles is None else _cover(name, stops, tiles),
            mean_ceiling(max(map(freq.__getitem__, new))) if new else None,
        )
        for name, stops, key, tiles, new in placed
    ]
    return entries, freq, tables


def _round(
    corpus: Corpus,
    basis: frozenset[str],
    cfg: RunConfig,
    label: str,
    iteration: int,
    surveys: Surveys | None,
) -> tuple[frozenset[str], frozenset[str], IterationStats, dict[str, SequenceCandidate]]:
    """One grow/prune round of ``cfg.algorithm`` from ``basis``.

    Takes pass 1 from ``surveys``, or builds it there (for this round
    only without them), picks each name's row, adds the picks' new words
    to ``basis`` and orthogonalizes. Returns the grown basis, the
    orthogonalized basis, the stats row (the joins are the picks') and
    each name's pick.
    """
    if surveys is None:
        surveys = {}
    if basis not in surveys:
        surveys[basis] = _survey(corpus, basis, cfg)
    entries, corpus_freq, tables = surveys[basis]
    chosen = _choose_all(label, entries, tables, corpus_freq, cfg)
    words = set(basis)
    j_total = 0
    for seq in chosen.values():
        j_total += seq.eta_joins
        words.update(text for text, new in zip(seq.texts, seq.new) if new)
    grown = frozenset(words)
    pruned = make_ortho(grown)
    stats = IterationStats(
        iteration=iteration,
        b_m_size=len(grown),
        b_size=len(pruned),
        j_total=j_total,
        cost=global_cost(len(pruned), j_total, corpus.total_unique),
    )
    return grown, pruned, stats, chosen


def run_iteration_alg1(
    corpus: Corpus,
    basis: frozenset[str],
    cfg: RunConfig,
    iteration: int = 1,
    *,
    surveys: Surveys | None = None,
) -> tuple[frozenset[str], frozenset[str], IterationStats, dict[str, SequenceCandidate]]:
    """One grow/prune round of the seeded algorithm; see ``_round``.

    ``surveys``, when given, keeps pass 1 per input basis, so a caller
    that runs the same basis under other weights costs its rows only.
    """
    return _round(corpus, basis, cfg, f"alg1 iteration {iteration}", iteration, surveys)


def run_alg1(
    corpus: Corpus,
    cfg: RunConfig,
    *,
    surveys: Surveys | None = None,
    patterns: dict[str, Pattern] | None = None,
) -> tuple[frozenset[str], list[IterationStats]]:
    """Seeded grow/prune induction to a fixed point or iteration cap.

    Each round is a ``run_iteration_alg1`` call, which gets ``surveys``;
    without it, a round's survey lives for that round only. ``patterns``,
    when given, receives each name's stops and span pattern by the
    returned basis if the last round surveyed it, as it does when the
    run stops at a fixed point, so ``segment_corpus`` need not find
    them again; otherwise it stays empty.
    """
    basis = seed_basis(corpus, cfg.seed_fraction)
    trace: list[IterationStats] = []
    for iteration in range(1, cfg.max_iterations + 1):
        kept = {} if surveys is None else surveys
        _, pruned, stats, _ = run_iteration_alg1(corpus, basis, cfg, iteration, surveys=kept)
        trace.append(stats)
        # At an exact fixed point every further round would repeat this row.
        done = stats.b_m_size - stats.b_size < cfg.epsilon or pruned == basis
        if pruned == basis and patterns is not None:
            entries = kept[basis][0]
            patterns.update((name, (stops, key[1])) for name, stops, key, _, _ in entries)
        basis = pruned
        if done:
            break
    else:
        logger.warning("stopped at max_iterations=%d without converging", cfg.max_iterations)
    return basis, trace


def run_alg2(
    corpus: Corpus, cfg: RunConfig, *, surveys: Surveys | None = None
) -> tuple[frozenset[str], list[IterationStats]]:
    """Single-shot induction from exhaustive compositions, no seed.

    Every segment is new, so one ``_round`` from an empty basis takes
    all the chosen words; the trace has that one row. The names of one
    length share one table, kept under the empty basis in ``surveys``.
    """
    _, pruned, stats, _ = _round(corpus, frozenset(), cfg, "alg2", 1, surveys)
    return pruned, [stats]


def segment_corpus(
    corpus: Corpus,
    basis: frozenset[str],
    cfg: RunConfig,
    *,
    patterns: Mapping[str, Pattern] | None = None,
) -> dict[str, SequenceCandidate]:
    """Best fully-in-basis segmentation of every name.

    Used to write the final name -> word-sequence table once induction
    is done. Each name is chosen among its first ``cfg.cap`` covering
    tilings; a name with exactly one takes it, and no table is built
    for it. Every name a finished run produced is coverable, but a
    foreign basis may leave gaps, in which case the best of the first
    ``cfg.cap`` gapped tilings is kept and a warning logged.
    ``patterns`` are the corpus's stops and span patterns by ``basis``,
    as ``run_alg1`` leaves them; they are found anew when not given.
    """
    covering = lru_cache(maxsize=None)(covering_tiling)
    entries: list[Entry] = []
    for name, (stops, pattern) in (patterns or _patterns(corpus, basis)).items():
        n = len(stops) - 1
        tiles = covering(n, pattern)
        cover = None if tiles is None else _cover(name, stops, tiles)
        entries.append((name, stops, (n, pattern, False), cover, None))
    return _choose_all("segmentation", entries, _tiling_tables(cfg.cap), None, cfg)


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
    the full (weights, cost) table in grid order. A round's survey does
    not depend on the weights, so each is kept for the whole grid: alg1's
    pass 1 per input basis, alg2's compositions under the empty basis.
    """
    surveys: Surveys = {}
    run = run_alg1 if cfg.algorithm == "alg1" else run_alg2
    table: list[tuple[WeightSet, float]] = []
    keys: list[tuple[float, int, int]] = []
    rounds = 0
    for index, weights in enumerate(grid):
        basis, trace = run(corpus, replace(cfg, weights=weights), surveys=surveys)
        rounds += len(trace)
        table.append((weights, trace[-1].cost))
        keys.append((trace[-1].cost, len(basis), index))
    logger.info(
        "grid search: %d %s surveys built, %d reused over %d rounds",
        len(surveys), cfg.algorithm, rounds - len(surveys), rounds,
    )
    return grid[min(keys)[2]], table

"""Candidate segmentations of a name.

One search, ``tiling_table``, lists a name's candidate segmentations:
the tilings of the name by a set of spans, optionally with gaps. Its
two uses are

  * alg1's tilings (``enumerate_with_basis``): the spans are the
    occurrences of current basis words, and every maximal uncovered run
    becomes exactly one not-yet-in-basis ("new") segment, so no two
    adjacent segments are both new, and the whole name as a single
    segment is always a candidate. With ``gaps=False`` it lists only
    the covering tilings, those made of occurrences alone.
  * alg2's compositions (``enumerate_all``): a composition is a tiling
    by every span of at least ``min_part`` letters, without gaps, and
    every part is new (there is no basis to start from).

The search lists distinct boundary sets exactly once, in ascending
segment-count order with ties in leftmost-boundary lexicographic order.
When a cap is given, the first ``cap`` candidates in that order are
kept. Tilings come from one feasibility-pruned pass per segment count:
a table of which tile counts can still finish from each position lets
the search skip every dead prefix and stop at the cap.

Every candidate is scored from one table type, ``SegmentTable``: one
row of span indices per candidate, each row's sum of squared segment
lengths and count of new segments, and per span whether it is new and
a bitmask of the rows containing it. The table is the one place that
decides which segments are new: a tiling's gaps, and every part of a
composition. The engine costs a name's rows straight from its table
and builds a candidate for the winner only (``SegmentTable.candidate``).

Compositions depend only on the name's length, so their table is built
once per (length, minimum part, whole name allowed, cap) and cached by
``composition_table``. Tilings depend on the basis, so ``tiling_table``
builds a name's table uncached; the engine decides how long to keep
it. ``enumerate_all`` and ``enumerate_with_basis`` turn every row into
a candidate and serve as the test oracles.

A candidate is one flat ``SequenceCandidate`` tuple: the interior cut
offsets, the segment strings, one new-or-existing flag per segment and
the count of new segments, all computed once when it is built.
"""

from __future__ import annotations

from functools import lru_cache
from typing import AbstractSet, Container, Iterable, Mapping, NamedTuple, Sequence


class SequenceCandidate(NamedTuple):
    """One tiling of a name into existing-basis and new segments.

    ``boundaries`` are the interior cut offsets, ``texts`` the segment
    strings, and ``new[i]`` is true when segment ``i`` is not an
    occurrence of a basis word.
    """

    name: str
    boundaries: tuple[int, ...]
    texts: tuple[str, ...]
    new: tuple[bool, ...]
    eta_new: int

    @property
    def eta_total(self) -> int:
        return len(self.texts)

    @property
    def eta_joins(self) -> int:
        return len(self.texts) - 1


def candidate_words(
    name: str, basis: AbstractSet[str] | Container[str]
) -> dict[str, tuple[int, ...]]:
    """Basis words occurring as substrings of ``name``, with all offsets.

    The name itself is included when it is a basis member. ``basis``
    needs only membership testing; a ``max_length`` attribute, when
    present, bounds the substring scan.
    """
    n = len(name)
    longest = getattr(basis, "max_length", n)
    found: dict[str, list[int]] = {}
    for start in range(n):
        for end in range(start + 1, min(n, start + longest) + 1):
            piece = name[start:end]
            if piece in basis:
                found.setdefault(piece, []).append(start)
    return {word: tuple(offsets) for word, offsets in found.items()}


class SegmentTable(NamedTuple):
    """Candidate segmentations of a name as rows over one list of spans.

    ``new[i]`` is true when ``spans[i]`` is a new segment, not an
    occurrence of a basis word. ``rows[r]`` lists segmentation ``r`` as
    indices into ``spans``, left to right, in enumeration order (as
    ``bytes`` when the indices fit in a byte). ``q[r]`` is the sum of
    the squared segment lengths of row ``r`` and ``eta_new[r]`` its
    count of new segments; bit ``r`` of ``masks[i]`` is set when row
    ``r`` contains ``spans[i]``.
    """

    spans: tuple[tuple[int, int], ...]
    new: tuple[bool, ...]
    rows: tuple[Sequence[int], ...]
    q: tuple[int, ...]
    masks: tuple[int, ...]
    eta_new: tuple[int, ...]

    def boundaries(self, row: int) -> tuple[int, ...]:
        """Interior cut offsets of row ``row``."""
        return tuple(self.spans[i][1] for i in self.rows[row][:-1])

    def candidate(self, name: str, row: int) -> SequenceCandidate:
        """Row ``row`` as a candidate segmentation of ``name``."""
        placed = self.rows[row]
        return SequenceCandidate(
            name,
            self.boundaries(row),
            tuple(name[start:end] for start, end in map(self.spans.__getitem__, placed)),
            tuple(map(self.new.__getitem__, placed)),
            self.eta_new[row],
        )


def _table(
    index: Mapping[tuple[int, int], int],
    new: Iterable[bool],
    rows: Sequence[Sequence[int]],
    q: Iterable[int],
    eta_new: Iterable[int],
) -> SegmentTable:
    """A ``SegmentTable`` over the spans of ``index``, in index order,
    with each span's row bitmask."""
    # Set the bits in byte arrays: OR-ing into growing ints would copy
    # each mask once per row.
    bits = [bytearray((len(rows) + 7) // 8) for _ in index]
    for r, row in enumerate(rows):
        byte, bit = r >> 3, 1 << (r & 7)
        for i in row:
            bits[i][byte] |= bit
    masks = tuple(int.from_bytes(b, "little") for b in bits)
    return SegmentTable(tuple(index), tuple(new), tuple(rows), tuple(q), masks, tuple(eta_new))


def occurrence_spans(candidates: Mapping[str, tuple[int, ...]]) -> frozenset[tuple[int, int]]:
    """The ``(start, end)`` spans of a ``candidate_words`` mapping."""
    return frozenset(
        (start, start + len(word)) for word, offsets in candidates.items() for start in offsets
    )


def tiling_table(
    n: int, spans: Container[tuple[int, int]], cap: int = 5000, *, gaps: bool = True
) -> SegmentTable:
    """The table of the first ``cap`` tilings of a length-``n`` name.

    A tile is either a span from ``spans`` or, when ``gaps`` is true, a
    new-segment gap; gaps may not be adjacent. Rows come fewest tiles
    first, ties in leftmost-boundary order.

    One backward pass builds ``feasible[pos][after_gap]``, a bitmask
    whose bit ``t`` is set when ``[pos, n)`` can be tiled with exactly
    ``t`` more tiles (``after_gap``: the tile ending at ``pos`` was a
    gap, so the next one must be a span). Then, for each tile count
    whose bit is set at the start, a depth-first pass enters a move only
    when its target can still finish with the tiles left. Every node
    visited leads to a tiling, so no dead prefix is walked, and the
    search stops at the ``cap``-th tiling. With one tile left, the only
    move that finishes ends at ``n``, and moves are kept in ascending
    end order, so the last tile is the last move, taken without a test.
    Each move carries its span and squared length, and a gap is exactly
    a new segment, so the walk emits each row with its ``q`` and
    ``eta_new``; a span gets its index when the walk first enters it.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    feasible = [(1, 1)] * (n + 1)
    # moves[pos][after_gap]: (end, is_gap, target mask, span, square) for
    # each tile from pos that some tiling can finish, ascending end
    moves: list[tuple[list, list]] = [([], [])] * n
    for pos in range(n - 1, -1, -1):
        any_move: list[tuple[int, bool, int, tuple[int, int], int]] = []
        span_move: list[tuple[int, bool, int, tuple[int, int], int]] = []
        after_any = after_span = 0
        for end in range(pos + 1, n + 1):
            is_gap = (pos, end) not in spans
            if is_gap and not gaps:
                continue
            mask = feasible[end][is_gap]
            if not mask:
                continue
            move = (end, is_gap, mask, (pos, end), (end - pos) * (end - pos))
            any_move.append(move)
            after_any |= mask
            if not is_gap:
                span_move.append(move)
                after_span |= mask
        moves[pos] = (any_move, span_move)
        feasible[pos] = (after_any << 1, after_span << 1)

    index: dict[tuple[int, int], int] = {}
    path: list[int] = []
    rows: list[Sequence[int]] = []
    q: list[int] = []
    eta_new: list[int] = []

    def descend(pos: int, left: int, after_gap: bool, squares: int, fresh: int) -> bool:
        """Emit the tilings of ``[pos, n)`` in ``left`` tiles; true at the cap."""
        if left == 1:
            _, is_gap, _, span, square = moves[pos][after_gap][-1]
            rows.append((*path, index.setdefault(span, len(index))))
            q.append(squares + square)
            eta_new.append(fresh + is_gap)
            return len(rows) >= cap
        bit = 1 << (left - 1)
        for end, is_gap, mask, span, square in moves[pos][after_gap]:
            if mask & bit:
                path.append(index.setdefault(span, len(index)))
                if descend(end, left - 1, is_gap, squares + square, fresh + is_gap):
                    return True
                path.pop()
        return False

    for tiles in range(1, n + 1):
        if feasible[0][0] >> tiles & 1 and descend(0, tiles, False, 0, 0):
            break
    if len(index) <= 256:
        rows = list(map(bytes, rows))  # one byte per index, not a pointer
    return _table(index, (span not in spans for span in index), rows, q, eta_new)


def enumerate_with_basis(
    name: str,
    candidates: Mapping[str, tuple[int, ...]],
    cap: int = 5000,
    *,
    gaps: bool = True,
) -> list[SequenceCandidate]:
    """The first ``cap`` tilings of ``name`` by the candidate occurrences.

    Gaps between placed words become one new segment each; with gaps,
    the full name as a single segment is always among the results (as
    an existing segment when the name is itself a candidate word).
    ``gaps=False`` keeps only the tilings made of occurrences alone,
    and may return none.
    """
    table = tiling_table(len(name), occurrence_spans(candidates), cap, gaps=gaps)
    return [table.candidate(name, r) for r in range(len(table.rows))]


@lru_cache(maxsize=1024)
def composition_table(
    n: int, min_part: int, include_whole: bool, cap: int | None
) -> SegmentTable:
    """Compositions of a length-``n`` name into parts >= ``min_part``,
    every part new.

    A composition is a gapless tiling by every span of at least
    ``min_part`` letters (by the whole name only when ``include_whole``),
    so ``tiling_table`` lists them and this marks every span new.
    ``cap=None`` passes ``2 ** n``, more than a length-``n`` name has
    compositions.
    """
    spans = {(start, end) for start in range(n) for end in range(start + min_part, n + 1)}
    if not include_whole:
        spans.discard((0, n))
    table = tiling_table(n, spans, 2**n if cap is None else cap, gaps=False)
    return table._replace(new=(True,) * len(table.spans), eta_new=tuple(map(len, table.rows)))


def enumerate_all(
    name: str,
    min_segment: int = 2,
    include_whole: bool = True,
    cap: int | None = None,
) -> list[SequenceCandidate]:
    """Every composition of ``name`` into parts of length >= ``min_segment``.

    All segments are new (there is no basis yet). ``include_whole``
    controls whether the unsplit name counts as a sequence. A name
    shorter than ``min_segment`` yields an empty list.
    """
    if min_segment < 1:
        raise ValueError(f"min_segment must be >= 1, got {min_segment}")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    table = composition_table(len(name), min_segment, include_whole, cap)
    return [table.candidate(name, r) for r in range(len(table.rows))]

"""Candidate segmentations of a name.

One search, ``SegmentTable`` (built by ``tiling_table``), counts and
lists a name's candidate segmentations: the tilings of the name by a
set of spans, optionally with gaps. Its two uses are

  * alg1's tilings (``enumerate_with_basis``): the spans are the
    occurrences of current basis words, and every maximal uncovered run
    becomes exactly one not-yet-in-basis ("new") segment, so no two
    adjacent segments are both new, and the whole name as a single
    segment is always a candidate. With ``gaps=False`` it lists only
    the covering tilings, those made of occurrences alone.
  * alg2's compositions (``enumerate_all``): a composition is a tiling
    by every span of at least ``min_part`` letters, without gaps, and
    every part is new (there is no basis to start from).

The search orders distinct boundary sets in ascending segment-count
order ("levels"), with ties in leftmost-boundary lexicographic order.
When a cap is given, the first ``cap`` candidates in that order are
kept. A backward and a forward pass count, without listing a row, the
rows of every level and the rows that place each span, so a span's
demand share is a count over the row total. Rows are listed one level
at a time, only when asked for, by a depth-first pass that enters a
move only when the tiles left can still finish, and stops at the cap.

Every candidate is scored from one table type, ``SegmentTable``: the
counts above, per span whether it is new, and per listed row its span
indices, its sum of squared segment lengths and its count of new
segments. The table is the one place that decides which segments are
new: a tiling's gaps, and every part of a composition. The engine
costs a name's rows level by level straight from its table, asks for
a level only while its rows can still win, and builds a candidate for
the winner only (``SegmentTable.candidate``).

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

from array import array
from functools import lru_cache
from typing import AbstractSet, Callable, Container, Iterable, Mapping, NamedTuple, Sequence


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


def occurrence_spans(candidates: Mapping[str, tuple[int, ...]]) -> frozenset[tuple[int, int]]:
    """The ``(start, end)`` spans of a ``candidate_words`` mapping."""
    return frozenset(
        (start, start + len(word)) for word, offsets in candidates.items() for start in offsets
    )


# One listed level of a SegmentTable: its rows, each as its span indices
# left to right; each row's sum of squared segment lengths; and each
# row's count of new segments.
Level = tuple[Sequence[Sequence[int]], Sequence[int], Sequence[int]]

# A move of the tiling search: the tile's end, whether it is a gap, the
# packed counts of the ways to finish after it, its span index, its
# squared length and whether it is new.
Move = tuple[int, bool, int, int, int, bool]


@lru_cache(maxsize=64)
def _fields(width: int) -> tuple[int, ...]:
    """The masks of the ``width``-bit fields of a packed count, by
    field: ``t`` tiles left to place is field ``t``."""
    return tuple(((1 << width) - 1) << (width * t) for t in range(width))


def _row(spans: int) -> Callable[[Iterable[int]], Sequence[int]]:
    """How a row of indices into ``spans`` spans is kept: one byte an
    index when the indices fit, not a pointer each."""
    return bytes if spans <= 256 else tuple


# Rows listed by every SegmentTable so far. Tables list their rows one
# level at a time, on demand, so the engine logs how far this moved in
# each pass.
_rows_listed = 0


class SegmentTable:
    """The first ``cap`` tilings of a length-``n`` name, counted in full
    and listed one level at a time.

    A tile is either a span from ``spans`` or, when ``gaps`` is true, a
    gap: a new segment, never next to another gap. Rows come fewest
    tiles first, ties in leftmost-boundary order, and level ``k`` holds
    the rows of ``k`` tiles.

    One backward pass packs, for each position and whether the tile
    ending there was a gap, the number of ways to finish with each tile
    count into one int, one ``n + 1``-bit field per count: adding a tile
    shifts a target's counts up one field, and a position sums its
    moves' shifted counts. A length-``n`` name has at most
    ``2 ** (n - 1)`` tilings, so no field overflows, and a packed count
    taken mod ``2 ** (n + 1) - 1`` is the sum of its fields. A matching
    forward pass counts the ways to reach each position, so a tile's
    rows, per level, are one product of the counts on either side of
    it. From these the table knows, without listing a row:

      * ``levels[k]``, the rows of level ``k`` (after the cap) and
        ``total``, their sum;
      * ``spans``, every tile some kept row places, with ``new[i]``
        true when ``spans[i]`` is a new segment and ``counts[i]`` the
        rows that place it.

    ``level(k)`` lists level ``k`` on first use and keeps it: its rows
    as indices into ``spans``, left to right, one byte each when they
    fit, each row's sum of squared tile lengths and its count of new
    tiles. The level the cap cuts is listed when the table is built,
    since the counts of its first rows come from listing them. The walk
    enters a move only when its target can still finish with the tiles
    left, so every node visited leads to a row, and with one tile left
    the only move that finishes ends at ``n``: moves are kept in
    ascending end order, so it is the last one. Once every level is
    listed, the moves are dropped.

    ``text_rows(name)`` gives, for each span, the rows placing its text
    at least once: the span's own count for a text placed at one
    offset, and otherwise the rows left after one more backward pass
    that avoids all of the text's spans. They are kept per name, so a
    table re-read under other weights counts them once.
    """

    __slots__ = (
        "spans", "new", "counts", "levels", "total",
        "_width", "_moves", "_rows", "_q", "_eta_new", "_at", "_cut", "_full", "_text_rows",
    )

    def __init__(
        self, n: int, spans: Container[tuple[int, int]], cap: int, gaps: bool, all_new: bool
    ):
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self._width = width = n + 1
        # back[pos][after_gap]: ways to tile [pos, n), one field per tile
        # count; after_gap: the tile ending at pos was a gap, so the next
        # must be a span. steps[pos]: (end, is_gap, target counts) for
        # each tile from pos that some tiling can finish, ascending end.
        back = [(1, 1)] * (n + 1)
        steps: list[list[tuple[int, bool, int]]] = [[]] * n
        for pos in range(n - 1, -1, -1):
            step: list[tuple[int, bool, int]] = []
            to_any = to_span = 0
            for end in range(pos + 1, n + 1):
                is_gap = (pos, end) not in spans
                if is_gap and not gaps:
                    continue
                count = back[end][is_gap]
                if not count:
                    continue
                step.append((end, is_gap, count))
                to_any += count
                if not is_gap:
                    to_span += count
            steps[pos] = step
            back[pos] = (to_any << width, to_span << width)

        field = (1 << width) - 1
        levels = [0]
        kept = cut = 0
        rest = back[0][0] >> width  # field k - 1: the rows of level k
        while rest and kept < cap:
            count = rest & field
            rest >>= width
            if kept + count > cap:
                count = cap - kept
                cut = len(levels)
            levels.append(count)
            kept += count
        self.levels = tuple(levels)
        self.total = sum(levels)
        self._cut = cut
        self._full = len(levels) - 1 - bool(cut)  # the last level kept in full

        # A product of forward and backward counts has the rows of level
        # t + 1 in field t, and counts mod 2**width - 1 is the sum of their
        # fields (at most the name's 2**(n - 1) tilings, so exact). A
        # tile's rows are its product summed over the full levels; when
        # the cap drops rows, tiles that no kept row places are left out,
        # along with the prefixes through them.
        last = (1 << (width * (len(levels) - 1))) - 1
        full = (1 << (width * self._full)) - 1
        fwd = [0] * (n + 1)  # ways to reach pos, the last tile a span
        fwd_gap = [0] * (n + 1)  # ... the last tile a gap
        fwd[0] = 1
        tiles: list[tuple[int, int]] = []
        new: list[bool] = []
        counts: list[int] = []
        # moves[after_gap][pos]: (end, is_gap, target counts, span index,
        # square, new) for each kept tile from pos, ascending end
        moves: tuple[list[tuple[Move, ...]], list[tuple[Move, ...]]] = ([()] * n, [()] * n)
        for pos in range(n):
            reach = fwd[pos]  # only these may go on with a gap
            reach_any = reach + fwd_gap[pos]
            if not reach_any:
                continue
            any_move: list[Move] = []
            span_move: list[Move] = []
            for end, is_gap, count in steps[pos]:
                before = reach if is_gap else reach_any
                if not before:
                    continue
                rows = before * count
                if not rows & last:
                    continue
                if is_gap:
                    fwd_gap[end] += before << width
                else:
                    fwd[end] += before << width
                move = (end, is_gap, count, len(tiles), (end - pos) * (end - pos), all_new or is_gap)
                tiles.append((pos, end))
                new.append(move[5])
                counts.append((rows & full) % field)
                any_move.append(move)
                if not is_gap:
                    span_move.append(move)
            moves[False][pos] = tuple(any_move)
            moves[True][pos] = tuple(span_move)
        self._moves = moves
        self.spans = tuple(tiles)
        self.new = tuple(new)
        # Every listed row, level after level in the order they are
        # listed: its span indices, its sum of squared tile lengths and
        # its count of new tiles. _at[k] is the first row of level k, once
        # listed; an empty level is listed already.
        self._rows: list[Sequence[int]] = []
        self._q = array("I")
        self._eta_new = array("I")
        self._at: list[int | None] = [None if count else 0 for count in levels]
        self._text_rows: dict[str, tuple[int, ...]] = {}
        if cut:
            self._walk(cut)
            for row in self._rows:
                for i in row:
                    counts[i] += 1
            if not all(counts):
                # drop the tiles that only the cut level's unlisted rows place
                number = {i: j for j, i in enumerate(i for i, c in enumerate(counts) if c)}
                if self._moves is not None:
                    self._moves = tuple(
                        [
                            tuple((*m[:3], number[m[3]], *m[4:]) for m in side if m[3] in number)
                            for side in state
                        ]
                        for state in moves
                    )
                self.spans, self.new, counts = [
                    tuple(value for value, placed in zip(column, counts) if placed)
                    for column in (self.spans, self.new, counts)
                ]
                pack = _row(len(self.spans))
                self._rows = [pack(map(number.__getitem__, row)) for row in self._rows]
        self.counts = tuple(counts)

    def level(self, k: int) -> Level:
        """The rows of level ``k``, each as its span indices left to right;
        each row's sum of squared tile lengths; and each row's count of
        new tiles. The level is listed on first use."""
        if self._at[k] is None:
            self._walk(k)
        start = self._at[k]
        stop = start + self.levels[k]
        return self._rows[start:stop], self._q[start:stop], self._eta_new[start:stop]

    def _walk(self, k: int) -> None:
        """List the first ``levels[k]`` rows of ``k`` tiles, depth first,
        after the rows listed so far."""
        global _rows_listed
        moves = self._moves
        finish = _fields(self._width)
        limit = len(self._q) + self.levels[k]
        self._at[k] = len(self._q)
        pack = _row(len(self.spans))
        path: list[int] = []
        rows, q, eta_new = self._rows, self._q, self._eta_new

        def descend(pos: int, left: int, after_gap: bool, squares: int, fresh: int) -> bool:
            """List the rows of ``[pos, n)`` in ``left`` tiles; true at the limit."""
            if left == 1:
                _, _, _, i, square, is_new = moves[after_gap][pos][-1]
                rows.append(pack((*path, i)))
                q.append(squares + square)
                eta_new.append(fresh + is_new)
                return len(q) >= limit
            field = finish[left - 1]
            for end, is_gap, count, i, square, is_new in moves[after_gap][pos]:
                if count & field:
                    path.append(i)
                    if descend(end, left - 1, is_gap, squares + square, fresh + is_new):
                        return True
                    path.pop()
            return False

        descend(0, k, False, 0, 0)
        del descend  # it refers to itself: free it now, not at the next collection
        _rows_listed += self.levels[k]
        if None not in self._at:
            self._moves = None  # every level is listed

    def candidate(self, name: str, k: int, j: int) -> SequenceCandidate:
        """Row ``j`` of level ``k`` as a candidate segmentation of ``name``."""
        rows, _, eta_new = self.level(k)
        spans = list(map(self.spans.__getitem__, rows[j]))
        return SequenceCandidate(
            name,
            tuple(end for _, end in spans[:-1]),
            tuple(name[start:end] for start, end in spans),
            tuple(map(self.new.__getitem__, rows[j])),
            eta_new[j],
        )

    def candidates(self, name: str) -> list[SequenceCandidate]:
        """Every row, level by level, as a candidate segmentation of ``name``."""
        return [
            self.candidate(name, k, j) for k, count in enumerate(self.levels) for j in range(count)
        ]

    def text_rows(self, name: str) -> tuple[list[str], tuple[int, ...]]:
        """Each span's text in ``name``, and the rows placing that text at
        least once. The counts are kept per name."""
        texts = [name[start:end] for start, end in self.spans]
        kept = self._text_rows.get(name)
        if kept is None:
            if len(set(texts)) == len(texts):
                kept = self.counts  # each text at one offset: its span's count
            else:
                placed: dict[str, list[int]] = {}
                for i, text in enumerate(texts):
                    placed.setdefault(text, []).append(i)
                rows = [0] * len(texts)
                for spans in placed.values():
                    count = self.counts[spans[0]]
                    if len(spans) > 1:
                        count = self._rows_placing(set(spans))
                    for i in spans:
                        rows[i] = count
                kept = tuple(rows)
            self._text_rows[name] = kept
        return texts, kept

    def _rows_placing(self, spans: AbstractSet[int]) -> int:
        """Rows placing any of the span indices ``spans``: the rows of the
        levels kept in full, less those one backward pass counts without
        ``spans``, plus the listed rows of the cut level that place one.
        Once every level is listed, the rows are scanned instead."""
        if self._moves is None:
            return sum(not spans.isdisjoint(row) for row in self._rows)
        width = self._width
        moves = self._moves[False]
        n = len(moves)
        back = [(1, 1)] * (n + 1)
        for pos in range(n - 1, -1, -1):
            to_span = to_gap = 0
            for end, is_gap, _, i, _, _ in moves[pos]:
                if i not in spans:
                    if is_gap:
                        to_gap += back[end][True]
                    else:
                        to_span += back[end][False]
            back[pos] = ((to_span + to_gap) << width, to_span << width)
        # the rows of the full levels, summed as in the table's own count
        avoiding = (back[0][0] >> width & (1 << (width * self._full)) - 1) % ((1 << width) - 1)
        placing = sum(self.levels[: self._full + 1]) - avoiding
        if self._cut:
            placing += sum(not spans.isdisjoint(row) for row in self.level(self._cut)[0])
        return placing


def tiling_table(
    n: int, spans: Container[tuple[int, int]], cap: int = 5000, *, gaps: bool = True
) -> SegmentTable:
    """The table of the first ``cap`` tilings of a length-``n`` name by
    ``spans`` and, with ``gaps``, new-segment gaps; a gap is exactly a
    new segment."""
    return SegmentTable(n, spans, cap, gaps, all_new=False)


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
    return tiling_table(len(name), occurrence_spans(candidates), cap, gaps=gaps).candidates(name)


@lru_cache(maxsize=1024)
def composition_table(
    n: int, min_part: int, include_whole: bool, cap: int | None
) -> SegmentTable:
    """Compositions of a length-``n`` name into parts >= ``min_part``,
    every part new.

    A composition is a gapless tiling by every span of at least
    ``min_part`` letters (by the whole name only when ``include_whole``),
    so the tiling search lists them, with every span new. ``cap=None``
    passes ``2 ** n``, more than a length-``n`` name has compositions.
    """
    spans = {(start, end) for start in range(n) for end in range(start + min_part, n + 1)}
    if not include_whole:
        spans.discard((0, n))
    return SegmentTable(n, spans, 2**n if cap is None else cap, False, all_new=True)


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
    return composition_table(len(name), min_segment, include_whole, cap).candidates(name)

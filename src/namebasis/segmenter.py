"""Candidate segmentations of a name.

One search, ``SegmentTable`` (built by ``tiling_table``), counts and
lists a name's candidate segmentations: the tilings of the name by a
set of spans, optionally with gaps. Its two uses are

  * alg1's tilings (``tiling_table``): the spans are the occurrences
    of current basis words that ``candidate_words`` finds, scanning
    each name through ``word_heads``, an index of the basis words by
    their first two letters built once per basis, and every
    maximal uncovered run becomes exactly one not-yet-in-basis ("new")
    segment, so no two adjacent segments are both new, and the whole
    name as a single segment is always a candidate. With ``gaps=False``
    it lists only the covering tilings, those made of occurrences alone.
  * alg2's compositions (``composition_table``): a composition is a
    tiling by every span of at least ``min_part`` letters, without
    gaps, and every part is new (there is no basis to start from).

The search orders distinct boundary sets in ascending segment-count
order ("levels"), with ties in leftmost-boundary lexicographic order.
When a cap is given, the first ``cap`` candidates in that order are
kept. A backward and a forward pass count, without listing a row, the
rows of every level and the rows that place each span, so a span's
demand share is a count over the row total; a text a name holds at
several spans takes one more backward pass, over the rows placing any
of them, kept per span set. The backward pass also
marks which (segment count, new-segment count) pairs, the "cells",
have rows. Rows are listed one cell at a time, only when asked for, and
kept, by a depth-first pass that enters a move only when the segments
and new segments left can still finish. The level the cap cuts is
counted in the same forward pass, which finds the level's last kept row
by rank on the way, and is never listed whole.

Every candidate is scored from one table type, ``SegmentTable``: the
counts above, per span whether it is new, and per listed row its span
indices. The table is the one place that decides which segments are
new: a tiling's gaps, and every part of a composition, so a composition
table's cells are its levels and a gapless tiling table's have no new
segment. The engine costs a name's rows cell by cell straight from its
table, fewest new segments first, asks for a cell only while its rows
can still win, and builds a candidate for the winner only
(``SegmentTable.candidate``).

A table is built on stops, not on letters. Every tile of a tiling
starts and ends at a stop of the name: 0, its length, or a span's start
or end (``span_pattern``). A tiling table is built on the name's span
pattern, its spans as pairs of stop indices, and the name reads it
through its stops: its texts, its offsets and, in the engine, its
squared segment lengths. So names of different lengths, with their
spans at different offsets, share one table when their patterns match.
A composition table's stops are every offset, ``range(n + 1)``.

Two questions about a span pattern need no table, and no table keeps
their answers: ``covering_tiling`` counts its tilings by spans alone,
stopped at 2, and finds the one if there is exactly one, and
``placed_gaps`` the gaps its gapped tilings place, which are the new
segments of its uncut table.

``composition_table`` and ``tiling_table`` build a new table on every
call; the engine shares one, for as long as it decides, among the names
of one length (compositions) or of one span pattern (tilings), and a
table keeps nothing per name. ``enumerate_all`` and
``enumerate_with_basis`` build their tables on every offset and turn
every row into a candidate: they are the tests' listing oracles, and
the engine imports them only for perfbench's tracer.

A candidate is one flat ``SequenceCandidate`` tuple: the interior cut
offsets, the segment strings, one new-or-existing flag per segment and
the count of new segments, all computed once when it is built.
"""

from __future__ import annotations

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


def word_heads(words: Iterable[str]) -> dict[str, tuple[int, ...]]:
    """``words`` keyed by their first two letters, a one-letter word by
    itself: each key maps to the distinct lengths of its words, ascending.
    ``candidate_words`` scans a name through it, so a caller scanning
    many names against one basis builds it once."""
    heads: dict[str, set[int]] = {}
    for word in words:
        heads.setdefault(word[:2], set()).add(len(word))
    return {head: tuple(sorted(lengths)) for head, lengths in heads.items()}


def candidate_words(
    name: str, words: Container[str], heads: Mapping[str, Sequence[int]]
) -> frozenset[tuple[int, int]]:
    """Every occurrence of a basis word in ``name``, as a ``(start, end)`` span.

    The whole name is a span when it is a basis member. ``heads`` is
    ``word_heads(words)``: at each start only the lengths listed under
    the letter there (a one-letter word) and under the two letters from
    there are tested against ``words``.
    """
    n = len(name)
    found: list[tuple[int, int]] = []
    for start in range(n):
        if name[start] in heads:  # a one-letter word is its own head
            found.append((start, start + 1))
        if start + 1 < n:
            for length in heads.get(name[start : start + 2], ()):
                end = start + length
                if end > n:
                    break
                if name[start:end] in words:
                    found.append((start, end))
    return frozenset(found)


# A name's stops and its span pattern, the spans as pairs of stop indices.
Pattern = tuple[tuple[int, ...], frozenset[tuple[int, int]]]


def span_pattern(n: int, spans: AbstractSet[tuple[int, int]]) -> Pattern:
    """A length-``n`` name's stops and its span pattern.

    The stops are 0, ``n`` and every start and end of ``spans``,
    ascending; the pattern is ``spans`` as pairs of stop indices. Every
    tile of a tiling by spans and gaps starts and ends at a stop: a gap
    starts at 0 or where a span ends, and ends where a span starts or at
    ``n``. So ``tiling_table(len(stops) - 1, pattern, ...)`` has the
    rows of the table on the name's offsets, read through the stops, and
    names of any length with one pattern share it.
    """
    stops = sorted({0, n}.union(*spans))
    index = {stop: i for i, stop in enumerate(stops)}
    return tuple(stops), frozenset((index[start], index[end]) for start, end in spans)


def covering_tiling(
    n: int, pattern: AbstractSet[tuple[int, int]]
) -> tuple[int, list[tuple[int, int]] | None]:
    """The tilings of ``[0, n)`` by ``pattern``'s spans alone, counted to
    2, and the tiles of the one tiling, left to right, when there is
    exactly one (None otherwise).

    One backward pass counts the ways to finish from each position,
    stopped at 2; the one tiling, when there is one, goes from 0 through
    the positions with one way to finish.
    """
    ends: list[list[int]] = [[] for _ in range(n)]
    for start, end in pattern:
        ends[start].append(end)
    ways = [0] * n + [1]
    for pos in range(n - 1, -1, -1):
        ways[pos] = min(2, sum(ways[end] for end in ends[pos]))
    if ways[0] != 1:
        return ways[0], None
    tiles = []
    pos = 0
    while pos < n:
        end = next(end for end in ends[pos] if ways[end])
        tiles.append((pos, end))
        pos = end
    return 1, tiles


def placed_gaps(n: int, pattern: AbstractSet[tuple[int, int]]) -> list[tuple[int, int]]:
    """The gaps some gapped tiling of ``[0, n)`` by ``pattern`` places,
    with no cap: every ``(a, b)``, ``a < b``, that is not a span, where
    ``a`` is 0 or a span's end and ``b`` is ``n`` or a span's start.

    No two gaps touch, so a placed gap lies between spans or the ends of
    ``[0, n)``. And each such pair is placed: by a row with the span
    that ends at ``a`` after one tile from 0, then the gap, then the span
    that starts at ``b`` and one tile on to ``n`` (less what ``a = 0``
    or ``b = n`` leaves out). These are the new spans of
    ``tiling_table(n, pattern, cap, gaps=True)`` whenever the cap cuts
    nothing.
    """
    firsts = {0}.union(end for _, end in pattern)
    lasts = {n}.union(start for start, _ in pattern)
    return [(a, b) for a in firsts for b in lasts if a < b and (a, b) not in pattern]


def tiling_candidate(
    name: str, stops: Sequence[int], tiles: Iterable[tuple[int, int]], new: tuple[bool, ...]
) -> SequenceCandidate:
    """``name`` tiled by ``tiles``, pairs of stop indices read through its
    ``stops``, with ``new[i]`` true when tile ``i`` is a new segment."""
    spans = [(stops[start], stops[end]) for start, end in tiles]
    return SequenceCandidate(
        name,
        tuple(end for _, end in spans[:-1]),
        tuple(name[start:end] for start, end in spans),
        new,
        sum(new),
    )


# A move of the tiling search: the tile's end, whether it is a gap, the
# mask of the (tiles, new tiles) counts that can finish after it, its span
# index and whether it is new.
Move = tuple[int, bool, int, int, bool]


def _row(spans: int) -> Callable[[Iterable[int]], Sequence[int]]:
    """How a row of indices into ``spans`` spans is kept: one byte an
    index when the indices fit, not a pointer each. Plain tuple rows
    raise alg1's max RSS on the 2000-name, 200-unit planted corpus from
    79.5 to 103.6 MB."""
    return bytes if spans <= 256 else tuple


class SegmentTable:
    """The first ``cap`` tilings of ``[0, n)``, counted in full and listed
    one cell at a time.

    Positions are stop indices: a name reads a table through its stops,
    ascending offsets from 0 to its length with ``n + 1`` entries (see
    ``span_pattern``), so names of any length whose spans fall on their
    stops alike share one table. A composition table's stops are every
    offset, ``range(n + 1)``. Nothing in a table depends on a name's
    letters or offsets; the name's texts, offsets and squared segment
    lengths are read through its stops.

    A tile is either a span from ``spans`` or, when ``gaps`` is true, a
    gap: a new segment, never next to another gap. Rows come fewest
    tiles first, ties in leftmost-boundary order, and level ``k`` holds
    the rows of ``k`` tiles. Cell ``(k, e)`` holds the rows of level
    ``k`` with ``e`` new tiles, in the same order.

    One backward pass packs, for each position and whether the tile
    ending there was a gap, the number of ways to finish with each tile
    count into one int, one ``n + 1``-bit field per count: adding a tile
    shifts a target's counts up one field, and a position sums its
    moves' shifted counts. ``[0, n)`` has at most ``2 ** (n - 1)``
    tilings, so no field overflows, and a packed count taken mod
    ``2 ** (n + 1) - 1`` is the sum of its fields. The same pass keeps a
    mask of the ``(tiles, new tiles)`` pairs that can finish, bit ``e``
    of field ``t``: adding a tile shifts it up one field, and one bit
    more when the tile is new, and a position ORs its moves' shifted
    masks. A matching forward pass counts the ways to reach each
    position, again by whether the last tile was a gap, so a tile's
    rows, per level, are one product of the counts on either side of
    it. From these the table knows, without listing a row:

      * ``levels[k]``, the rows of level ``k`` (after the cap) and
        ``total``, their sum;
      * ``cells[e]``, the levels ``k``, ascending, whose cell ``(k, e)``
        has rows, for each ``e`` up to the last level;
      * ``spans``, every tile some kept row places, with ``new[i]``
        true when ``spans[i]`` is a new segment and ``counts[i]`` the
        rows that place it.

    Each position keeps one list of moves, the tiles from it that kept
    rows place, in ascending end order; after a gap, only spans are
    taken. ``cell(k, e)`` lists cell ``(k, e)`` on first use and keeps
    it from then on: its rows as indices into ``spans``, left to right,
    one byte each when they fit. ``listed`` adds up the rows of the
    cells as they are listed, so the chooser counts its own listing. The
    walk enters a move only when its target can still finish with
    exactly the tiles and new tiles left, and with one tile left the
    only move that finishes ends at ``n``, the last one.

    A level's rows come depth first over moves in ascending end order,
    so the kept rows of the level the cap cuts are those whose tile ends
    come, left to right, no later than its last kept row's: the path.
    The forward pass finds it by rank, reaching each path position
    before anything after it. A move from there that ends before the
    path's tile is a sibling: its rows on the cut level are all kept and
    counted forward beside the full levels', and its finish mask marks
    their cells. A walk on the path stops at a move that ends past the
    path's tile.

    A span's own count is its demand for a text the name holds once.
    For a text held at several spans, the chooser asks ``rows_placing``
    for the rows placing any of them: the rows left after one more
    backward pass that avoids them all. Counts are kept per span set, so
    every name that groups the spans alike, and a grid search that
    re-reads the table, counts them once. No name is kept: one is passed
    only to ``candidate`` and ``candidates``, to read its texts.
    """

    __slots__ = (
        "spans", "new", "counts", "levels", "total", "cells", "listed",
        "_width", "_moves", "_cells", "_cut", "_full", "_path", "_placing",
    )

    def __init__(
        self, n: int, spans: Container[tuple[int, int]], cap: int, gaps: bool, all_new: bool
    ):
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self._width = width = n + 1
        # back[pos][after_gap]: ways to tile [pos, n), one field per tile
        # count; after_gap: the tile ending at pos was a gap, so the next
        # must be a span. finish[pos][after_gap]: the (tiles, new tiles)
        # pairs that can tile [pos, n), bit new tiles of field tiles.
        # steps[pos]: (end, is_gap, target counts, target mask) for each
        # tile from pos that some tiling can finish, ascending end.
        back = [(1, 1)] * (n + 1)
        finish = [(1, 1)] * (n + 1)
        steps: list[list[tuple[int, bool, int, int]]] = [[]] * n
        for pos in range(n - 1, -1, -1):
            step: list[tuple[int, bool, int, int]] = []
            to_any = to_span = any_mask = span_mask = 0
            for end in range(pos + 1, n + 1):
                is_gap = (pos, end) not in spans
                if is_gap and not gaps:
                    continue
                count = back[end][is_gap]
                if not count:
                    continue
                mask = finish[end][is_gap]
                step.append((end, is_gap, count, mask))
                to_any += count
                any_mask |= mask << (all_new or is_gap)
                if not is_gap:
                    to_span += count
                    span_mask |= mask << all_new
            steps[pos] = step
            back[pos] = (to_any << width, to_span << width)
            finish[pos] = (any_mask << width, span_mask << width)

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
        # tile's rows are its product summed over the full levels, plus
        # its kept rows of the cut level; tiles that no kept row places
        # are left out, along with the prefixes through them.
        full = (1 << (width * self._full)) - 1
        # fwd[after_gap][pos]: ways to reach pos, by tiles so far; cut_fwd
        # the same on the cut level's kept rows that left the path at a sibling
        fwd = ([0] * (n + 1), [0] * (n + 1))
        fwd[False][0] = 1
        self._path: list[int] = []  # the tile ends of the cut level's last kept row
        cut_fwd = ([0] * (n + 1), [0] * (n + 1)) if cut else ([], [])
        path_pos, path_gap, rank, fresh, cut_cells = 0, False, levels[cut], 0, 0
        tiles: list[tuple[int, int]] = []
        new: list[bool] = []
        counts: list[int] = []
        # moves[pos]: (end, is_gap, target mask, span index, new) for each
        # kept tile from pos, ascending end; after a gap, only spans
        moves: list[tuple[Move, ...]] = [()] * n
        for pos in range(n):
            reach = fwd[False][pos]  # only these may go on with a gap
            reach_any = reach + fwd[True][pos]
            if not reach_any:
                continue
            kept_moves: list[Move] = []
            for end, is_gap, count, mask in steps[pos]:
                before = reach if is_gap else reach_any
                if not before:
                    continue
                rows = (before * count & full) % field
                is_new = all_new or is_gap
                if cut:
                    cut_before = cut_fwd[False][pos] + (0 if is_gap else cut_fwd[True][pos])
                    if pos == path_pos and not (is_gap and path_gap):
                        depth = len(self._path)
                        left = cut - depth - 1  # tiles after this one
                        here = count >> (width * left) & field
                        if rank <= here:  # the path's tile: the rank left below it
                            rows += rank
                            self._path.append(end)
                            path_pos, path_gap, fresh = end, is_gap, fresh + is_new
                        elif here:  # a sibling
                            rank -= here
                            cut_before += 1 << (width * depth)  # the path so far
                            cut_cells |= (mask >> (width * left) & field) << (fresh + is_new)
                    if cut_before:
                        cut_fwd[is_gap][end] += cut_before << width
                        rows += cut_before * count >> (width * (cut - 1)) & field
                if not rows:
                    continue
                fwd[is_gap][end] += before << width
                kept_moves.append((end, is_gap, mask, len(tiles), is_new))
                tiles.append((pos, end))
                new.append(is_new)
                counts.append(rows)
            moves[pos] = tuple(kept_moves)
        cut_cells |= 1 << fresh  # the path row's cell
        self._moves = moves
        self.spans = tuple(tiles)
        self.new = tuple(new)
        self.counts = tuple(counts)
        by_new: list[list[int]] = [[] for _ in levels]  # e <= k < len(levels)
        for k in range(1, len(levels)):
            fresh = cut_cells if k == cut else finish[0][False] >> (width * k) & field
            while fresh:
                e = (fresh & -fresh).bit_length() - 1
                by_new[e].append(k)
                fresh &= fresh - 1
        self._cells: dict[tuple[int, int], list[Sequence[int]]] = {}  # (k, e): listed rows
        self.listed = 0  # the rows of the cells in _cells
        self._placing: dict[frozenset[int], int] = {}  # rows_placing's counts
        self.cells = tuple(map(tuple, by_new))

    def cell(self, k: int, e: int) -> list[Sequence[int]]:
        """The rows of level ``k`` with ``e`` new tiles, each as its span
        indices left to right. The cell must have rows (``k in cells[e]``);
        it is listed on first use."""
        rows = self._cells.get((k, e))
        if rows is None:
            rows = self._cells[k, e] = self._walk(k, e)
            self.listed += len(rows)
        return rows

    def _walk(self, k: int, e: int) -> list[Sequence[int]]:
        """List cell ``(k, e)`` depth first."""
        moves = self._moves
        width = self._width
        pack = _row(len(self.spans))
        tiles: list[int] = []
        rows: list[Sequence[int]] = []

        def descend(pos: int, left: int, after_gap: bool, fresh: int, tight: bool):
            """List the rows of ``[pos, n)`` in ``left`` tiles; ``tight``: on the path."""
            if left == 1:
                rows.append(pack((*tiles, moves[pos][-1][3])))
                return
            # the target bits a move needs: one more new tile is one bit lower
            old = 1 << (width * (left - 1) + e - fresh)
            new = old >> 1 if fresh < e else 0
            stop = self._path[k - left] if tight else width
            for end, is_gap, mask, i, is_new in moves[pos]:
                if end > stop:
                    break
                if mask & (new if is_new else old) and not (is_gap and after_gap):
                    tiles.append(i)
                    descend(end, left - 1, is_gap, fresh + is_new, end == stop)
                    tiles.pop()

        descend(0, k, False, 0, k == self._cut)
        del descend  # it refers to itself: free it now, not at the next collection
        return rows

    def candidate(self, name: str, stops: Sequence[int], row: Sequence[int]) -> SequenceCandidate:
        """A row, as its span indices, as a candidate segmentation of
        ``name``, read through its ``stops``."""
        tiles = map(self.spans.__getitem__, row)
        return tiling_candidate(name, stops, tiles, tuple(map(self.new.__getitem__, row)))

    def candidates(self, name: str, stops: Sequence[int]) -> list[SequenceCandidate]:
        """Every row, level by level, as a candidate segmentation of ``name``.
        A level's cells merge back into leftmost-boundary order, which is
        the order of the rows' span indices, since spans are numbered by
        start, then end."""
        cells = [(k, e) for e, ks in enumerate(self.cells) for k in ks]
        rows = sorted((k, row) for k, e in cells for row in self.cell(k, e))
        return [self.candidate(name, stops, row) for _, row in rows]

    def rows_placing(self, spans: frozenset[int]) -> int:
        """Rows placing any of the span indices ``spans``: all rows less
        those one backward pass counts without ``spans``, in the full
        levels and below each sibling of the cut level's path, and the
        path row if it avoids them. Kept per span set, so every name
        that groups the table's spans alike reads one count."""
        kept = self._placing.get(spans)
        if kept is not None:
            return kept
        width = self._width
        field = (1 << width) - 1
        moves = self._moves
        n = len(moves)
        back = [(1, 1)] * (n + 1)
        for pos in range(n - 1, -1, -1):
            to_span = to_gap = 0
            for end, is_gap, _, i, _ in moves[pos]:
                if i not in spans:
                    if is_gap:
                        to_gap += back[end][True]
                    else:
                        to_span += back[end][False]
            back[pos] = ((to_span + to_gap) << width, to_span << width)
        # the rows of the full levels, summed as in the table's own count
        avoiding = (back[0][0] >> width & (1 << (width * self._full)) - 1) % field
        pos, after_gap, left = 0, False, self._cut
        for stop in self._path:
            left -= 1
            for end, is_gap, _, i, _ in moves[pos]:
                if end == stop:
                    break
                if i not in spans and not (is_gap and after_gap):
                    avoiding += back[end][is_gap] >> (width * left) & field
            if i in spans:
                break  # every row left places the path's tile
            pos, after_gap = end, is_gap
        else:
            avoiding += bool(self._path)  # the path row
        kept = self._placing[spans] = self.total - avoiding
        return kept


def tiling_table(
    n: int, spans: Container[tuple[int, int]], cap: int, *, gaps: bool
) -> SegmentTable:
    """The table of the first ``cap`` tilings of ``[0, n)`` by ``spans``
    and, with ``gaps``, new-segment gaps; a gap is exactly a new segment.
    Positions are a name's offsets or, for a table that names of one
    span pattern share, its stop indices (``span_pattern``)."""
    return SegmentTable(n, spans, cap, gaps, all_new=False)


def enumerate_with_basis(
    name: str,
    spans: Container[tuple[int, int]],
    cap: int = 5000,
    *,
    gaps: bool = True,
) -> list[SequenceCandidate]:
    """The first ``cap`` tilings of ``name`` by ``candidate_words``' spans.

    Gaps between placed words become one new segment each; with gaps,
    the full name as a single segment is always among the results (as
    an existing segment when ``(0, len(name))`` is a span).
    ``gaps=False`` keeps only the tilings made of occurrences alone,
    and may return none.
    """
    table = tiling_table(len(name), spans, cap, gaps=gaps)
    return table.candidates(name, range(len(name) + 1))


def composition_table(
    n: int, min_part: int, include_whole: bool, cap: int | None
) -> SegmentTable:
    """Compositions of a length-``n`` name into parts >= ``min_part``,
    every part new: a new table, which names of one length can share.

    A composition is a gapless tiling by every span of at least
    ``min_part`` letters (by the whole name only when ``include_whole``),
    so the tiling search lists them, with every span new; a name reads
    it through the stops ``range(n + 1)``. ``cap=None``
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
    table = composition_table(len(name), min_segment, include_whole, cap)
    return table.candidates(name, range(len(name) + 1))

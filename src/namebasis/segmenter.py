"""Candidate segmentations of a name.

Two enumerators produce the per-name sequence candidates:

  * ``enumerate_with_basis`` tiles the name with occurrences of current
    basis words; every maximal uncovered run becomes exactly one
    not-yet-in-basis ("new") segment, so no two adjacent segments are
    both new, and the whole name as a single segment is always a
    candidate. With ``gaps=False`` it lists only the covering tilings,
    those made of occurrences alone.
  * ``enumerate_all`` lists every composition of the name into
    contiguous parts of a minimum length, all parts new (used when
    there is no basis to start from).

Both enumerate distinct boundary sets exactly once, in ascending
segment-count order with ties in leftmost-boundary lexicographic order.
When a cap is given, the first ``cap`` candidates in that order are
kept. Tilings come from one feasibility-pruned pass per segment count:
a table of which tile counts can still finish from each position lets
the search skip every dead prefix and stop at the cap.

Compositions depend only on the name's length, so they are built once
per (length, minimum part, whole name allowed, cap) into a cached
``CompositionTable``: one row of span indices per composition, each
row's sum of squared part lengths, and per span a bitmask of the rows
containing it. The from-scratch algorithm costs a name's rows straight
from this table and builds a candidate for the winner only;
``enumerate_all`` turns every row into a candidate and serves as its
test oracle.

Tilings depend on the basis, so they are cached per (name, occurrence
spans, cap, gaps) as plain boundary tuples, which ``basis_tilings``
returns with the spans. The seeded algorithm and the final
segmentation cost a name's tilings from a transient per-name table of
distinct segments and build a candidate for the winner only;
``enumerate_with_basis`` turns every tiling into a candidate and serves
as the test oracle.

A candidate is one flat ``SequenceCandidate`` tuple: the interior cut
offsets, the segment strings, one new-or-existing flag per segment and
the count of new segments, all computed once when it is built.
"""

from __future__ import annotations

from functools import lru_cache
from typing import AbstractSet, Container, Mapping, NamedTuple


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

    @classmethod
    def from_boundaries(
        cls,
        name: str,
        boundaries: tuple[int, ...],
        existing_spans: Container[tuple[int, int]] = frozenset(),
    ) -> "SequenceCandidate":
        """Build from interior boundary offsets; kinds follow ``existing_spans``."""
        cuts = (0, *boundaries, len(name))
        spans = tuple(zip(cuts, cuts[1:]))
        if any(start >= end for start, end in spans):
            raise ValueError(f"bad boundaries {boundaries} for {name!r}")
        new = tuple(span not in existing_spans for span in spans)
        texts = tuple(name[start:end] for start, end in spans)
        return cls(name, tuple(boundaries), texts, new, sum(new))

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


@lru_cache(maxsize=65536)
def _basis_tilings(
    name: str, spans: frozenset[tuple[int, int]], cap: int, gaps: bool = True
) -> tuple[tuple[int, ...], ...]:
    """Boundary tuples (interior cuts) of the first ``cap`` tilings.

    A tile is either an occurrence span from ``spans`` or, when ``gaps``
    is true, a new-segment gap; gaps may not be adjacent. Tilings come
    fewest tiles first, ties in leftmost-boundary order.

    One backward pass builds ``feasible[pos][after_gap]``, a bitmask
    whose bit ``t`` is set when ``name[pos:]`` can be tiled with exactly
    ``t`` more tiles (``after_gap``: the tile ending at ``pos`` was a
    gap, so the next one must be a span). Then, for each tile count
    whose bit is set at the start, a depth-first pass enters a move only
    when its target can still finish with the tiles left. Every node
    visited leads to a tiling, so no dead prefix is walked, and the
    search stops at the ``cap``-th tiling.
    """
    n = len(name)
    feasible = [(1, 1)] * (n + 1)
    # moves[pos][after_gap]: (end, is_gap, target mask) for each tile
    # from pos that some tiling can finish, ascending end
    moves: list[tuple[list, list]] = [([], [])] * n
    for pos in range(n - 1, -1, -1):
        any_move: list[tuple[int, bool, int]] = []
        span_move: list[tuple[int, bool, int]] = []
        after_any = after_span = 0
        for end in range(pos + 1, n + 1):
            is_gap = (pos, end) not in spans
            if is_gap and not gaps:
                continue
            mask = feasible[end][is_gap]
            if not mask:
                continue
            move = (end, is_gap, mask)
            any_move.append(move)
            after_any |= mask
            if not is_gap:
                span_move.append(move)
                after_span |= mask
        moves[pos] = (any_move, span_move)
        feasible[pos] = (after_any << 1, after_span << 1)

    found: list[tuple[int, ...]] = []

    def descend(pos: int, left: int, after_gap: bool, cuts: tuple[int, ...]) -> bool:
        """Collect the tilings of ``name[pos:]`` in ``left`` tiles; true at the cap."""
        if pos == n:
            found.append(cuts)
            return len(found) >= cap
        bit = 1 << (left - 1)
        for end, is_gap, mask in moves[pos][after_gap]:
            if mask & bit and descend(end, left - 1, is_gap, cuts + (end,)):
                return True
        return False

    for tiles in range(1, n + 1):
        if feasible[0][0] >> tiles & 1 and descend(0, tiles, False, ()):
            break
    return tuple(cuts[:-1] for cuts in found)


def basis_tilings(
    name: str,
    candidates: Mapping[str, tuple[int, ...]],
    cap: int = 5000,
    *,
    gaps: bool = True,
) -> tuple[frozenset[tuple[int, int]], tuple[tuple[int, ...], ...]]:
    """The occurrence spans of the candidate words in ``name``, and the
    boundary tuples of its first ``cap`` tilings by them.

    The tuple of tilings is shared with a cache; tilings come fewest
    segments first, ties in leftmost-boundary order.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    spans = frozenset(
        (start, start + len(word))
        for word, offsets in candidates.items()
        for start in offsets
    )
    return spans, _basis_tilings(name, spans, cap, gaps)


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
    spans, tilings = basis_tilings(name, candidates, cap, gaps=gaps)
    return [SequenceCandidate.from_boundaries(name, cuts, spans) for cuts in tilings]


class CompositionTable(NamedTuple):
    """The capped compositions of every name of one length.

    ``rows[r]`` lists composition ``r`` as indices into ``spans``, left
    to right; rows come in ``enumerate_all`` order. ``q[r]`` is the sum
    of the squared segment lengths of row ``r``, and bit ``r`` of
    ``masks[i]`` is set when row ``r`` contains ``spans[i]``.
    """

    spans: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]
    q: tuple[int, ...]
    masks: tuple[int, ...]

    def boundaries(self, row: int) -> tuple[int, ...]:
        """Interior cut offsets of row ``row``."""
        return tuple(self.spans[i][1] for i in self.rows[row][:-1])


@lru_cache(maxsize=1024)
def composition_table(
    n: int, min_part: int, include_whole: bool, cap: int | None
) -> CompositionTable:
    """Compositions of a length-``n`` name into parts >= ``min_part``.

    Levels of one part count each are walked depth first, leftmost cut
    first, and the walk stops at the ``cap``-th composition.
    """
    index: dict[tuple[int, int], int] = {}
    rows: list[tuple[int, ...]] = []
    q: list[int] = []

    def descend(pos: int, left: int, row: tuple[int, ...], squares: int) -> bool:
        """Collect the compositions of ``[pos, n)`` in ``left`` parts; true at the cap."""
        ends = (n,) if left == 1 else range(pos + min_part, n - min_part * (left - 1) + 1)
        for end in ends:
            span = index.setdefault((pos, end), len(index))
            square = (end - pos) * (end - pos)
            if left == 1:
                rows.append(row + (span,))
                q.append(squares + square)
                if cap is not None and len(rows) >= cap:
                    return True
            elif descend(end, left - 1, row + (span,), squares + square):
                return True
        return False

    for parts in range(1 if include_whole else 2, n // min_part + 1):
        if descend(0, parts, (), 0):
            break
    # Set the mask bits in byte arrays: OR-ing into growing ints would
    # copy each mask once per row.
    bits = [bytearray((len(rows) + 7) // 8) for _ in index]
    for r, row in enumerate(rows):
        byte, bit = r >> 3, 1 << (r & 7)
        for i in row:
            bits[i][byte] |= bit
    spans = tuple(index)
    masks = tuple(int.from_bytes(b, "little") for b in bits)
    return CompositionTable(spans, tuple(rows), tuple(q), masks)


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
    return [
        SequenceCandidate.from_boundaries(name, table.boundaries(r))
        for r in range(len(table.rows))
    ]

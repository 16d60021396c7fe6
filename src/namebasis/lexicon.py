"""Compose pronunciation lexicons from transcribed basis words.

A human transcribes each basis word once, in two phone alphabets
(DARPA and SAPI). A name's transcription is the space-joined
concatenation of its segments' transcriptions, in segment order, with
no smoothing across the joins. A transcription table is a plain dict
that maps each basis word to its ``TranscriptionEntry(darpa, sapi)``,
as ``load_transcriptions`` reads and checks it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .config import data_lines, read_text

logger = logging.getLogger(__name__)

LEXICON_FORMATS = ("tsv", "festival_like", "sapi_like")

_TSV_HEADER = "# name\twords\tdarpa\tsapi"


class LexiconError(Exception):
    """Malformed transcription tables or uncovered segments."""


@dataclass(frozen=True)
class TranscriptionEntry:
    darpa: str
    sapi: str


@dataclass(frozen=True)
class LexiconEntry:
    name: str
    words: tuple[str, ...]
    darpa: str
    sapi: str


@dataclass
class Lexicon:
    entries: dict[str, LexiconEntry]

    def sorted_entries(self) -> list[LexiconEntry]:
        return [self.entries[name] for name in sorted(self.entries)]


def load_transcriptions(
    path, basis: Iterable[str] | None = None
) -> dict[str, TranscriptionEntry]:
    """Read a tab-separated ``word<TAB>darpa<TAB>sapi`` table.

    Returns the entries keyed by word. ``#`` lines are comments. A word
    may not be empty, hold whitespace or appear twice, and both phone
    fields must be non-empty. Entries for words outside ``basis`` (when
    given) are kept with a warning.
    """
    table: dict[str, TranscriptionEntry] = {}
    for lineno, line in data_lines(read_text(path, LexiconError)):
        parts = line.split("\t")
        if len(parts) != 3:
            raise LexiconError(
                f"{path}: line {lineno}: expected word<TAB>darpa<TAB>sapi"
            )
        word, darpa, sapi = (p.strip() for p in parts)
        if not word:
            raise LexiconError(f"{path}: line {lineno}: empty word")
        if any(ch.isspace() for ch in word):
            # segmentations are split on spaces, so no name could use it
            raise LexiconError(f"{path}: line {lineno}: whitespace in word {word!r}")
        if not darpa or not sapi:
            raise LexiconError(f"{path}: line {lineno}: empty phone field for {word!r}")
        if word in table:
            raise LexiconError(f"{path}: line {lineno}: duplicate transcription for {word!r}")
        table[word] = TranscriptionEntry(darpa, sapi)
    if basis is not None:
        known = set(basis)
        for word in sorted(table):
            if word not in known:
                logger.warning("transcription for %r is not a basis word; keeping it", word)
    return table


def compose(
    segmentation: Sequence[str], table: Mapping[str, TranscriptionEntry]
) -> tuple[str, str]:
    """Join the segments' phone strings, in order, one space between.

    Every segment must be in ``table``; ``build_lexicon`` checks that.
    """
    entries = [table[word] for word in segmentation]
    return (
        " ".join(entry.darpa for entry in entries),
        " ".join(entry.sapi for entry in entries),
    )


def build_lexicon(
    segmentations: Mapping[str, Sequence[str]], table: Mapping[str, TranscriptionEntry]
) -> Lexicon:
    """Compose every name; all uncovered words are reported together."""
    missing = {word for words in segmentations.values() for word in words if word not in table}
    if missing:
        raise LexiconError(f"missing transcriptions: {', '.join(sorted(missing))}")
    entries: dict[str, LexiconEntry] = {}
    for name in sorted(segmentations):
        words = tuple(segmentations[name])
        entries[name] = LexiconEntry(name, words, *compose(words, table))
    return Lexicon(entries)


def render_lexicon(lexicon: Lexicon, format: str = "tsv") -> str:
    """Deterministic, name-sorted file body for the given format."""
    if format not in LEXICON_FORMATS:
        raise ValueError(f"unknown lexicon format {format!r}")
    lines = []
    if format == "tsv":
        lines.append(_TSV_HEADER)
        for e in lexicon.sorted_entries():
            lines.append(f"{e.name}\t{' '.join(e.words)}\t{e.darpa}\t{e.sapi}")
    elif format == "festival_like":
        for e in lexicon.sorted_entries():
            lines.append(f'("{e.name}" nil ({e.darpa}))')
    else:
        for e in lexicon.sorted_entries():
            lines.append(f"{e.name}\t{e.sapi}")
    return "\n".join(lines) + "\n"


def emit_lexicon(lexicon: Lexicon, format: str, path) -> None:
    Path(path).write_text(render_lexicon(lexicon, format), encoding="utf-8", newline="\n")

"""Compose pronunciation lexicons from transcribed basis words.

A human transcribes each basis word once, in two phone alphabets
(DARPA and SAPI). A name's transcription is the space-joined
concatenation of its segments' transcriptions, in segment order, with
no smoothing across the joins.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

logger = logging.getLogger(__name__)

LEXICON_FORMATS = ("tsv", "festival_like", "sapi_like")

_TSV_HEADER = "# name\twords\tdarpa\tsapi"


class LexiconError(Exception):
    """Malformed transcription tables or uncovered segments."""


@dataclass(frozen=True)
class TranscriptionEntry:
    basis_word: str
    darpa: str
    sapi: str


class TranscriptionTable:
    def __init__(self, entries: Iterable[TranscriptionEntry] = ()):
        self._entries: dict[str, TranscriptionEntry] = {}
        for entry in entries:
            if entry.basis_word in self._entries:
                raise LexiconError(f"duplicate transcription for {entry.basis_word!r}")
            if not entry.darpa.strip() or not entry.sapi.strip():
                raise LexiconError(f"empty phone field for {entry.basis_word!r}")
            self._entries[entry.basis_word] = entry

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, word: str) -> TranscriptionEntry:
        return self._entries[word]

    def words(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))


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


def load_transcriptions(path, basis: Iterable[str] | None = None) -> TranscriptionTable:
    """Read a tab-separated ``word<TAB>darpa<TAB>sapi`` table.

    ``#`` lines are comments. Entries for words outside ``basis`` (when
    given) are kept with a warning.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LexiconError(f"cannot read {path}: {exc}") from exc
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise LexiconError(
                f"{path}: line {lineno}: expected word<TAB>darpa<TAB>sapi"
            )
        word, darpa, sapi = (p.strip() for p in parts)
        if not word:
            raise LexiconError(f"{path}: line {lineno}: empty word")
        if not darpa or not sapi:
            raise LexiconError(f"{path}: line {lineno}: empty phone field for {word!r}")
        entries.append(TranscriptionEntry(word, darpa, sapi))
    try:
        table = TranscriptionTable(entries)
    except LexiconError as exc:
        raise LexiconError(f"{path}: {exc}") from exc
    if basis is not None:
        known = set(basis)
        for word in table.words():
            if word not in known:
                logger.warning("transcription for %r is not a basis word; keeping it", word)
    return table


def compose(
    name: str, segmentation: Sequence[str], table: TranscriptionTable
) -> tuple[str, str]:
    """Join the segments' phone strings, in order, one space between."""
    missing = sorted({word for word in segmentation if word not in table})
    if missing:
        raise LexiconError(
            f"no transcription for {', '.join(missing)} (needed by {name!r})"
        )
    entries = [table.entry(word) for word in segmentation]
    return (
        " ".join(entry.darpa for entry in entries),
        " ".join(entry.sapi for entry in entries),
    )


def build_lexicon(
    segmentations: Mapping[str, Sequence[str]], table: TranscriptionTable
) -> Lexicon:
    """Compose every name; all uncovered words are reported together."""
    missing: set[str] = set()
    entries: dict[str, LexiconEntry] = {}
    for name in sorted(segmentations):
        words = tuple(segmentations[name])
        try:
            darpa, sapi = compose(name, words, table)
        except LexiconError:
            missing.update(word for word in words if word not in table)
            continue
        entries[name] = LexiconEntry(name, words, darpa, sapi)
    if missing:
        raise LexiconError(f"missing transcriptions: {', '.join(sorted(missing))}")
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


def read_lexicon_tsv(path) -> Lexicon:
    """Parse a file produced by ``render_lexicon(..., "tsv")``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LexiconError(f"cannot read {path}: {exc}") from exc
    entries: dict[str, LexiconEntry] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise LexiconError(f"{path}: line {lineno}: expected 4 tab-separated fields")
        name, words, darpa, sapi = parts
        entries[name] = LexiconEntry(name, tuple(words.split(" ")), darpa, sapi)
    return Lexicon(entries)

"""Proper-name corpus loading and normalization. A ``Corpus`` iterates its
unique names in sorted order, ``frequency`` reads each one's count, and
``total_unique`` counts the names."""

from __future__ import annotations

import logging
import re
from pathlib import Path
from typing import Iterator, Mapping

from .config import read_text

logger = logging.getLogger(__name__)


class CorpusError(Exception):
    """Unreadable input, malformed lines, or an empty corpus."""


class EmptyCorpusError(CorpusError):
    """No name survived normalization."""


class Corpus:
    """Unique name surfaces with occurrence counts.

    Duplicate surfaces are merged (frequencies summed). Iteration is in
    sorted surface order so every consumer is deterministic.
    """

    def __init__(self, counts: Mapping[str, int] = {}):
        self._counts: dict[str, int] = {}
        for surface, freq in counts.items():
            self.add(surface, freq)

    def add(self, surface: str, frequency: int = 1) -> None:
        if frequency < 1:
            raise CorpusError(f"frequency must be >= 1, got {frequency} for {surface!r}")
        self._counts[surface] = self._counts.get(surface, 0) + frequency

    def frequency(self, surface: str) -> int:
        return self._counts[surface]

    @property
    def total_unique(self) -> int:
        return len(self._counts)

    @property
    def max_frequency(self) -> int:
        return max(self._counts.values(), default=0)

    def __contains__(self, surface: str) -> bool:
        return surface in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._counts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"Corpus({self.total_unique} names, max_frequency={self.max_frequency})"


def load_names(path: str | Path, format: str = "plain") -> Corpus:
    """Read a raw corpus file.

    ``plain``: one name per line, frequency counted by repetition.
    ``name_freq``: ``name<sep>count`` per line; the separator (tab or
    comma) is auto-detected from the first data line and must be used
    consistently in the file.
    """
    if format not in ("plain", "name_freq"):
        raise ValueError(f"unknown corpus format {format!r}")
    corpus = Corpus()
    sep: str | None = None
    for lineno, line in enumerate(read_text(path, CorpusError).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if format == "plain":
            corpus.add(line, 1)
            continue
        if sep is None:
            sep = "\t" if "\t" in line else ","
        name, _, count_field = line.rpartition(sep)
        name = name.strip()
        count_field = count_field.strip()
        if not name:
            raise CorpusError(f"{path}: line {lineno}: expected 'name{sep}count'")
        try:
            count = int(count_field)
        except ValueError:
            raise CorpusError(
                f"{path}: line {lineno}: malformed count {count_field!r}"
            ) from None
        if count < 1:
            raise CorpusError(f"{path}: line {lineno}: count must be >= 1")
        corpus.add(name, count)
    return corpus


_NON_LETTERS = re.compile(r"[^a-z]+")


def normalize(raw: Corpus, min_length: int = 3) -> Corpus:
    """Canonicalize a raw corpus.

    Lowercases, splits multi-part names on whitespace into separate
    records, strips every character outside a-z (digits, hyphens,
    apostrophes and letters such as ``é`` are removed rather than
    treated as separators), drops names shorter than ``min_length`` and
    merges duplicates. One warning names the surfaces that lost a
    letter.
    """
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    out = Corpus()
    lost: list[str] = []
    for surface in raw:
        lowered = surface.lower()
        # lowercased ASCII letters are all a-z, so only other text is scanned
        if not lowered.isascii() and any(ch.isalpha() and not "a" <= ch <= "z" for ch in lowered):
            lost.append(surface)
        for part in lowered.split():
            cleaned = _NON_LETTERS.sub("", part)
            if len(cleaned) >= min_length:
                out.add(cleaned, raw.frequency(surface))
    if lost:
        shown = ", ".join(map(repr, lost[:5])) + (", ..." if len(lost) > 5 else "")
        logger.warning(
            "%d of %d names lost letters outside a-z: %s", len(lost), raw.total_unique, shown
        )
    if not out.total_unique:
        raise EmptyCorpusError("empty corpus after normalization")
    return out

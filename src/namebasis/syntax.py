"""Admissibility rules for candidate subword units.

A unit is fit for the basis only if it can carry a pronunciation of its
own and does not cut a single sound in half where it joins its
neighbours. Three rules reject a candidate:

  * no vowel at all (a pure consonant string is unpronounceable alone),
  * either end of the unit splits two adjacent vowels, which usually
    form one diphthong,
  * either end splits a two-letter digraph (sh/th/dh) that stands for
    a single sound.

A vowel-consonant boundary is fine and a consonant-vowel boundary is
merely discouraged; neither rejects.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Mapping

from .config import ConfigError

_LETTERS = frozenset(string.ascii_lowercase)
DEFAULT_VOWELS = frozenset("aeiou")
DEFAULT_DIGRAPHS = frozenset({"sh", "th", "dh"})


@dataclass(frozen=True)
class CharClassTable:
    vowels: frozenset[str] = DEFAULT_VOWELS
    digraphs: frozenset[str] = DEFAULT_DIGRAPHS

    KEYS = ("vowels", "digraphs")  # the config keys ``from_mapping`` reads

    @classmethod
    def from_mapping(cls, values: Mapping[str, str]) -> "CharClassTable":
        """Read ``vowels`` / ``digraphs`` overrides from config values.

        Commas and spaces in ``vowels`` are separators; what is left
        must be one or more letters a-z. ``digraphs`` is a comma list;
        empty entries are skipped and every other entry must be two
        letters a-z. A bad value is a ``ConfigError`` naming the key.
        """
        vowels = DEFAULT_VOWELS
        digraphs = DEFAULT_DIGRAPHS
        if "vowels" in values:
            vowels = frozenset(values["vowels"].replace(",", "").replace(" ", ""))
            if not vowels or not vowels <= _LETTERS:
                raise ConfigError(
                    f"vowels must be one or more letters a-z, got {values['vowels']!r}"
                )
        if "digraphs" in values:
            digraphs = frozenset(
                d.strip() for d in values["digraphs"].split(",") if d.strip()
            )
            bad = sorted(d for d in digraphs if len(d) != 2 or not set(d) <= _LETTERS)
            if bad:
                raise ConfigError(f"digraphs must be two letters a-z: {bad}")
        return cls(vowels=vowels, digraphs=digraphs)


DEFAULT_TABLE = CharClassTable()


def accepts_syntax(
    word: str, name: str, start: int, table: CharClassTable = DEFAULT_TABLE
) -> bool:
    """Decide whether ``word``, placed in ``name`` at offset ``start``,
    may enter the basis: it needs a vowel, and neither of its joins inside
    the name may split a sound. Placed as a whole name, ``(word, word, 0)``,
    it has no join, so only the vowel rule applies.
    """
    if not word:
        raise ValueError("word must be non-empty")
    if not any(ch in table.vowels for ch in word):
        return False
    end = start + len(word)
    if start < 0 or end > len(name) or name[start:end] != word:
        raise ValueError(f"{word!r} does not occur in {name!r} at offset {start}")
    for boundary in (start, end):
        if boundary <= 0 or boundary >= len(name):
            continue
        left, right = name[boundary - 1], name[boundary]
        if left in table.vowels and right in table.vowels:
            return False
        if left + right in table.digraphs:
            return False
    return True

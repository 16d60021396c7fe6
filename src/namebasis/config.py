"""Input files: reading them, and key=value configuration files.

Every input file is read as UTF-8 through ``read_text``, less a leading
byte-order mark; a file that cannot be opened or decoded is one error
naming it. ``data_lines`` numbers a file's lines from 1 and skips blank
lines and comments, lines whose first non-blank character is ``#``. The config, basis,
segmentation, transcription-table and lexicon readers use it; names
files and stats CSVs have no comments.

A config file holds one ``key = value`` pair per line, and a key set
twice is an error. Values keep their raw string form; callers parse
them, raising ``ValueError`` on a bad value.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator


class ConfigError(Exception):
    """Malformed configuration file or value."""


def read_text(path: str | Path, error: Callable[[str], Exception]) -> str:
    """The UTF-8 text of ``path``, without a leading byte-order mark;
    raises ``error`` naming the file when it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of ``text`` that is neither
    blank nor a comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def read_kv(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, line in data_lines(read_text(path, ConfigError)):
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigError(
                f"{path}: line {lineno}: key {key!r} already set on line {set_on[key]}"
            )
        set_on[key] = lineno
        values[key] = value.strip()
    return values


def parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")

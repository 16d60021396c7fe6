"""key=value configuration files.

One ``key = value`` pair per line; blank lines and ``#`` comments are
ignored, and a key set twice is an error. Values keep their raw string
form; callers parse them, raising ``ValueError`` on a bad value.
"""

from __future__ import annotations

from pathlib import Path


class ConfigError(Exception):
    """Malformed configuration file or value."""


def read_kv(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
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


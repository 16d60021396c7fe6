"""Deterministic synthetic corpora built from a planted unit set.

Names are random joins of a known pool of units, so the corpus has a
ground-truth basis against which induction quality can be judged. Every
unit also occurs as a high-frequency standalone name (short frequent
names are how real name corpora behave, and it keeps the whole pool
inside the frequency seed); composite names occur once each.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .corpus import Corpus
from .engine import global_cost
from .ortho import is_constructible


@dataclass(frozen=True)
class PlantedCorpus:
    corpus: Corpus
    units: tuple[str, ...]
    unit_sequences: dict[str, tuple[str, ...]]  # name -> generating units

    @property
    def planted_joins(self) -> int:
        return sum(len(seq) - 1 for seq in self.unit_sequences.values())

    @property
    def planted_cost(self) -> float:
        return global_cost(len(self.units), self.planted_joins, self.corpus.total_unique)


def make_planted_units(
    rng: random.Random,
    n_units: int = 30,
    min_len: int = 2,
    max_len: int = 6,
) -> tuple[str, ...]:
    """Distinct units, none a join of the others."""
    units: list[str] = []
    while len(units) < n_units:
        length = rng.randint(min_len, max_len)
        unit = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if unit in units or is_constructible(unit, set(units)):
            continue
        if any(is_constructible(u, set(units) - {u} | {unit}) for u in units):
            continue
        units.append(unit)
    return tuple(units)


def make_planted_corpus(
    n_names: int = 1000,
    n_units: int = 30,
    min_unit_len: int = 2,
    max_unit_len: int = 6,
    max_units_per_name: int = 4,
    seed: int = 0,
) -> PlantedCorpus:
    """Corpus of ``n_names`` unique names joined from a planted unit pool.

    The first ``n_units`` names are the units themselves, mostly but
    not all frequent enough to end up in a 40%-of-max frequency seed;
    the rest are composites of 2 to ``max_units_per_name`` units,
    occurring once each except for a few frequent ones. The mix forces
    an induction run to both prune whole names out of its seed and mine
    the unseeded units from gaps.
    """
    rng = random.Random(seed)
    units = make_planted_units(rng, n_units, min_unit_len, max_unit_len)

    corpus = Corpus()
    sequences: dict[str, tuple[str, ...]] = {}
    for index, unit in enumerate(units):
        frequency = rng.randint(5, 15) if index % 7 == 6 else rng.randint(50, 100)
        corpus.add(unit, frequency)
        sequences[unit] = (unit,)
    attempts = 0
    while len(sequences) < n_names:
        attempts += 1
        if attempts > n_names * 100:
            raise RuntimeError("unit pool too small to reach the requested corpus size")
        parts = tuple(
            rng.choice(units) for _ in range(rng.randint(2, max_units_per_name))
        )
        name = "".join(parts)
        if name in sequences:
            continue
        corpus.add(name, 1 if rng.random() >= 0.03 else rng.randint(50, 100))
        sequences[name] = parts
    return PlantedCorpus(corpus=corpus, units=units, unit_sequences=sequences)


def write_corpus(planted: PlantedCorpus, path, format: str = "name_freq") -> None:
    lines = []
    corpus = planted.corpus
    for name in corpus:
        if format == "name_freq":
            lines.append(f"{name}\t{corpus.frequency(name)}")
        else:
            lines.extend([name] * corpus.frequency(name))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

"""Workload definitions and the seeded inputs each run is built from.

Every workload starts from one planted corpus, ``make_planted_corpus`` at
the workload's pool seed. That corpus is pinned: its sha256 and planted
units are recorded in ``pins.json``, and a run refuses to start when the
generator no longer reproduces them, so an edit to ``synthetic.py``
cannot quietly change a workload.

The run's ``--seed`` then leaves out one composite name in every
``DROP_BLOCK``, taken from blocks of names sorted by length. The share
left out is small on purpose. alg1's induction is chaotic in its input:
leaving out one name in twenty moved the iteration-2 tiling candidates
by +-25% between seeds, so seeds could not be compared. Sorting by
length before blocking keeps the length profile, which sets alg2's
composition count, the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from namebasis.synthetic import PlantedCorpus, make_planted_corpus, write_corpus
from namebasis.corpus import Corpus

PINS = Path(__file__).with_name("pins.json")
DROP_BLOCK = 100


@dataclass(frozen=True)
class Workload:
    name: str
    pool_seed: int
    held_out_seed: int  # pool seed kept back for checking claims
    n_units: int
    parent_names: int  # size of the pinned corpus before the seeded drop
    config: dict
    grid_step: float | None = None  # set: grid-search before induce


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="alg1-dense",
            pool_seed=7,
            held_out_seed=8,
            n_units=150,
            parent_names=606,
            config={"algorithm": "alg1", "min_length": "2", "workers": "1"},
        ),
        Workload(
            name="alg2-long",
            pool_seed=7,
            held_out_seed=8,
            n_units=30,
            parent_names=150,
            config={"algorithm": "alg2", "min_length": "2", "workers": "2"},
        ),
        Workload(
            name="grid-alg1",
            pool_seed=99,
            held_out_seed=98,
            n_units=20,
            parent_names=100,
            config={"algorithm": "alg1", "min_length": "2", "max_iterations": "8"},
            grid_step=0.2,
        ),
    )
}


class PinError(Exception):
    """The generator no longer reproduces a pinned corpus."""


def parent_corpus(workload: Workload, pool_seed: int) -> PlantedCorpus:
    return make_planted_corpus(
        n_names=workload.parent_names, n_units=workload.n_units, seed=pool_seed
    )


def corpus_digest(planted: PlantedCorpus, path: Path) -> str:
    write_corpus(planted, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pin_entry(workload: Workload, pool_seed: int, scratch: Path) -> dict:
    planted = parent_corpus(workload, pool_seed)
    return {
        "pool_seed": pool_seed,
        "corpus_sha256": corpus_digest(planted, scratch / f"{workload.name}-{pool_seed}.tsv"),
        "units": list(planted.units),
    }


def write_pins(scratch: Path) -> None:
    pins = {
        w.name: {
            "default": pin_entry(w, w.pool_seed, scratch),
            "held_out": pin_entry(w, w.held_out_seed, scratch),
        }
        for w in WORKLOADS.values()
    }
    PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")


def pinned_parent(workload: Workload, held_out: bool, scratch: Path) -> tuple[PlantedCorpus, dict]:
    """The workload's pinned corpus and its pin, after checking one against the other."""
    pin = json.loads(PINS.read_text(encoding="utf-8"))[workload.name][
        "held_out" if held_out else "default"
    ]
    planted = parent_corpus(workload, pin["pool_seed"])
    digest = corpus_digest(planted, scratch / "parent.tsv")
    if digest != pin["corpus_sha256"] or list(planted.units) != pin["units"]:
        raise PinError(
            f"{workload.name}: pool seed {pin['pool_seed']} now generates corpus "
            f"{digest[:12]}, pinned {pin['corpus_sha256'][:12]}; runs on the two "
            "corpora are not comparable (rewrite pins.json with --write-pins only "
            "when the change is intended)"
        )
    return planted, pin


def seeded_sample(parent: PlantedCorpus, seed: int) -> PlantedCorpus:
    """All units, and every composite except one per block, chosen by ``seed``."""
    composites = sorted(
        (name for name, units in parent.unit_sequences.items() if len(units) > 1),
        key=lambda name: (len(name), name),
    )
    rng = random.Random(seed)
    kept = list(parent.units)
    for start in range(0, len(composites), DROP_BLOCK):
        block = composites[start : start + DROP_BLOCK]
        drop = rng.randrange(len(block))
        kept.extend(name for i, name in enumerate(block) if i != drop)
    return PlantedCorpus(
        corpus=Corpus({name: parent.corpus.frequency(name) for name in kept}),
        units=parent.units,
        unit_sequences={name: parent.unit_sequences[name] for name in kept},
    )

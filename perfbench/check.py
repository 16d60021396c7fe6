"""Output checker and quality figures for one benchmark repetition.

A name fails when its segmentation does not spell it, when it uses a
unit missing from ``basis.txt``, or when its lexicon line is not the
concatenation of its units' transcriptions. Every name fails when the
child exited nonzero, when ``is_ortho`` rejects the emitted basis, or
when the output digest differs from another repetition of the same
workload and seed (the caller compares digests).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from namebasis.engine import global_cost
from namebasis.ortho import Basis, BasisWord, is_ortho
from namebasis.synthetic import PlantedCorpus

DIGEST_FILES = ("basis.txt", "segmentations.tsv", "lexicon.tsv", "grid.csv")


def unit_phones(unit: str) -> tuple[str, str]:
    """Stand-in transcription of a basis unit: one DARPA and one SAPI phone per letter."""
    return " ".join(unit), " ".join(unit.upper())


def write_table(basis_path: Path, table_path: Path) -> None:
    lines = []
    for unit in basis_path.read_text(encoding="utf-8").split():
        darpa, sapi = unit_phones(unit)
        lines.append(f"{unit}\t{darpa}\t{sapi}\n")
    table_path.write_text("".join(lines), encoding="utf-8")


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for name in DIGEST_FILES:
        path = out / name
        if path.exists():
            digest.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _rows(path: Path, fields: int) -> dict[str, list[str]]:
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            parts = line.split("\t")
            if len(parts) == fields:
                rows[parts[0]] = parts[1:]
    return rows


@dataclass
class Outcome:
    """What one repetition emitted, judged against its planted corpus."""

    names: int
    failed: set[str] = field(default_factory=set)
    reason: str = ""  # set when every name fails
    digest: str = ""
    emitted_cost: float = 0.0
    reported_cost: float = 0.0
    cost_ratio: float = 0.0
    unit_recall: float = 0.0

    def fail_all(self, reason: str) -> None:
        self.reason = self.reason or reason

    def expect_digest(self, expected: str | None) -> None:
        """Fail every name when the outputs differ from a run that should match."""
        if expected is not None and self.digest != expected:
            self.fail_all("output digest differs from an earlier repetition")

    @property
    def failed_count(self) -> int:
        return self.names if self.reason else len(self.failed)


def check_outputs(out: Path, planted: PlantedCorpus, exit_ok: bool) -> Outcome:
    names = list(planted.corpus)
    outcome = Outcome(names=len(names))
    if not exit_ok:
        outcome.fail_all("a command exited nonzero")
        return outcome
    try:
        _judge(out, planted, names, outcome)
    except (OSError, ValueError, IndexError) as exc:
        outcome.fail_all(f"unreadable output: {exc}")
    return outcome


def _judge(out: Path, planted: PlantedCorpus, names: list[str], outcome: Outcome) -> None:
    basis = set((out / "basis.txt").read_text(encoding="utf-8").split())
    ok, witnesses = is_ortho(Basis(BasisWord(u) for u in basis))
    if not ok:
        outcome.fail_all(f"basis is not orthogonal: {witnesses[0][0]!r} is a join")
        return
    segmentations = {n: units[0].split(" ") for n, units in _rows(out / "segmentations.tsv", 2).items()}
    lexicon = _rows(out / "lexicon.tsv", 4)
    joins = 0
    for name in names:
        units = segmentations.get(name)
        if units is None or "".join(units) != name or not basis.issuperset(units):
            outcome.failed.add(name)
            continue
        joins += len(units) - 1
        phones = [unit_phones(u) for u in units]
        expected = [" ".join(units), " ".join(p[0] for p in phones), " ".join(p[1] for p in phones)]
        if lexicon.get(name) != expected:
            outcome.failed.add(name)
    outcome.digest = output_digest(out)
    outcome.emitted_cost = global_cost(len(basis), joins, len(names))
    outcome.cost_ratio = outcome.emitted_cost / planted.planted_cost
    outcome.unit_recall = len(basis.intersection(planted.units)) / len(planted.units)
    stats = (out / "stats.csv").read_text(encoding="utf-8").splitlines()
    outcome.reported_cost = float(stats[-1].rsplit(",", 1)[1])

"""Per-sequence features, the two sequence cost functions, and argmin.

Each cost flavour has one scalar body that takes the feature values
(``tiling_cost`` for alg1, ``composition_cost`` for alg2); the engine's
table choosers call these bodies directly. ``compute_features``,
``FeatureVector``, ``cost_alg1``/``cost_alg2``, ``demand_shares`` and
``select_best`` score whole candidates through the same bodies, and
serve as the choosers' test oracle.

Feature semantics, per candidate sequence:

  * ``avg_len``: mean segment length; equals name length / segment
    count exactly, so maximizing it minimizes joins.
  * ``len_var``: population variance of segment lengths.
  * ``demand_avg``: mean, over all segments, of the share of the
    name's candidate sequences that contain the segment's word.
  * ``new_freq_avg``: mean, over new segments only, of the corpus-wide
    share of names demanding the word (None when nothing is new).
  * ``syntax_avg``: share of new segments passing the admissibility
    rules (None when nothing is new).

Cost of a sequence against an existing basis (the alg1 flavor):

    w.avg_len/avg_len + w.len_var*len_var + w.demand*demand_avg
        + w.extra * n_new * (1/new_freq_avg + 1/syntax_avg)

Cost of a from-scratch composition (the alg2 flavor):

    w.avg_len/avg_len + w.len_var*len_var + w.demand*demand_avg
        + w.extra / syntax_avg

A zero in a denominator is replaced by ``ZERO_PENALTY``, a large finite
stand-in for 1/0, so costs stay totally ordered; with ``w.extra == 0``
the corresponding term is dropped entirely and never evaluated (the
choosers then skip the syntax checks as well).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .segmenter import SequenceCandidate

#: Stand-in for 1/0 when an average is zero; far above any regular cost.
ZERO_PENALTY = 1e6

_WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class WeightSet:
    """Weights on (avg_len, len_var, demand, extra); must sum to 1.

    ``extra`` weights the new-word penalty term in the alg1 cost and the
    syntax term in the alg2 cost.
    """

    avg_len: float
    len_var: float
    demand: float
    extra: float

    def __post_init__(self):
        values = (self.avg_len, self.len_var, self.demand, self.extra)
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError(f"weights must lie in [0, 1]: {values}")
        if abs(sum(values) - 1.0) > _WEIGHT_TOLERANCE:
            raise ValueError(f"weights must sum to 1: {values}")

    @classmethod
    def parse(cls, text: str) -> "WeightSet":
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"expected 4 comma-separated weights, got {text!r}")
        return cls(*parts)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.avg_len, self.len_var, self.demand, self.extra)


ALG1_DEFAULT_WEIGHTS = WeightSet(0.4, 0.2, 0.1, 0.3)
ALG2_DEFAULT_WEIGHTS = WeightSet(0.4, 0.3, 0.3, 0.0)


@dataclass(frozen=True)
class FeatureVector:
    avg_len: float
    len_var: float
    demand_avg: float
    new_freq_avg: float | None
    syntax_avg: float | None
    eta_new: int
    eta_total: int
    eta_joins: int
    name_len: int


def demand_shares(candidates: Sequence[SequenceCandidate]) -> dict[str, float]:
    """Share of the candidate sequences containing each word.

    A word counts once per sequence however often it appears in it; the
    denominator is the number of distinct candidates.
    """
    total = len(candidates)
    counts: dict[str, int] = {}
    for candidate in candidates:
        for text in set(candidate.texts):
            counts[text] = counts.get(text, 0) + 1
    return {text: count / total for text, count in counts.items()}


def compute_features(
    seq: SequenceCandidate,
    demand: Mapping[str, float],
    corpus_freq: Mapping[str, float] | None,
    syntax_ok: Mapping[str, bool],
) -> FeatureVector:
    """Evaluate all features of one candidate sequence.

    ``demand`` must cover every segment word; ``corpus_freq`` and
    ``syntax_ok`` must cover every new segment word. A ``corpus_freq``
    of None means corpus demand was never collected (the from-scratch
    algorithm has no use for it) and leaves ``new_freq_avg`` undefined.
    """
    k = seq.eta_total
    s = len(seq.name)  # equals the sum of the segment lengths
    q = sum(len(text) * len(text) for text in seq.texts)
    avg_len = s / k
    new_texts = [text for text, new in zip(seq.texts, seq.new) if new]

    def look(table: Mapping, text: str, what: str):
        try:
            return table[text]
        except KeyError:
            raise KeyError(f"no {what} entry for segment {text!r} of {seq.name!r}") from None

    demand_avg = sum(look(demand, text, "demand") for text in seq.texts) / k
    new_freq_avg = None
    syntax_avg = None
    if new_texts:
        if corpus_freq is not None:
            new_freq_avg = sum(
                look(corpus_freq, t, "frequency") for t in new_texts
            ) / len(new_texts)
        syntax_avg = sum(bool(look(syntax_ok, t, "syntax")) for t in new_texts) / len(new_texts)
    return FeatureVector(
        avg_len=avg_len,
        # Population variance from integer moments: int / int rounds
        # correctly, so this is the exact variance rounded once.
        len_var=(k * q - s * s) / (k * k),
        demand_avg=demand_avg,
        new_freq_avg=new_freq_avg,
        syntax_avg=syntax_avg,
        eta_new=seq.eta_new,
        eta_total=k,
        eta_joins=seq.eta_joins,
        name_len=s,
    )


def _reciprocal(value: float | None) -> float:
    if value is None or value <= 0.0:
        return ZERO_PENALTY
    return 1.0 / value


def _demand_term(demand_avg: float, weight: float, inverted: bool) -> float:
    if inverted:
        return weight * _reciprocal(demand_avg)
    return weight * demand_avg


def cost_alg1(fv: FeatureVector, weights: WeightSet, pav_inverted: bool = False) -> float:
    """Sequence cost against an existing basis (lower is better)."""
    assert fv.avg_len > 0, "segments are non-empty, so mean length is positive"
    return tiling_cost(
        fv.avg_len,
        fv.len_var,
        fv.demand_avg,
        fv.eta_new,
        fv.new_freq_avg,
        fv.syntax_avg,
        weights,
        pav_inverted,
    )


def tiling_cost(
    avg_len: float,
    len_var: float,
    demand_avg: float,
    eta_new: int,
    new_freq_avg: float | None,
    syntax_avg: float | None,
    weights: WeightSet,
    pav_inverted: bool,
) -> float:
    """``cost_alg1`` from the feature values alone."""
    cost = (
        weights.avg_len / avg_len
        + weights.len_var * len_var
        + _demand_term(demand_avg, weights.demand, pav_inverted)
    )
    if weights.extra > 0.0 and eta_new > 0:
        cost += (
            weights.extra
            * eta_new
            * (_reciprocal(new_freq_avg) + _reciprocal(syntax_avg))
        )
    return cost


def cost_alg2(fv: FeatureVector, weights: WeightSet, pav_inverted: bool = False) -> float:
    """Sequence cost with no pre-existing basis (lower is better)."""
    assert fv.avg_len > 0, "segments are non-empty, so mean length is positive"
    return composition_cost(
        fv.avg_len, fv.len_var, fv.demand_avg, fv.syntax_avg, weights, pav_inverted
    )


def composition_cost(
    avg_len: float,
    len_var: float,
    demand_avg: float,
    syntax_avg: float | None,
    weights: WeightSet,
    pav_inverted: bool,
) -> float:
    """``cost_alg2`` from the feature values alone."""
    cost = (
        weights.avg_len / avg_len
        + weights.len_var * len_var
        + _demand_term(demand_avg, weights.demand, pav_inverted)
    )
    if weights.extra > 0.0 and syntax_avg is not None:
        cost += weights.extra * _reciprocal(syntax_avg)
    return cost


def select_best(
    candidates: Sequence[SequenceCandidate], costs: Sequence[float]
) -> SequenceCandidate:
    """Minimum-cost candidate; ties prefer fewer new words, then fewer
    joins, then the leftmost-boundary sequence."""
    if not candidates:
        raise ValueError("no candidates to select from")
    if len(candidates) != len(costs):
        raise ValueError("candidates and costs must align")
    best = min(
        range(len(candidates)),
        key=lambda i: (
            costs[i],
            candidates[i].eta_new,
            candidates[i].eta_joins,
            candidates[i].boundaries,
        ),
    )
    return candidates[best]

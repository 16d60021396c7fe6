"""Shared test helpers: independent brute-force oracles and strategies.

The oracles deliberately use different algorithms from the package
(subset enumeration / plain recursion instead of DFS levels / DP) so
they can arbitrate correctness.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import settings

settings.register_profile("default", deadline=None)
settings.load_profile("default")


def brute_tilings(name, occurrences):
    """All tilings as a set of interior-boundary tuples.

    ``occurrences`` is an iterable of (start, end) spans of basis words
    in the name. Every subset of pairwise non-overlapping spans is a
    tiling: placed spans are segments, maximal uncovered runs are one
    segment each. Distinct subsets may collapse to one boundary set.
    """
    spans = sorted(set(occurrences))
    results = set()
    for size in range(len(spans) + 1):
        for subset in combinations(spans, size):
            if any(
                a_end > b_start
                for (_, a_end), (b_start, _) in zip(subset, subset[1:])
            ):
                continue
            cuts = {0, len(name)}
            for start, end in subset:
                cuts.update((start, end))
            results.add(tuple(sorted(cuts))[1:-1])
    return results


def brute_constructions(word, others):
    """All segmentations of ``word`` into elements of ``others``,
    as a set of piece tuples (elements may repeat)."""
    others = set(others)
    if not word:
        return set()

    def explode(rest):
        if not rest:
            return [()]
        found = []
        for cut in range(1, len(rest) + 1):
            head = rest[:cut]
            if head in others:
                found.extend((head, *tail) for tail in explode(rest[cut:]))
        return found

    return set(explode(word))

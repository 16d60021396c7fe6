"""Concatenative independence of the basis.

A basis is a ``frozenset`` of words, plain strings, so it iterates in
hash order; ``is_ortho`` and ``make_ortho`` sort its words before they
walk them. A basis is orthogonal when no member can be written as a
join of other members (members may repeat within one join).
Constructibility is decided exactly by prefix-reachability dynamic
programming over the word's positions; ``make_ortho`` deletes
constructible members in one longest-first pass, which leaves the set
independent.
"""

from __future__ import annotations

from typing import Collection

# Both aliases stay for callers that spell a basis
# ``Basis(BasisWord(u) for u in words)``, such as perfbench/check.py.
BasisWord = str
Basis = frozenset


def is_constructible(word: str, others: Collection[str]) -> bool:
    """True iff ``word`` is a join of one or more elements of ``others``."""
    if not word:
        return False
    other_set = others if isinstance(others, (set, frozenset)) else set(others)
    n = len(word)
    reachable = [False] * (n + 1)
    reachable[0] = True
    for end in range(1, n + 1):
        for start in range(end):
            if reachable[start] and word[start:end] in other_set:
                reachable[end] = True
                break
    return reachable[n]


def count_constructions(word: str, others: Collection[str]) -> int:
    """Number of distinct segmentations of ``word`` into ``others``.

    Distinct means distinct boundary sets; elements may repeat.
    """
    if not word:
        return 0
    other_set = others if isinstance(others, (set, frozenset)) else set(others)
    n = len(word)
    ways = [0] * (n + 1)
    ways[0] = 1
    for end in range(1, n + 1):
        ways[end] = sum(
            ways[start] for start in range(end) if word[start:end] in other_set
        )
    return ways[n]


def first_construction(word: str, others: Collection[str]) -> list[str] | None:
    """Leftmost-boundary construction of ``word`` from ``others``, if any."""
    other_set = others if isinstance(others, (set, frozenset)) else set(others)
    n = len(word)
    # suffix_ok[i]: word[i:] is a join of elements of other_set
    suffix_ok = [False] * (n + 1)
    suffix_ok[n] = True
    for start in range(n - 1, -1, -1):
        suffix_ok[start] = any(
            word[start:end] in other_set and suffix_ok[end]
            for end in range(start + 1, n + 1)
        )
    if not suffix_ok[0]:
        return None
    pieces: list[str] = []
    pos = 0
    while pos < n:
        end = next(
            e
            for e in range(pos + 1, n + 1)
            if word[pos:e] in other_set and suffix_ok[e]
        )
        pieces.append(word[pos:end])
        pos = end
    return pieces


def is_ortho(basis: frozenset[str]) -> tuple[bool, list[tuple[str, list[str]]]]:
    """Exact orthogonality check with witnesses.

    Returns ``(ok, witnesses)`` where each witness pairs a violating
    word with one construction of it from the other members.
    """
    witnesses: list[tuple[str, list[str]]] = []
    for text in sorted(basis):
        others = basis - {text}
        if is_constructible(text, others):
            construction = first_construction(text, others)
            assert construction is not None
            witnesses.append((text, construction))
    return not witnesses, witnesses


def make_ortho(basis: frozenset[str]) -> frozenset[str]:
    """Delete constructible members, longest first, in one pass.

    Words are processed longest-first (ties alphabetical); a word is
    removed when it is constructible from the other remaining words.
    The result is orthogonal and spans every removed word: a removed
    word's construction uses strictly shorter pieces, which are tested
    after it, so by induction on length each removed word stays
    constructible from the final survivors.
    """
    survivors = set(basis)
    for text in sorted(survivors, key=lambda t: (-len(t), t)):
        survivors.discard(text)
        if not is_constructible(text, survivors):
            survivors.add(text)
    return frozenset(survivors)

"""Concatenative independence of the basis.

A basis is a ``frozenset`` of words, plain strings, so it iterates in
hash order; ``is_ortho`` and ``make_ortho`` sort its words before they
walk them. A basis is orthogonal when no member can be written as a
join of other members (members may repeat within one join).
Constructibility is decided exactly by one backward pass over the
word's positions, which finds for each position the least end of a
piece after which the rest of the word is still a join. The same pass
answers ``is_constructible`` and, by following those ends from the
start, gives ``first_construction``'s leftmost-boundary witness.
``make_ortho`` deletes constructible members in one longest-first pass,
which leaves the set independent.
"""

from __future__ import annotations

from typing import Collection

# Both aliases stay for callers that spell a basis
# ``Basis(BasisWord(u) for u in words)``, such as perfbench/check.py.
BasisWord = str
Basis = frozenset


def _piece_ends(word: str, others: Collection[str]) -> list[int]:
    """For each start ``i``, the least ``end`` such that ``word[i:end]``
    is in ``others`` and ``word[end:]`` is empty or a join of them; 0
    when there is none. The entry at ``len(word)`` is ``len(word)``."""
    other_set = others if isinstance(others, (set, frozenset)) else set(others)
    n = len(word)
    ends = [0] * n + [n]
    for start in range(n - 1, -1, -1):
        for end in range(start + 1, n + 1):
            if ends[end] and word[start:end] in other_set:
                ends[start] = end
                break
    return ends


def is_constructible(word: str, others: Collection[str]) -> bool:
    """True iff ``word`` is a join of one or more elements of ``others``."""
    return bool(_piece_ends(word, others)[0])


def first_construction(word: str, others: Collection[str]) -> list[str] | None:
    """Leftmost-boundary construction of ``word`` from ``others``, if any."""
    ends = _piece_ends(word, others)
    if not ends[0]:
        return None
    pieces: list[str] = []
    pos = 0
    while pos < len(word):
        end = ends[pos]
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
        construction = first_construction(text, basis - {text})
        if construction is not None:
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

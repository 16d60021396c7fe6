"""Concatenative independence of the basis.

A basis is a set of words, plain strings. It is orthogonal when no
member can be written as a join of other members (members may repeat
within one join). Constructibility is decided exactly by
prefix-reachability dynamic programming over the word's positions;
``make_ortho`` deletes constructible members in one longest-first pass,
which leaves the set independent.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator

# A basis word is its text; the name stays for callers that spell it
# ``Basis(BasisWord(u) for u in words)``, such as perfbench/check.py.
BasisWord = str


class Basis:
    """A mutable set of basis words; iteration is sorted."""

    def __init__(self, words: Iterable[str] = ()):
        self._words: set[str] = set()
        self._max_length = 0
        for word in words:
            self.add(word)

    def add(self, text: str) -> None:
        if not text:
            raise ValueError("basis words must be non-empty")
        self._words.add(text)
        self._max_length = max(self._max_length, len(text))

    @property
    def texts(self) -> frozenset[str]:
        return frozenset(self._words)

    @property
    def max_length(self) -> int:
        return self._max_length

    def __contains__(self, text: object) -> bool:
        return text in self._words

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._words))

    def __len__(self) -> int:
        return len(self._words)

    def __repr__(self) -> str:
        return f"Basis({len(self)} words)"


def is_constructible(word: str, others: Collection[str]) -> bool:
    """True iff ``word`` is a join of one or more elements of ``others``."""
    if not word:
        return False
    other_set = others if isinstance(others, (set, frozenset, Basis)) else set(others)
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
    other_set = others if isinstance(others, (set, frozenset, Basis)) else set(others)
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
    other_set = others if isinstance(others, (set, frozenset, Basis)) else set(others)
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


def is_ortho(basis: Basis) -> tuple[bool, list[tuple[str, list[str]]]]:
    """Exact orthogonality check with witnesses.

    Returns ``(ok, witnesses)`` where each witness pairs a violating
    word with one construction of it from the other members.
    """
    texts = basis.texts
    witnesses: list[tuple[str, list[str]]] = []
    for text in sorted(texts):
        others = texts - {text}
        if is_constructible(text, others):
            construction = first_construction(text, others)
            assert construction is not None
            witnesses.append((text, construction))
    return not witnesses, witnesses


def make_ortho(basis: Basis) -> Basis:
    """Delete constructible members, longest first, in one pass.

    Words are processed longest-first (ties alphabetical); a word is
    removed when it is constructible from the other remaining words.
    The result is orthogonal and spans every removed word: a removed
    word's construction uses strictly shorter pieces, which are tested
    after it, so by induction on length each removed word stays
    constructible from the final survivors.
    """
    survivors = set(basis.texts)
    for text in sorted(survivors, key=lambda t: (-len(t), t)):
        survivors.discard(text)
        if not is_constructible(text, survivors):
            survivors.add(text)
    return Basis(survivors)

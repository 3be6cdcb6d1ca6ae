"""Diagram combinatorics for the multiple-reflection expansion.

A diagram is a cyclic word [i_N ... i_1] of object indices subject to:

* Rule 1 -- no two cyclically adjacent indices are equal;
* Rule 2 -- orientation matters: a word and its reversal are distinct
  diagrams unless the reversal is a cyclic rotation of the word
  (direction-symmetric);
* Rule 3 -- a word fixed by n cyclic rotations carries a symmetry
  factor S = 1/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError

__all__ = [
    "Diagram",
    "canonicalize",
    "symmetry_factor",
    "enumerate_diagrams",
    "word_to_str",
]


def _rotations(word):
    n = len(word)
    return [word[k:] + word[:k] for k in range(n)]


def _canonical_rotation(word):
    return min(_rotations(word))


def _rule1_ok(word):
    n = len(word)
    return all(word[k] != word[(k + 1) % n] for k in range(n))


def word_to_str(word) -> str:
    """Serialize as the bracketed digit string used in reports, e.g. "[2131]"."""
    return "[" + "".join(str(i) for i in word) + "]"


@dataclass(frozen=True)
class Diagram:
    """Canonical cyclic word with its symmetry data."""

    word: tuple
    symmetry_factor: Fraction
    direction_symmetric: bool

    @property
    def order(self) -> int:
        """Reflection order N = number of T insertions."""
        return len(self.word)

    def __str__(self):
        return word_to_str(self.word)


def symmetry_factor(word) -> Fraction:
    """1/n where n counts cyclic rotations mapping the word to itself."""
    word = tuple(word)
    n = sum(1 for r in _rotations(word) if r == word)
    return Fraction(1, n)


def canonicalize(word) -> Diagram:
    """Validate Rule 1, pick the lexicographically minimal rotation,
    and attach symmetry factor and direction symmetry."""
    word = tuple(word)
    if len(word) < 2:
        raise ValidationError("diagram words need at least two insertions")
    if any(i < 1 for i in word):
        raise ValidationError("object indices start at 1")
    if not _rule1_ok(word):
        raise ValidationError(
            f"word {word_to_str(word)} has equal cyclic neighbors (Rule 1)"
        )
    canon = _canonical_rotation(word)
    reversed_canon = _canonical_rotation(canon[::-1])
    return Diagram(
        word=canon,
        symmetry_factor=symmetry_factor(canon),
        direction_symmetric=(reversed_canon == canon),
    )


def enumerate_diagrams(M: int, N_max: int):
    """All canonical diagrams over objects {1..M} with 2 <= N <= N_max.

    Mirror-pair members both appear (as distinct canonical classes);
    direction-symmetric diagrams appear once.  Single-insertion diagrams
    are excluded by construction.
    """
    if M < 2:
        raise ValidationError("need at least two objects")
    if N_max < 2:
        raise ValidationError("N_max must be >= 2")
    seen = set()
    out = []

    def grow(word, n):
        if n >= 2 and word[-1] != word[0]:
            canon = _canonical_rotation(word)
            if canon not in seen:
                seen.add(canon)
                out.append(canonicalize(canon))
        if n == N_max:
            return
        for i in range(1, M + 1):
            if i != word[-1]:
                grow(word + (i,), n + 1)

    for first in range(1, M + 1):
        grow((first,), 1)
    out.sort(key=lambda d: (d.order, d.word))
    return out

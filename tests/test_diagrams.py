"""Diagram combinatorics: rules, symmetry factors, and the ln-det oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir2d.diagrams import (
    canonicalize,
    enumerate_diagrams,
    symmetry_factor,
    word_to_str,
)
from casimir2d.errors import ValidationError
from block_system import BlockSystem, lndet_oracle, random_block_system


valid_words = st.lists(st.integers(1, 4), min_size=2, max_size=8).filter(
    lambda w: all(w[k] != w[(k + 1) % len(w)] for k in range(len(w)))
)


class TestRules:
    def test_rule1_rejects_equal_neighbors(self):
        with pytest.raises(ValidationError):
            canonicalize((1, 1, 2))
        with pytest.raises(ValidationError):
            canonicalize((1, 2, 1))  # cyclic neighbors 1...1

    def test_symmetry_factors(self):
        assert symmetry_factor((1, 2)) == Fraction(1, 1)
        assert symmetry_factor((1, 2, 1, 2)) == Fraction(1, 2)
        assert symmetry_factor((1, 2, 1, 2, 1, 2)) == Fraction(1, 3)
        assert symmetry_factor((1, 2, 1, 3)) == Fraction(1, 1)

    def test_direction_symmetry(self):
        assert canonicalize((1, 2)).direction_symmetric
        assert canonicalize((2, 1, 3, 1)).direction_symmetric
        assert not canonicalize((1, 2, 3)).direction_symmetric

    def test_mirror_pair_members_both_enumerated(self):
        words = {d.word for d in enumerate_diagrams(3, 3)}
        assert (1, 2, 3) in words and (1, 3, 2) in words

    @given(valid_words)
    def test_canonical_is_rotation_invariant(self, w):
        w = tuple(w)
        d0 = canonicalize(w)
        for k in range(len(w)):
            rot = w[k:] + w[:k]
            assert canonicalize(rot).word == d0.word

    @given(valid_words)
    def test_reversal_has_same_symmetry_factor(self, w):
        w = tuple(w)
        assert symmetry_factor(w) == symmetry_factor(w[::-1])

    @given(st.integers(2, 4), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_enumeration_covers_all_canonical_classes(self, m, n_max):
        diagrams = enumerate_diagrams(m, n_max)
        words = [d.word for d in diagrams]
        assert len(words) == len(set(words))
        # brute force over all words
        expected = set()

        def grow(word):
            if 2 <= len(word) <= n_max and word[-1] != word[0]:
                expected.add(canonicalize(word).word)
            if len(word) < n_max:
                for i in range(1, m + 1):
                    if i != word[-1]:
                        grow(word + (i,))

        for first in range(1, m + 1):
            grow((first,))
        assert set(words) == expected

    def test_word_roundtrip(self):
        assert word_to_str((2, 1, 3, 1)) == "[2131]"


class TestLnDetOracle:
    def test_two_object_geometric_series(self, rng):
        # scalar blocks: diagram sum must reproduce -log(1 - t1 t2 u12 u21)
        sysb = BlockSystem(M=2)
        sysb.t_blocks = {1: np.array([[0.3 + 0.1j]]),
                         2: np.array([[0.4 - 0.2j]])}
        sysb.u_blocks = {(1, 2): np.array([[0.5]]),
                         (2, 1): np.array([[0.6]])}
        x = (0.3 + 0.1j) * (0.4 - 0.2j) * 0.5 * 0.6
        series, exact = lndet_oracle(sysb, 40)
        assert abs(exact - (-np.log(1 - x))) < 1e-12
        assert abs(series - exact) < 1e-12

    def test_matches_power_traces(self, rng):
        for m in (2, 3, 4):
            sysb = random_block_system(rng, m, 3, 0.45)
            K = sysb.coupling_matrix()
            series, _ = lndet_oracle(sysb, 7)
            trunc = sum(np.trace(np.linalg.matrix_power(K, n)) / n
                        for n in range(2, 8))
            assert abs(series - trunc) < 1e-12 * max(1.0, abs(trunc))

    def test_divergent_series_refused(self, rng):
        sysb = random_block_system(rng, 2, 3, 1.2)
        with pytest.raises(ValidationError):
            lndet_oracle(sysb, 4)

    def test_converges_to_exact_at_small_radius(self, rng):
        sysb = random_block_system(rng, 3, 2, 0.05)
        series, exact = lndet_oracle(sysb, 10)
        assert abs(series - exact) / abs(exact) < 1e-10

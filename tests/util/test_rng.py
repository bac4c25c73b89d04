"""Tests for repro.util.rng."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.rng import DEFAULT_SEED, derive_seed, make_rng, rng_for, spawn


class TestMakeRng:
    def test_none_uses_default_seed(self):
        a = make_rng(None)
        b = make_rng(DEFAULT_SEED)
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_int_seed_reproducible(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(7)
        assert make_rng(g) is g

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        g = make_rng(seq)
        assert isinstance(g, np.random.Generator)

    def test_numpy_integer_seed(self):
        assert make_rng(np.int64(42)).random() == make_rng(42).random()

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            make_rng(1.5)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            make_rng("seed")


class TestSpawn:
    def test_children_are_independent_generators(self):
        parent = make_rng(0)
        kids = spawn(parent, 3)
        assert len(kids) == 3
        draws = [k.random() for k in kids]
        assert len(set(draws)) == 3

    def test_spawn_reproducible_from_same_parent_state(self):
        a = spawn(make_rng(5), 2)
        b = spawn(make_rng(5), 2)
        assert a[0].random() == b[0].random()
        assert a[1].random() == b[1].random()

    def test_repeated_spawn_differs(self):
        parent = make_rng(5)
        first = spawn(parent, 1)[0].random()
        second = spawn(parent, 1)[0].random()
        assert first != second

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            spawn(make_rng(0), 0)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_labels_matter(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_base_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_in_63_bit_range(self):
        s = derive_seed(999, "x")
        assert 0 <= s < 2**63

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_always_valid_seed(self, base, label):
        s = derive_seed(base, label)
        assert 0 <= s < 2**63
        make_rng(s)  # must not raise

    def test_rng_for_shorthand(self):
        assert rng_for(3, "x").random() == make_rng(derive_seed(3, "x")).random()

    def test_separator_in_label_does_not_collide(self):
        # Regression: a plain "/"-join made ("a/b",) and ("a", "b") collide.
        assert derive_seed(0, "a/b") != derive_seed(0, "a", "b")
        assert derive_seed(0, "a", "b/c") != derive_seed(0, "a/b", "c")

    def test_label_boundary_shifts_do_not_collide(self):
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")
        assert derive_seed(0, "", "x") != derive_seed(0, "x", "")
        assert derive_seed(0, "x") != derive_seed(0, "x", "")

    @given(
        st.lists(st.text(alphabet="ab/", max_size=4), max_size=4),
        st.lists(st.text(alphabet="ab/", max_size=4), max_size=4),
    )
    def test_distinct_label_paths_distinct_seeds(self, left, right):
        # Structure is part of the stream name: different label tuples must
        # name different streams (SHA-256 collisions aside).
        if tuple(left) != tuple(right):
            assert derive_seed(7, *left) != derive_seed(7, *right)


class TestChoiceWithoutReplacement:
    def test_distinct_items(self):
        from repro.util.rng import choice_without_replacement

        out = choice_without_replacement(make_rng(0), list(range(10)), 5)
        assert len(out) == 5
        assert len(set(out.tolist())) == 5

    def test_clamped_to_pool(self):
        from repro.util.rng import choice_without_replacement

        out = choice_without_replacement(make_rng(0), [1, 2, 3], 10)
        assert sorted(out.tolist()) == [1, 2, 3]

    def test_zero_size(self):
        from repro.util.rng import choice_without_replacement

        assert choice_without_replacement(make_rng(0), [1, 2], 0).size == 0

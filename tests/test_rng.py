"""Splittable random streams: same path, same stream; sibling paths disjoint;
and every stream is NumPy's SeedSequence(seed, spawn_key=path) stream."""

import hashlib
import random

import numpy as np
import pytest

from critnorm import child_rng, child_seed


def test_same_path_reproduces_the_stream():
    a = child_rng(42, 3, 1).standard_normal(8)
    b = child_rng(42, 3, 1).standard_normal(8)
    assert np.array_equal(a, b)


def test_sibling_paths_differ():
    a = child_rng(42, 0).standard_normal(8)
    b = child_rng(42, 1).standard_normal(8)
    c = child_rng(43, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_is_not_flattened_into_the_seed():
    # (seed, 1, 2) and (seed, 12) must be distinct branches
    a = child_rng(7, 1, 2).standard_normal(4)
    b = child_rng(7, 12).standard_normal(4)
    assert not np.array_equal(a, b)


def test_child_seed_is_deterministic_and_spreads():
    s1 = child_seed(42, 5, 0)
    assert s1 == child_seed(42, 5, 0)
    assert s1 != child_seed(42, 5, 1)
    assert isinstance(s1, int) and s1 >= 0
    rng = child_rng(s1)
    assert rng.standard_normal(2).shape == (2,)


def test_both_helpers_keep_their_frozen_streams():
    """child_rng and child_seed share one SeedSequence helper; the values
    are the ones each drew when it built its own sequence."""
    assert child_seed(42, 5, 0) == 5568657218127352044
    assert child_seed(0) == 15793235383387715774
    assert child_seed(2024, 3, 1, 7) == 1601863484574295990
    draws = child_rng(7, 1, 2).standard_normal(64).tobytes()
    assert hashlib.sha256(draws).hexdigest()[:16] == "338a42ad0ae8f484"
    draws = child_rng(0).integers(0, 2 ** 62, size=64).tobytes()
    assert hashlib.sha256(draws).hexdigest()[:16] == "0c0fb5c28bf51662"


@pytest.mark.parametrize("helper", [child_rng, child_seed])
def test_a_negative_seed_is_refused_by_name(helper):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        helper(-1, 0)


_SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1, 2 ** 128,
          2 ** 160 + 3, *(random.Random(11).getrandbits(b) for b in (8, 31, 63, 100, 200)))
_PATHS = ((), (0,), (2 ** 33,), (4, 2, 2 ** 70), (9, 0, 1, 2 ** 32, 5, 2 ** 40 + 7))


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("path", _PATHS, ids=str)
def test_a_child_is_numpys_seed_sequence_child_bit_for_bit(seed, path):
    """Seeds of one to six words and paths of none to several words each;
    the states are derived from a cached per-seed mix, not a SeedSequence
    per child, and must still be NumPy's."""
    sequence = np.random.SeedSequence(seed, spawn_key=path)
    expected = np.random.default_rng(sequence).bit_generator.state
    assert child_rng(seed, *path).bit_generator.state == expected
    assert child_seed(seed, *path) == int(sequence.generate_state(1, dtype=np.uint64)[0])


def test_children_of_many_seeds_in_turn_match_numpy():
    """More seeds than the per-seed cache holds, revisited, so children are
    derived both from cached and from evicted-and-remade mixes."""
    rnd = random.Random(5)
    seeds = [rnd.getrandbits(rnd.randint(1, 160)) for _ in range(12)]
    for seed in seeds + seeds[::-1]:
        path = (rnd.getrandbits(40), rnd.randint(0, 9))
        sequence = np.random.SeedSequence(seed, spawn_key=path)
        assert child_seed(seed, *path) == int(sequence.generate_state(1, dtype=np.uint64)[0])


@pytest.mark.parametrize("path", [(-1,), (3, -2), (0, 1, -(2 ** 40))])
@pytest.mark.parametrize("helper", [child_rng, child_seed])
def test_a_negative_path_entry_is_refused(helper, path):
    with pytest.raises(ValueError, match=r"^path entries must be >= 0, got "):
        helper(42, *path)

"""A seed is an integer in [0, 2**64); anything operator.index refuses is a
ValidationError, wherever the library takes a seed."""

import numpy as np
import pytest

import graphcalc as gc

from conftest import make_p5


@pytest.mark.parametrize("seed", [1.5, 1.0, "1", None, [1]])
def test_non_integer_seed_is_validation_error(seed):
    with pytest.raises(gc.ValidationError, match="seed must be an integer"):
        gc.Lcg64(seed)
    g = make_p5()
    with pytest.raises(gc.ValidationError, match="seed must be an integer"):
        gc.run_identity_suite(g, seed, 3)
    es = gc.eigensystem(gc.OperatorSpec(gc.build_window(g, ["b", "c", "d"]), "dirichlet"))
    with pytest.raises(gc.ValidationError, match="seed must be an integer"):
        gc.courant_fischer_check(es, 1, seed=seed)


def test_integer_like_seeds_keep_their_stream():
    ref = gc.Lcg64(5)
    want = [ref.next_u64() for _ in range(3)]
    for seed in (np.int64(5), np.uint8(5), True + 4):
        rng = gc.Lcg64(seed)
        assert [rng.next_u64() for _ in range(3)] == want
    with pytest.raises(gc.ValidationError, match=r"seed must be in \[0, 2\*\*64\)"):
        gc.Lcg64(np.int64(-1))

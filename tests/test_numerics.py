"""Vector-kernel and seeded-randomness contracts."""

import importlib

import numpy as np
import pytest

from gacfas import numerics
from gacfas.numerics import Prng, as_vec64, axpy, dot, gaussian, l2_norm, zeros

from helpers import kahan_dot


def test_as_vec64_coerces_and_rejects_matrices():
    v = as_vec64([1, 2, 3])
    assert v.dtype == np.float64 and v.shape == (3,)
    with pytest.raises(ValueError):
        as_vec64([[1.0, 2.0]])


def test_zeros_length_and_negative_rejection():
    assert zeros(4).tolist() == [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        zeros(-1)


def test_dot_orthogonal_and_self():
    assert dot(as_vec64([1.0, 0.0]), as_vec64([0.0, 1.0])) == 0.0
    assert dot(as_vec64([3.0, 4.0]), as_vec64([3.0, 4.0])) == 25.0


def test_dot_length_mismatch_raises():
    with pytest.raises(ValueError):
        dot(zeros(2), zeros(3))


def test_dot_against_compensated_summation_oracle():
    for seed in range(5):
        prng = Prng(seed, 0)
        a = gaussian(prng, 1000)
        b = gaussian(prng, 1000)
        assert abs(dot(a, b) - kahan_dot(a, b)) <= 1e-9


def test_dot_symmetry_is_exact():
    for seed in range(10):
        prng = Prng(seed, 0)
        a = gaussian(prng, 257)
        b = gaussian(prng, 257)
        assert dot(a, b) == dot(b, a)


def test_l2_norm_examples_and_homogeneity():
    assert l2_norm(as_vec64([3.0, 4.0])) == 5.0
    assert l2_norm(zeros(7)) == 0.0
    a = gaussian(Prng(3, 0), 64)
    assert l2_norm(-2.0 * a) == 2.0 * l2_norm(a)  # power-of-two scaling is exact
    c = 1.7
    assert l2_norm(c * a) == pytest.approx(c * l2_norm(a), rel=1e-14)


def test_axpy_identities():
    prng = Prng(11, 0)
    x = gaussian(prng, 32)
    y = gaussian(prng, 32)
    assert np.array_equal(axpy(0.0, x, y), y)
    assert np.array_equal(axpy(1.0, x, zeros(32)), x)
    assert np.array_equal(axpy(-1.0, x, x), zeros(32))
    with pytest.raises(ValueError):
        axpy(1.0, zeros(2), zeros(3))


def test_axpy_returns_fresh_array():
    x = as_vec64([1.0, 2.0])
    y = as_vec64([3.0, 4.0])
    out = axpy(2.0, x, y)
    out[0] = 99.0
    assert x[0] == 1.0 and y[0] == 3.0


def test_l2_norm_of_self_difference_is_exactly_zero():
    for seed in range(5):
        a = gaussian(Prng(seed, 0), 100)
        assert l2_norm(axpy(-1.0, a, a)) == 0.0


def test_same_seed_reproduces_stream():
    a = gaussian(Prng(1234, 0), 50)
    b = gaussian(Prng(1234, 0), 50)
    assert np.array_equal(a, b)


def test_gaussian_empty_and_negative():
    assert gaussian(Prng(0, 0), 0).shape == (0,)
    with pytest.raises(ValueError):
        gaussian(Prng(0, 0), -1)


def test_prng_refuses_a_negative_seed_or_stream_id_by_name():
    with pytest.raises(ValueError, match="Prng seed must be a non-negative integer, got -3"):
        Prng(-3)
    with pytest.raises(ValueError, match="Prng stream_id must be a non-negative integer, got -1"):
        Prng(0, -1)


@pytest.mark.parametrize(
    "args,named",
    [((0.5,), "seed"), ((True,), "seed"), ((0, 1.0), "stream_id"), ((0, True), "stream_id")],
)
def test_prng_refuses_a_seed_or_stream_id_that_is_not_an_int_by_name(args, named):
    # int() once ran Prng(0.5) as seed 0 and Prng(True) as seed 1.
    with pytest.raises(ValueError, match=f"Prng {named} must be a non-negative integer, got {args[-1]}$"):
        Prng(*args)


def test_distinct_stream_ids_diverge():
    for seed in (0, 1, 42, 2024):
        prefixes = [tuple(gaussian(Prng(seed, sid), 100)) for sid in range(4)]
        assert len(set(prefixes)) == 4


def test_gaussian_moments_over_one_million_draws():
    draws = gaussian(Prng(2024, 0), 1_000_000)
    assert abs(float(draws.mean())) < 0.01
    assert abs(float(draws.var()) - 1.0) < 0.02


def test_kernels_do_not_mutate_inputs():
    x = as_vec64([1.0, -2.0, 3.0])
    y = as_vec64([0.5, 0.25, -1.0])
    x0, y0 = x.copy(), y.copy()
    dot(x, y)
    l2_norm(x)
    axpy(2.5, x, y)
    assert np.array_equal(x, x0) and np.array_equal(y, y0)


@pytest.mark.parametrize("module_name", ["gacfas", "gacfas.evalmetrics", "gacfas.numerics"])
def test_every_exported_name_resolves(module_name):
    """A name left in __all__ after its definition is deleted breaks
    `from module import *` and nothing else."""
    module = importlib.import_module(module_name)
    missing = []
    for name in module.__all__:
        try:
            getattr(module, name)
        except AttributeError:
            missing.append(name)
    assert missing == []

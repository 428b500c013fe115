"""The planted generator really plants a global minimiser."""

import random
from fractions import Fraction

import numpy as np
import pytest

import planted
import reference as ref

CASES = [(seed, n, m) for seed in range(3) for n in range(1, 5) for m in range(1, 4)]


def _generate(seed, n, m):
    return planted.generate(random.Random(f"test:{seed}:{n}:{m}"), n, m)


@pytest.mark.parametrize("seed,n,m", CASES)
def test_critical_pair_identities_hold_exactly(seed, n, m):
    p = _generate(seed, n, m)
    x, sigma = p["x_star"], p["sigma_star"]
    G = planted.g_matrix(p, sigma)
    assert [sum(G[i][j] * x[j] for j in range(n)) for i in range(n)] == planted.f_vector(p, sigma)
    for (C, b, c), (a, beta), s in zip(p["operators"], p["V"], sigma):
        assert 2 * a * ref.quad_value(C, b, c, x) + beta == s  # sigma* = grad V(Lambda(x*))
        assert a > 0
    assert planted.is_positive_definite(G)
    assert planted.is_positive_definite(p["A"])
    assert all(isinstance(v, Fraction) for row in G for v in row)
    assert p["value"] == ref.primal_value(p, x)


@pytest.mark.parametrize("seed,n,m", CASES)
def test_numbers_survive_a_float_round_trip(seed, n, m):
    p = _generate(seed, n, m)
    assert ref.through_float(p) == {k: p[k] for k in ("n", "m")} | {
        "A": p["A"], "f": p["f"], "operators": [(C, b, c) for C, b, c in p["operators"]], "V": p["V"]}


@pytest.mark.parametrize("seed,n,m", [c for c in CASES if c[1] <= 2])
def test_dense_sample_finds_nothing_below_the_planted_minimum(seed, n, m):
    p = _generate(seed, n, m)
    poly = ref.primal_exact(p)
    exps = np.array(list(poly), dtype=float)
    coeffs = np.array([float(c) for c in poly.values()])
    side = 2001 if n == 1 else 301
    axes = [np.linspace(float(xi) - 6.0, float(xi) + 6.0, side) for xi in p["x_star"]]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    rng = np.random.default_rng(seed)
    points = np.vstack([grid, rng.uniform(-20.0, 20.0, size=(20000, n))])
    values = (coeffs[None, :] * np.prod(points[:, None, :] ** exps[None, :, :], axis=2)).sum(axis=1)
    value = float(p["value"])
    assert values.min() >= value - 1e-9 * (1.0 + abs(value))
    assert ref.eval_float(poly, p["x_star"]) == pytest.approx(value, rel=1e-12, abs=1e-12)

import numpy as np
import pytest

from conftest import random_reciprocal
from oracles import perron_root_batch


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_perron_root_batch_matches_eigvals(n):
    # reciprocal matrices from near-consistent to entries of e^(+/-8), the
    # range the CR grid oracle scans
    rng = np.random.default_rng(100 + n)
    mats = np.stack([random_reciprocal(n, rng, sigma) for sigma in rng.uniform(0.0, 4.0, 2000)])
    mats[:, 0, 1], mats[:, 1, 0] = np.exp(8.0), np.exp(-8.0)
    mats[:1000, 0, 1], mats[:1000, 1, 0] = mats[:1000, 1, 0], mats[:1000, 0, 1]
    expected = np.linalg.eigvals(mats).real.max(axis=1)
    assert np.max(np.abs(perron_root_batch(mats) / expected - 1.0)) <= 1e-12


def test_perron_root_batch_consistent_is_n():
    v = np.random.default_rng(5).lognormal(0.0, 2.0, (50, 6))
    mats = v[:, :, None] / v[:, None, :]
    assert perron_root_batch(mats) == pytest.approx(np.full(50, 6.0), rel=1e-12)

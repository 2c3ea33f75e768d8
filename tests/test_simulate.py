import math

import numpy as np
import pytest

import interevent as iv
from interevent.simulate import BLOCK, _positive_uniform, sample_interevent


def _delta(tau0=1.0):
    return iv.ModelParams(weight=iv.Delta(mu=0.0), tau0=tau0, beta=1.0)


def test_determinism_and_seed_sensitivity():
    cfg = iv.SimConfig(params=_delta(), n_events=5000, seed=31337)
    a = iv.generate_series(cfg).durations
    b = iv.generate_series(cfg).durations
    assert np.array_equal(a, b)
    c = iv.generate_series(iv.SimConfig(params=_delta(), n_events=5000, seed=31338)).durations
    assert not np.array_equal(a, c)


def test_prefix_stable_across_lengths():
    # extending a run must not change the events already produced
    short = iv.generate_series(iv.SimConfig(params=_delta(), n_events=BLOCK, seed=5)).durations
    longer = iv.generate_series(
        iv.SimConfig(params=_delta(), n_events=BLOCK + 999, seed=5)
    ).durations
    assert np.array_equal(longer[:BLOCK], short)


def test_source_tag():
    s = iv.generate_series(iv.SimConfig(params=_delta(), n_events=10, seed=3))
    assert s.source == "sim:Delta:seed=3:n=10"


def test_config_validation():
    with pytest.raises(ValueError):
        iv.SimConfig(params=_delta(), n_events=0, seed=1)
    with pytest.raises(ValueError):
        iv.SimConfig(params=_delta(), n_events=10, seed=-1)
    with pytest.raises(ValueError):
        iv.SimConfig(params=_delta(), n_events=10, seed=2**64)


def test_delta_weight_is_exponential():
    tau0 = 2.5
    s = iv.generate_series(iv.SimConfig(params=_delta(tau0), n_events=200_000, seed=11))
    d = s.durations
    assert d.min() > 0
    # mean and second moment of Exp(tau0): tau0, 2 tau0^2; n = 2e5 keeps 5 sigma wide
    assert abs(d.mean() - tau0) < 5 * tau0 / math.sqrt(d.size)
    assert abs((d**2).mean() - 2 * tau0**2) < 5 * math.sqrt(20.0) * tau0**2 / math.sqrt(d.size)


def test_epsilon_sampler_distributions():
    rng = np.random.default_rng(0)
    n = 400_000

    u = iv.Uniform(half_width=1.5).sample(rng, n)
    assert u.min() >= -1.5 and u.max() <= 1.5
    assert abs(u.mean()) < 5 * 1.5 / math.sqrt(3 * n)

    lap = iv.Laplace(sigma=0.7).sample(rng, n)
    assert abs(lap.mean()) < 5 * 0.7 * math.sqrt(2.0 / n)
    assert abs(np.abs(lap).mean() - 0.7) < 5 * 0.7 / math.sqrt(n)

    # alpha = 2 reduces to a centered normal with variance sigma^2/2
    g = iv.StretchedExp(mu=0.3, sigma=1.0, alpha=2.0).sample(rng, n)
    assert abs(g.mean() - 0.3) < 5 / math.sqrt(2 * n)
    assert abs(g.var() - 0.5) < 5 * 0.5 * math.sqrt(2.0 / n)

    d = iv.Delta(mu=0.4).sample(rng, n)
    assert np.all(d == 0.4)


def test_stretched_epsilon_matches_weight_moments():
    # E|eps - mu|^k = sigma^k Gamma((k+1)/alpha) / Gamma(1/alpha)
    rng = np.random.default_rng(9)
    alpha, sigma = 1.5, 1.2
    n = 400_000
    e = iv.StretchedExp(mu=0.0, sigma=sigma, alpha=alpha).sample(rng, n)
    for k in (1, 2):
        expected = sigma**k * math.gamma((k + 1) / alpha) / math.gamma(1 / alpha)
        sample = np.abs(e) ** k
        tol = 6 * sample.std() / math.sqrt(n)
        assert abs(sample.mean() - expected) < tol, (k, sample.mean(), expected)


def test_interevent_transform():
    rng = np.random.default_rng(4)
    params = iv.ModelParams(weight=iv.Delta(mu=0.0), tau0=3.0, beta=1.0)
    t = sample_interevent(params, rng, 100)
    assert t.shape == (100,)
    assert np.all(t > 0)
    scalar = sample_interevent(params, rng)
    assert isinstance(scalar, float) and scalar > 0


class _ScriptedGenerator:
    """Stands in for a ``Generator`` whose ``random`` calls return ``draws`` in turn, recording the
    size each call asked for."""

    def __init__(self, *draws):
        self.draws = list(draws)
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return self.draws.pop(0)


def test_positive_uniform_redraws_zeros_in_place():
    # a zero would give the waiting time -ln(0) = inf: each is drawn again, as many at a time as
    # are still zero, until none is
    rng = _ScriptedGenerator(np.array([0.5, 0.0, 0.25, 0.0]), np.array([0.0, 0.75]), np.array([0.125]))
    assert np.array_equal(_positive_uniform(rng, 4), [0.5, 0.125, 0.25, 0.75])
    assert rng.sizes == [4, 2, 1] and not rng.draws
    rng = _ScriptedGenerator(0.0, 0.0, 0.375)
    assert _positive_uniform(rng, None) == 0.375
    assert rng.sizes == [None, None, None] and not rng.draws


def test_laplace_survival_matches_analytic():
    params = iv.ModelParams(weight=iv.Laplace(sigma=0.5), tau0=1.0, beta=1.0)
    n = 10**6
    s = iv.generate_series(iv.SimConfig(params=params, n_events=n, seed=21))
    grid = np.array([0.1, 1.0, 5.0, 25.0])
    emp = iv.empirical_sojourn(s, grid)
    psi = iv.sojourn(grid, params)
    se = np.sqrt(psi * (1 - psi) / n)
    assert np.all(np.abs(emp - psi) < 5 * se)

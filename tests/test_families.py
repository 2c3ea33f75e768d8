"""The contract every weight family keeps, whichever module reaches it."""

import numpy as np
import pytest

import interevent as iv
from interevent.core import WEIGHT_FAMILIES, UnsupportedModelError
from interevent.simulate import sample_epsilon

# one weight with a finite mean and, where the family has one, one without
FINITE_MEAN = {
    iv.Delta: iv.Delta(mu=0.3),
    iv.Uniform: iv.Uniform(half_width=1.5),
    iv.Laplace: iv.Laplace(sigma=0.6),
    iv.StretchedExp: iv.StretchedExp(mu=0.2, sigma=0.8, alpha=1.6),
}
DIVERGENT_MEAN = {
    iv.Laplace: iv.Laplace(sigma=1.5),
    iv.StretchedExp: iv.StretchedExp(mu=0.0, sigma=1.0, alpha=0.9),
}


def test_examples_cover_every_family():
    assert set(FINITE_MEAN) == set(WEIGHT_FAMILIES)


@pytest.mark.parametrize("family", WEIGHT_FAMILIES, ids=lambda f: f.__name__)
def test_weight_family_contract(family):
    p = iv.ModelParams(weight=FINITE_MEAN[family], tau0=1.3, beta=0.9)
    assert iv.sojourn(0.0, p) == 1.0
    assert iv.characteristic_time(p) == pytest.approx(iv.moment(1.0, p), rel=1e-12)

    rng = np.random.default_rng(3)
    assert isinstance(sample_epsilon(p.weight, rng), float)
    assert sample_epsilon(p.weight, rng, 5).shape == (5,)

    if family in DIVERGENT_MEAN:
        q = iv.ModelParams(weight=DIVERGENT_MEAN[family], tau0=1.3, beta=1.0)
        assert iv.sojourn(0.0, q) == 1.0
        with pytest.raises(iv.NoFiniteMeanError):
            iv.characteristic_time(q)
        with pytest.raises(iv.DivergentMomentError):
            iv.moment(1.0, q)


def test_sample_epsilon_rejects_unknown_family():
    with pytest.raises(UnsupportedModelError):
        sample_epsilon(object(), np.random.default_rng(0), 3)

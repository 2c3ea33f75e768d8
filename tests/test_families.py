"""The contract every weight family keeps, whichever module reaches it."""

import inspect

import numpy as np
import pytest

import interevent as iv
from interevent.core import WEIGHT_FAMILIES, UnsupportedModelError

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
    assert isinstance(p.weight.sample(rng), float)
    assert p.weight.sample(rng, 5).shape == (5,)

    if family in DIVERGENT_MEAN:
        q = iv.ModelParams(weight=DIVERGENT_MEAN[family], tau0=1.3, beta=1.0)
        assert iv.sojourn(0.0, q) == 1.0
        with pytest.raises(iv.NoFiniteMeanError):
            iv.characteristic_time(q)
        with pytest.raises(iv.DivergentMomentError):
            iv.moment(1.0, q)
        assert iv.moment(0.0, q) == 1.0 and iv.log_norm_moment(0.0, q) == 0.0


def test_model_params_rejects_unknown_family():
    with pytest.raises(UnsupportedModelError):
        iv.ModelParams(weight=object())


@pytest.mark.parametrize("family", WEIGHT_FAMILIES, ids=lambda f: f.__name__)
def test_family_methods_take_no_tolerance(family):
    # each family fixes its own accuracy; the protocol carries no rtol
    def params(name):
        return list(inspect.signature(getattr(family, name)).parameters)

    assert params("log_mgf") == ["self", "s"]
    assert params("mixture") == ["self", "x", "tau0", "beta", "k"]
    # and the protocol is all a family offers
    public = {n for n, v in vars(family).items() if callable(v) and not n.startswith("_")}
    assert public == {"log_mgf", "sample", "mixture"}


@pytest.mark.parametrize(
    "call",
    [
        lambda p: iv.ptd(1.0, p, rtol=1e-6),
        lambda p: iv.sojourn(1.0, p, rtol=1e-6),
        lambda p: iv.moment(1.0, p, rtol=1e-6),
        lambda p: iv.log_norm_moment(1.0, p, rtol=1e-6),
        lambda p: iv.model_curve([0.0, 1.0], p, rtol=1e-6),
    ],
    ids=["ptd", "sojourn", "moment", "log_norm_moment", "model_curve"],
)
def test_density_and_moment_api_takes_no_tolerance(call):
    p = iv.ModelParams(weight=FINITE_MEAN[iv.StretchedExp], tau0=1.3, beta=0.9)
    with pytest.raises(TypeError):
        call(p)


# weights whose maps take every branch: the Uniform series below u = 1e-8 and the narrow-width
# quadrature, Laplace densities finite and infinite at 0, and the stretched rule
ONE_PATH = [
    iv.Delta(mu=0.3),
    iv.Uniform(half_width=1.5),
    iv.Uniform(half_width=5e-4),
    iv.Laplace(sigma=0.3),
    iv.Laplace(sigma=0.6),
    iv.Laplace(sigma=1.5),
    iv.StretchedExp(mu=0.2, sigma=0.8, alpha=1.6),
]


@pytest.mark.parametrize("weight", ONE_PATH, ids=repr)
def test_kernels_on_a_grid_equal_their_batches_of_one(weight):
    t = np.array([0.0, 5e-324, 1e-9, 0.3, 1.7, 6.0, 50.0, 700.0])
    for k in (1, 0):
        whole = weight.mixture(t, 1.3, 0.9, k)
        ones = [weight.mixture(t[i:i + 1], 1.3, 0.9, k) for i in range(t.size)]
        assert whole.tobytes() == np.concatenate(ones).tobytes()


@pytest.mark.parametrize("weight", [w for w in ONE_PATH if isinstance(w, iv.Laplace)], ids=repr)
def test_laplace_is_the_stretched_weight_at_alpha_one(weight):
    # one rule for both: bit for bit wherever t/tau0 > 0, and the exact limit at the origin
    t = np.array([0.0, 5e-324, 1e-9, 0.3, 1.7, 6.0, 50.0, 700.0])
    sb = 0.9 * weight.sigma
    for k, at_zero in ((1, 1.0 / (1.3 * (1.0 - sb * sb)) if sb < 1 else np.inf), (0, 1.0)):
        got = weight.mixture(t, 1.3, 0.9, k)
        stretched = iv.StretchedExp(0.0, weight.sigma, 1.0).mixture(t, 1.3, 0.9, k)
        pos = t / 1.3 > 0.0
        assert got[pos].tobytes() == stretched[pos].tobytes()
        assert np.array_equal(got[~pos], np.full((~pos).sum(), at_zero))


@pytest.mark.parametrize("weight", ONE_PATH, ids=repr)
def test_density_is_minus_the_slope_of_the_survival_function(weight):
    # psi and Psi are the k = 1 and k = 0 cases of one mixture integral, so psi = -dPsi/dt
    p = iv.ModelParams(weight=weight, tau0=1.3, beta=0.9)
    for t in (0.3, 1.7, 6.0, 50.0):
        h = 1e-4 * t
        slope = (iv.sojourn(t - h, p) - iv.sojourn(t + h, p)) / (2.0 * h)
        assert iv.ptd(t, p) == pytest.approx(slope, rel=1e-5)

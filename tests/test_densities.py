import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interevent as iv
from interevent.core import AsymptoticRangeWarning, ModelDomainError, UnsupportedModelError
from interevent.densities import Phase

# Pointwise references from 30-digit quadrature of the defining mixture
# (variable changed to u = e^{-beta*eps}), tau0 = 1, beta = 1.
LAPLACE_PTD = {
    0.5: [
        (0.01, 1.2805138435987622678),
        (0.5, 0.55684670979608400403),
        (3.0, 0.053368585742543681459),
        (50.0, 1.6e-5),
        (1000.0, 2.0e-9),
    ],
    2.0: [
        (0.01, 4.0984665346669945418),
        (0.5, 0.3233917388014334138),
        (3.0, 0.041539604526200623939),
        (50.0, 0.0006266570686577501256),
        (1000.0, 7.0062390204974108741e-6),
    ],
}
LAPLACE_SOJ = {
    0.5: [
        (0.01, 0.98695569758732399576),
        (0.5, 0.58242040599937791575),
        (3.0, 0.097914171725860972942),
        (50.0, 4.0e-4),
        (1000.0, 1.0e-6),
    ],
    2.0: [
        (0.01, 0.9147073122100236082),
        (0.5, 0.53223265309071538584),
        (3.0, 0.25510593307423505988),
        (50.0, 0.062665706865775009031),
        (1000.0, 0.014012478040994818219),
    ],
}
UNIFORM_PTD = {
    0.5: [
        (0.01, 1.0305092738001171035),
        (0.5, 0.5997757519114476625),
        (3.0, 0.05166041330169842406),
        (50.0, 1.350156354444354254e-15),
    ],
    2.0: [
        (0.01, 1.746855755559173298),
        (0.5, 0.45485592564149952818),
        (3.0, 0.055525522456595002528),
        (50.0, 5.7570721004973311078e-6),
    ],
}
UNIFORM_SOJ = {
    0.5: [
        (0.01, 0.98963661811678493321),
        (0.5, 0.60038951446086541325),
        (3.0, 0.061717809218962517069),
        (50.0, 2.1570457389850517998e-15),
    ],
    2.0: [
        (0.01, 0.98220129550313896641),
        (0.5, 0.5442467278862501264),
        (3.0, 0.17310504744614821713),
        (50.0, 3.7576656457808625527e-5),
    ],
}
# sigma = 1, alpha = 1.5, beta = 0.8, tau0 = 1
STRETCHED_PTD = [
    (0.05, 1.1465128372013766498),
    (0.5, 0.55760377771354473767),
    (5.0, 0.01604078072257026395),
    (100.0, 1.858714885587154049e-7),
]
STRETCHED_SOJ = [
    (0.05, 0.93956275613570180993),
    (0.5, 0.58049486444466060789),
    (5.0, 0.039355457119321196442),
    (100.0, 4.8392958079814939155e-6),
]


def _laplace(sb):
    return iv.ModelParams(weight=iv.Laplace(sigma=sb), tau0=1.0, beta=1.0)


def _uniform(hw):
    return iv.ModelParams(weight=iv.Uniform(half_width=hw), tau0=1.0, beta=1.0)


def _stretched():
    return iv.ModelParams(
        weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=1.5), tau0=1.0, beta=0.8
    )


@pytest.mark.parametrize("sb", [0.5, 2.0])
def test_laplace_ptd_reference(sb):
    p = _laplace(sb)
    for t, expected in LAPLACE_PTD[sb]:
        assert iv.ptd(t, p) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("sb", [0.5, 2.0])
def test_laplace_sojourn_reference(sb):
    p = _laplace(sb)
    for t, expected in LAPLACE_SOJ[sb]:
        assert iv.sojourn(t, p) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("hw", [0.5, 2.0])
def test_uniform_ptd_reference(hw):
    p = _uniform(hw)
    for t, expected in UNIFORM_PTD[hw]:
        assert iv.ptd(t, p) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("hw", [0.5, 2.0])
def test_uniform_sojourn_reference(hw):
    p = _uniform(hw)
    for t, expected in UNIFORM_SOJ[hw]:
        assert iv.sojourn(t, p) == pytest.approx(expected, rel=1e-12)


def test_stretched_density_reference():
    p = _stretched()
    for t, expected in STRETCHED_PTD:
        assert iv.ptd(t, p) == pytest.approx(expected, rel=1e-9)
    for t, expected in STRETCHED_SOJ:
        assert iv.sojourn(t, p) == pytest.approx(expected, rel=1e-9)


def test_delta_is_plain_exponential():
    p = iv.ModelParams(weight=iv.Delta(mu=0.3), tau0=2.0, beta=1.0)
    tau = 2.0 * math.exp(0.3)
    for t in (0.0, 0.5, 4.0):
        assert iv.ptd(t, p) == pytest.approx(math.exp(-t / tau) / tau, rel=1e-14)
        assert iv.sojourn(t, p) == pytest.approx(math.exp(-t / tau), rel=1e-14)


def test_density_at_zero_limits():
    # <1/tau> where it exists
    assert iv.ptd(0.0, _laplace(0.5)) == pytest.approx(1.0 / (1.0 - 0.25), rel=1e-13)
    assert math.isinf(iv.ptd(0.0, _laplace(1.0)))
    assert math.isinf(iv.ptd(0.0, _laplace(2.0)))
    hw = 2.0
    assert iv.ptd(0.0, _uniform(hw)) == pytest.approx(math.sinh(hw) / hw, rel=1e-13)
    # survival always starts at 1
    for p in (_laplace(0.5), _laplace(2.0), _uniform(0.5), _stretched()):
        assert iv.sojourn(0.0, p) == 1.0


def test_stretched_density_divergence_at_zero():
    # alpha < 1 gives a weight tail heavier than the exponential depth factor
    p = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=0.7), tau0=1.0, beta=2.0)
    assert math.isinf(iv.ptd(0.0, p))


def test_time_domain_validation():
    p = _laplace(0.5)
    with pytest.raises(ModelDomainError):
        iv.ptd(-1.0, p)
    with pytest.raises(ModelDomainError):
        iv.ptd(np.array([0.5, np.nan]), p)
    with pytest.raises(ModelDomainError):
        iv.sojourn(np.array([-0.1]), p)


def test_scalar_and_array_shapes():
    p = _uniform(1.0)
    val = iv.ptd(0.5, p)
    assert isinstance(val, float)
    arr = iv.ptd(np.array([0.5, 1.0]), p)
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(val, rel=1e-15)


def test_tail_law():
    p = _laplace(2.0)
    t = np.geomspace(20.0, 1e4, 10)
    tail = iv.ptd_tail(t, p)
    expected = math.gamma(1.5) / 4.0 * t ** (-1.5)
    assert np.allclose(tail, expected, rtol=1e-12)

    with pytest.warns(AsymptoticRangeWarning):
        iv.ptd_tail(np.array([0.5]), p)
    with pytest.raises(ModelDomainError):
        iv.ptd_tail(np.array([0.0]), p)
    with pytest.raises(UnsupportedModelError):
        iv.ptd_tail(np.array([100.0]), _uniform(1.0))


def test_phase_classification():
    lo = iv.phase(_laplace(0.5))
    assert lo.kind is Phase.HIGH_TEMPERATURE
    assert lo.tail_exponent == pytest.approx(3.0)

    crit = iv.phase(_laplace(1.0))
    assert crit.kind is Phase.CRITICAL
    assert crit.tail_exponent == pytest.approx(2.0)

    hi = iv.phase(_laplace(2.0))
    assert hi.kind is Phase.LOW_TEMPERATURE
    assert hi.tail_exponent == pytest.approx(1.5)

    for p in (_uniform(1.0), _stretched(), iv.ModelParams(weight=iv.Delta(), tau0=1.0)):
        label = iv.phase(p)
        assert label.kind is Phase.HIGH_TEMPERATURE
        assert label.tail_exponent is None


def test_characteristic_time():
    assert iv.characteristic_time(_uniform(2.0)) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-13)
    assert iv.characteristic_time(_laplace(0.5)) == pytest.approx(1.0 / 0.75, rel=1e-13)
    with pytest.raises(iv.NoFiniteMeanError):
        iv.characteristic_time(_laplace(1.0))
    p = iv.ModelParams(weight=iv.Delta(mu=0.4), tau0=1.5, beta=1.0)
    assert iv.characteristic_time(p) == pytest.approx(1.5 * math.exp(0.4), rel=1e-14)
    ps = _stretched()
    assert iv.characteristic_time(ps) == pytest.approx(iv.moment(1.0, ps), rel=1e-10)


def test_uniform_narrow_width_fallback_is_continuous():
    # the quadrature fallback below half_width*beta = 1e-3 must join smoothly
    t = np.array([0.3, 1.7, 6.0])
    lo = iv.sojourn(t, _uniform(0.99e-3))
    hi = iv.sojourn(t, _uniform(1.01e-3))
    assert np.allclose(lo, hi, rtol=1e-6)
    near_delta = iv.sojourn(t, _uniform(1e-9))
    assert np.allclose(near_delta, np.exp(-t), rtol=1e-6)


@given(
    family=st.sampled_from(["delta", "uniform", "laplace", "stretched"]),
    t=st.floats(0.0, 50.0),
    scale=st.floats(0.2, 2.0),
)
@settings(max_examples=80, deadline=None)
def test_density_nonnegative_and_survival_bounded(family, t, scale):
    if family == "delta":
        w = iv.Delta(mu=0.1)
    elif family == "uniform":
        w = iv.Uniform(half_width=scale)
    elif family == "laplace":
        w = iv.Laplace(sigma=scale)
    else:
        w = iv.StretchedExp(mu=0.0, sigma=scale, alpha=1.4)
    p = iv.ModelParams(weight=w, tau0=1.0, beta=1.0)
    assert iv.ptd(t, p) >= 0.0
    s = iv.sojourn(t, p)
    assert 0.0 <= s <= 1.0


def test_sojourn_monotone_in_t():
    t = np.geomspace(1e-3, 1e3, 60)
    for p in (_laplace(0.5), _laplace(2.0), _uniform(1.5), _stretched()):
        psi = iv.sojourn(t, p)
        assert np.all(np.diff(psi) <= 1e-15)


# 30-digit quadrature of the standardized mixture, split at the kink y = 0 of
# |y|^alpha and at the integrand peak; mu = 0, sigma = 1, tau0 = 1, beta = 1.
@pytest.mark.parametrize(
    "fn, alpha, t, expected",
    [
        (iv.sojourn, 1.3, 7.88, 0.03389678086130725689249),
        (iv.ptd, 1.5, 0.34198, 0.6787580771889401928183),
    ],
    ids=["sojourn", "ptd"],
)
def test_stretched_quadrature_meets_rtol_near_kink(fn, alpha, t, expected):
    p = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=alpha))
    assert fn(t, p) == pytest.approx(expected, rel=1e-8)


def test_characteristic_time_stretched_divergent_mean():
    # alpha <= 1: every positive moment of the mixture diverges
    with pytest.raises(iv.NoFiniteMeanError):
        iv.characteristic_time(iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=0.9)))

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interevent as iv
from interevent.core import _BLOCK, AsymptoticRangeWarning, ModelDomainError, UnsupportedModelError
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


# 30-digit mpmath of the same mixture on windows split at 0 and at the integrand's peak,
# (beta*sigma, t, psi, Psi): 1/(beta*sigma) next to an integer, where an upward incomplete-gamma
# recurrence divides by nearly zero, and a narrow weight far out in t
LAPLACE_NEAR_INTEGER = [
    (0.49999999999999994, 0.3, 0.73574434985225795427, 0.71044530560586741425),
    (0.49999999999999994, 1.0, 0.30909830091871044864, 0.37393308485487549209),
    (0.49999999999999994, 10.0, 0.0019982914490346080658, 0.0099985547702792079842),
    (0.04, 60.0, 1.1366404672130036925e-20, 2.7279373767445736904e-20),
    (0.08, 30.0, 1.2240845451241012226e-10, 2.9380736780130210524e-10),
]


@pytest.mark.parametrize("sb,t,psi,survival", LAPLACE_NEAR_INTEGER)
@pytest.mark.parametrize("name", ["ptd", "sojourn"])
def test_laplace_near_an_integer_inverse_width(name, sb, t, psi, survival):
    expected = psi if name == "ptd" else survival
    assert getattr(iv, name)(t, _laplace(sb)) == pytest.approx(expected, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("sb", [0.24999999999999997, 0.33333333333333326, 0.49999999999999994])
def test_laplace_density_stays_positive_near_an_integer_inverse_width(sb):
    assert iv.ptd(np.geomspace(0.01, 100.0, 401), _laplace(sb)).min() > 0.0


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


# 30-digit mpmath of (1/(2 hw)) int exp(-t exp(-eps)) deps over [-hw, hw], below the cut at
# half_width*beta = 1e-3 where the survival integrates on the tanh-sinh nodes
NARROW_UNIFORM_SOJ = [
    (5e-4, 0.3, 0.7408182141995585030488),
    (5e-4, 1.7, 0.1826835331107924708448),
    (5e-4, 6.0, 0.002478755275106896846085),
    (5e-4, 50.0, 1.928946746720226055294e-22),
    (2e-4, 0.3, 0.7408182196445723588519),
    (2e-4, 1.7, 0.1826835255020239347192),
    (2e-4, 6.0, 0.002478752672416801886624),
    (2e-4, 50.0, 1.928781351019991882548e-22),
]


@pytest.mark.parametrize("hw, t, expected", NARROW_UNIFORM_SOJ)
def test_uniform_narrow_width_mpmath_reference(hw, t, expected):
    assert iv.sojourn(t, _uniform(hw)) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("hw", [1e-6, 1e-9, 1e-12, 1e-15, 1e-17, 1e-300, 5e-324])
def test_uniform_narrow_width_density_mpmath_reference(hw):
    # the closed form (exp(-t/tau_plus) - exp(-t/tau_minus))/(2 hw t) at 400 digits, enough for the
    # difference at hw = 5e-324, and its limit sinh(hw)/hw at t = 0.  The worst error measured is
    # 3.6e-15 (hw = 1e-12, t = 40); a rate gap taken as 1/tau_minus - 1/tau_plus cancels, off 2.7e-11
    # at hw = 1e-6 and returning 0 from hw = 1e-17
    t = [0.0, 1e-9, 0.3, 5.0, 40.0]
    got = iv.ptd(np.array(t), _uniform(hw))
    with mpmath.workdps(400):
        db = mpmath.mpf(hw)
        ref = [mpmath.sinh(db) / db if x == 0 else
               (mpmath.exp(-x / mpmath.exp(db)) - mpmath.exp(-x * mpmath.exp(db))) / (2 * db * x) for x in t]
        rel = [float(abs(g / r - 1)) for g, r in zip(got.tolist(), ref)]
    assert max(rel) < 1e-14, rel


@pytest.mark.parametrize("hw", [1e-3, 0.01, 0.5, 2.0, 20.0])
def test_uniform_survival_at_a_subnormal_time_is_one(hw):
    # 1 - Psi <= t/tau_minus, so Psi is 1 to the last bit; E1 of a ratio t/tau that is a subnormal
    # (or 0) gave anything from 0 to 0.9999 there, or NaN
    t = np.array([5e-324, 1e-323, 1e-320, 1e-310])
    for tau0 in (0.3, 1.0, 3.0):
        assert np.array_equal(iv.sojourn(t, iv.ModelParams(weight=iv.Uniform(half_width=hw), tau0=tau0)),
                              np.ones(t.size)), tau0


@pytest.mark.parametrize("hw, bound", [(1e-3, 2e-13), (1.5e-3, 2e-13), (0.01, 1e-13)])
def test_uniform_survival_just_above_the_narrow_width_switch(hw, bound):
    # (E1(t/tau_plus) - E1(t/tau_minus))/(2 hw) at 40 digits, where it is a normal float.  Up to
    # t/tau_minus = 1 the E1 difference cancels, off 1.41e-12, 7.3e-13 and 1.2e-13 at these widths;
    # its Ein series in t/tau_minus is within 1.34e-13, 1.24e-13 and 8.3e-14
    t = np.geomspace(1e-6, 1e3, 301)
    got = iv.sojourn(t, _uniform(hw))
    with mpmath.workdps(40):
        db = mpmath.mpf(hw)
        ref = [(mpmath.e1(x / mpmath.exp(db)) - mpmath.e1(x / mpmath.exp(-db))) / (2 * db) for x in t.tolist()]
        rel = [float(abs(g / r - 1)) for g, r in zip(got.tolist(), ref) if r > 1e-300]
    assert max(rel) < bound


def test_uniform_density_where_beta_times_half_width_underflows():
    # 0.4 * 5e-324 rounds to 0: the weight is a point mass at 0, where a gap over 2 beta half_width
    # was 0/0
    t = np.array([0.0, 0.3, 5.0])
    assert np.array_equal(iv.ptd(t, iv.ModelParams(weight=iv.Uniform(half_width=5e-324), beta=0.4)), np.exp(-t))


def test_narrow_uniform_survival_peak_allocation_stays_linear():
    # guard against a (times x nodes) matrix: with N = 5*10^4 times the quadrature fallback must
    # stay under 4 length-N arrays, and its blocks give the bytes of single-block calls
    n = 50_000
    t = np.geomspace(0.01, 50.0, n)
    p = _uniform(5e-4)
    tracemalloc.start()
    try:
        iv.sojourn(t, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * 8
    grid = t[::97]
    assert grid.size > _BLOCK
    whole = p.weight.mixture(grid, 1.0, 1.0, 0)
    blocks = [p.weight.mixture(grid[i:i + _BLOCK], 1.0, 1.0, 0) for i in range(0, grid.size, _BLOCK)]
    assert whole.tobytes() == np.concatenate(blocks).tobytes()


@pytest.mark.parametrize("t", [5e-324, 1e-312])
def test_laplace_at_a_subnormal_time(t):
    # below beta*sigma = 1/2 the density is at its t -> 0 limit 1/(1 - (beta*sigma)**2) to
    # rounding; above, it is finite and rising to inf at 0
    assert iv.ptd(t, _laplace(0.4921875)) == pytest.approx(1.0 / (1.0 - 0.4921875**2), rel=5e-16)
    for sb in np.linspace(0.05, 3.0, 600).tolist():
        psi = iv.ptd(t, _laplace(sb))
        if sb < 0.5:
            assert psi == pytest.approx(1.0 / (1.0 - sb * sb), rel=1e-14), sb
        assert 0.0 < psi < math.inf, sb
        assert iv.sojourn(t, _laplace(sb)) == pytest.approx(1.0, rel=1e-14), sb


@pytest.mark.parametrize("weight", [iv.Laplace(sigma=0.6), iv.StretchedExp(mu=0.0, sigma=1.0, alpha=1.5)],
                         ids=repr)
def test_a_time_whose_ratio_to_tau0_underflows_takes_the_t0_limit(weight):
    # 5e-324 / 3 is 0.0: such a time is t = 0 to the mixture, psi at its limit and Psi exactly 1
    p = iv.ModelParams(weight=weight, tau0=3.0)
    t = np.array([0.0, 5e-324])
    assert np.array_equal(iv.ptd(t, p), np.full(2, iv.ptd(0.0, p)))
    assert np.array_equal(iv.sojourn(t, p), [1.0, 1.0])
    if isinstance(weight, iv.Laplace):
        assert iv.ptd(5e-324, p) == 1.0 / (3.0 * (1.0 - 0.6**2))


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


# 30-digit quadrature of the same standardized mixture, normalized by its log
# peak, in y and again in v = ln|y| per side (the two agree to 1e-31): a short
# time, the peak crossing the kink (t = 1), and a tail where Psi < 1e-60.
STRETCHED_MIX = [
    # (alpha, t, psi, Psi)
    (0.8, 1e-4, 23.28715896101019743257, 0.9955102824698817756566),
    (0.8, 1.0, 0.2071741380181259173259, 0.4032728789760619747684),
    (0.8, 1e210, 4.01386093399535271945e-272, 1.730500644736677113981e-61),
    (1.3, 1e-4, 1.725052811220188966714, 0.9998273828453664830513),
    (1.3, 1.0, 0.2711407135190132900195, 0.3807852416934047661388),
    (1.3, 1e20, 1.172977383543450714099e-82, 2.88429460969953571225e-63),
    (2.5, 1e-4, 1.22662252397204996895, 0.9998773267111273332329),
    (2.5, 1.0, 0.3061532319541441760959, 0.3721163173720330613513),
    (2.5, 1e4, 4.449009709658709774639e-52, 1.308790119441131985014e-49),
]


@pytest.mark.parametrize("alpha, t, psi, surv", STRETCHED_MIX)
def test_stretched_mixture_mpmath_reference(alpha, t, psi, surv):
    p = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=alpha))
    assert iv.ptd(t, p) == pytest.approx(psi, rel=1e-8)
    assert iv.sojourn(t, p) == pytest.approx(surv, rel=1e-8)


# Mid times, where the rule is furthest off: 30-digit mpmath of the same mixture on windows split
# at 0 and at the integrand's peak, cut 90 below it (a 40-digit check on wider windows agrees to
# 2e-31); mu = 0, sigma = 0.6, tau0 = beta = 1.  Measured off by +4.8e-12 and +5.7e-12 at
# alpha = 1.5, -1.9e-12 and -1.8e-11 at alpha = 1.2, and within 3.1e-15 at t = 5 and 60.
STRETCHED_MID_TIME = [
    # (alpha, t, psi, Psi)
    (1.5, 24.0, 1.898893576637710739709e-5, 1.057754374447014801782e-4),
    (1.2, 24.0, 8.909202792779149354049e-5, 8.151080465028156978347e-4),
]


@pytest.mark.parametrize("alpha, t, psi, surv", STRETCHED_MID_TIME)
def test_stretched_mid_time_mpmath_reference(alpha, t, psi, surv):
    p = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=0.6, alpha=alpha))
    assert iv.ptd(t, p) == pytest.approx(psi, rel=3e-11, abs=0.0)
    assert iv.sojourn(t, p) == pytest.approx(surv, rel=3e-11, abs=0.0)


# Heavy weights, alpha <= 1/2: the kernel's step at t = tau(eps) sits far from
# the peak, and for psi at small beta*sigma the shallow side has a second mode
# next to it.  30-digit mpmath in v = ln|y|, the same method as above.
@pytest.mark.parametrize(
    "fn, alpha, sigma, t, expected",
    [
        (iv.sojourn, 0.3, 0.1, 1e-11, 0.92794968909824506457),
        (iv.sojourn, 0.2, 3.0, 1.0, 0.49963671166185029965),
        (iv.ptd, 0.4, 0.01, 1e-10, 56.966741334153717476),
        (iv.ptd, 0.5, 0.03, 1e-12, 2.242157024627330678),
    ],
)
def test_stretched_heavy_weight_mpmath_reference(fn, alpha, sigma, t, expected):
    p = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=sigma, alpha=alpha))
    assert fn(t, p) == pytest.approx(expected, rel=1e-8)


# Heavy weights, alpha < 1, where each side can have a second mode: t = 1e-3 puts the c-term
# turn (|y| = |ln c|/bs) on the negative side, t = 1e3 on the positive side.  40-digit mpmath
# in v = ln|y| per side, over the range where the log-integrand is within 90 of its peak, split
# every 0.25 and again every 0.2 in v (the two agree to 4e-29); mu = 0, tau0 = beta = 1.
STRETCHED_SUBLINEAR = [
    # (alpha, beta*sigma, t, psi, Psi)
    (0.3, 0.1, 0.001, 17.795418090853035173, 0.79776756014122583088),
    (0.3, 0.1, 1000, 0.000014407931298126938123, 0.18307376723832264011),
    (0.3, 1.0, 0.001, 9.6535601793054321784, 0.59401518664275152641),
    (0.3, 1.0, 1000, 8.7487696338722799209e-6, 0.39525846369914137752),
    (0.3, 3.0, 0.001, 5.2079572092825532997, 0.54446288416360175143),
    (0.3, 3.0, 1000, 4.8574033662369418943e-6, 0.44969193917144182734),
    (0.6, 0.1, 0.001, 1.1928593693969386932, 0.99879552296686275206),
    (0.6, 0.1, 1000, 1.1004121451222498445e-8, 0.000010188596866926586615),
    (0.6, 1.0, 0.001, 18.145083085052523671, 0.92713709589500860582),
    (0.6, 1.0, 1000, 0.000012459724813979368497, 0.054049696463073568059),
    (0.6, 3.0, 0.001, 23.918109941970985056, 0.78275254981580652281),
    (0.6, 3.0, 1000, 0.000020020267029365686524, 0.19140814019735820742),
    (0.9, 0.1, 0.001, 1.0138630731902181171, 0.99898560579416378439),
    (0.9, 0.1, 1000, 7.6130058069826076101e-20, 1.2551168239147768392e-17),
    (0.9, 1.0, 0.001, 5.2352095160272431418, 0.99277293994466846295),
    (0.9, 1.0, 1000, 1.4740870819428187248e-6, 0.0020138359856501501538),
    (0.9, 3.0, 0.001, 24.191560589689676850, 0.91004422063240457521),
    (0.9, 3.0, 1000, 0.000017206124124274734246, 0.064910628414520712438),
]


@pytest.mark.parametrize("alpha, sigma, t, psi, surv", STRETCHED_SUBLINEAR)
def test_stretched_sublinear_weight_mpmath_reference(alpha, sigma, t, psi, surv):
    p = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=sigma, alpha=alpha))
    assert iv.ptd(t, p) == pytest.approx(psi, rel=1e-8)
    assert iv.sojourn(t, p) == pytest.approx(surv, rel=1e-8)


@pytest.mark.parametrize("alpha", [3.0, 10.0, 20.0])
def test_stretched_far_tail_underflows_cleanly(alpha):
    # sigma = tau0 = beta = 1: the c term at the peak passes 1e17 (from t = 1e42 at alpha = 10,
    # 1e21 at alpha = 20), and the peak gets narrower than the spacing of floats in ln|y|
    p = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=alpha))
    t = 10.0 ** np.arange(0, 301)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        psi, surv = iv.ptd(t, p), iv.sojourn(t, p)
    assert np.all(np.isfinite(psi)) and np.all(psi >= 0.0)
    assert np.all((surv >= 0.0) & (surv <= 1.0)) and np.all(np.diff(surv) <= 0.0)


def test_stretched_density_past_the_float_range_is_inf():
    # at alpha < 1 psi diverges at t = 0; at a subnormal t it is past the float range as well
    p = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert iv.ptd(5e-324, p) == math.inf
        assert np.array_equal(iv.ptd(np.array([0.0, 5e-324]), p), [math.inf, math.inf])
        assert math.isfinite(iv.ptd(1e-310, p))


@pytest.mark.parametrize("fn", [iv.ptd, iv.sojourn], ids=["ptd", "sojourn"])
@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_stretched_value_does_not_depend_on_its_batch(fn, alpha):
    # one grid over three quadrature blocks, the same grid shuffled, and single points
    p = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=alpha))
    t = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 2 * _BLOCK + 36)])
    whole = fn(t, p)
    order = np.random.default_rng(0).permutation(t.size)
    np.testing.assert_allclose(fn(t[order], p), whole[order], rtol=1e-14, atol=0.0)
    for i in (0, 1, _BLOCK - 1, _BLOCK, t.size - 1):
        assert fn(float(t[i]), p) == pytest.approx(whole[i], rel=1e-14, abs=0.0)


def test_characteristic_time_stretched_divergent_mean():
    # alpha <= 1: every positive moment of the mixture diverges
    with pytest.raises(iv.NoFiniteMeanError):
        iv.characteristic_time(iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.0, alpha=0.9)))

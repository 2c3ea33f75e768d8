import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interevent.core import (
    Delta,
    EventSeries,
    FitResult,
    Laplace,
    ModelDomainError,
    ModelParams,
    QMomentCurve,
    StretchedExp,
    Uniform,
    scaled_lower_incomplete_gamma,
    scaled_upper_incomplete_gamma,
)

# Reference values from 30-digit arbitrary-precision quadrature / gammainc.
S_LOW_TABLE = [
    (2.5, 1.0, 0.20053759629003473411),
    (2.5, 40.0, 0.00013136698163432634365),
    (0.5, 0.3, 1.8167857540655010711),
    (1.5, 700.0, 4.7851756120762769461e-5),
    (5.0, 0.01, 0.1983404554033559462),
]
S_UP_TABLE = [
    (1.5, 2.0, 0.081924172616529358016),
    (0.5, 0.3, 1.4192574335273310189),
    (-0.5, 1.0, 0.17814771178156069019),
    (-1.0, 1.0, 0.14849550677592204792),
    (-2.3, 0.7, 0.1521200540083176893),
    (0.0, 1.0, 0.21938393439552027368),
    (-1.0, 0.02, 0.91310451764056111161),
    (2.0, 800.0, 4.5905742842598866531e-351),
    (-3.0, 0.5, 0.16524282585834806497),
]


@pytest.mark.parametrize("a,z,expected", S_LOW_TABLE)
def test_scaled_lower_gamma_reference(a, z, expected):
    got = scaled_lower_incomplete_gamma(a, z)
    assert got == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("a,z,expected", S_UP_TABLE)
def test_scaled_upper_gamma_reference(a, z, expected):
    got = scaled_upper_incomplete_gamma(a, z)
    assert got == pytest.approx(expected, rel=1e-12)


@given(
    a=st.floats(0.1, 20.0),
    z=st.floats(1e-3, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_lower_plus_upper_is_gamma(a, z):
    total = (scaled_lower_incomplete_gamma(a, z) + scaled_upper_incomplete_gamma(a, z)) * z**a
    assert total == pytest.approx(math.gamma(a), rel=1e-10)


@given(
    a=st.floats(-5.0, 5.0),
    z=st.floats(0.05, 30.0),
)
@settings(max_examples=200, deadline=None)
def test_scaled_upper_recurrence(a, z):
    # S(a, z) = (z * S(a+1, z) - e^{-z}) / a holds for a != 0
    if abs(a) < 1e-3:
        return
    lhs = scaled_upper_incomplete_gamma(a, z)
    rhs = (z * scaled_upper_incomplete_gamma(a + 1.0, z) - math.exp(-z)) / a
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-300)


def test_weight_validation():
    with pytest.raises(ModelDomainError):
        Uniform(half_width=0.0)
    with pytest.raises(ModelDomainError):
        Laplace(sigma=-1.0)
    with pytest.raises(ModelDomainError):
        StretchedExp(mu=0.0, sigma=1.0, alpha=0.0)
    with pytest.raises(ModelDomainError):
        ModelParams(weight=Delta(), tau0=0.0)
    with pytest.raises(ModelDomainError):
        ModelParams(weight=Delta(), tau0=1.0, beta=-2.0)
    # frozen dataclasses
    w = Laplace(sigma=1.0)
    with pytest.raises(Exception):
        w.sigma = 2.0


def test_qmoment_curve_invariants():
    q = np.array([0.0, 0.5, 1.0])
    vals = np.array([0.0, 0.1, 0.3])
    c = QMomentCurve(q_grid=q, log_norm_moment=vals)
    assert c.n_samples == 0

    with pytest.raises(ValueError):
        QMomentCurve(q_grid=np.array([0.5, 0.5]), log_norm_moment=np.zeros(2))
    with pytest.raises(ValueError):
        QMomentCurve(q_grid=np.array([-2.0, 0.5]), log_norm_moment=np.zeros(2))
    with pytest.raises(ValueError):
        # q = 0 must carry a zero value
        QMomentCurve(q_grid=q, log_norm_moment=np.array([0.5, 0.1, 0.3]))
    with pytest.raises(ValueError):
        QMomentCurve(q_grid=q, log_norm_moment=vals, stderr=np.array([0.1, 0.1]))


def test_qmoment_curve_n_eff_validation():
    q = np.array([0.0, 0.5, 1.0])
    vals = np.array([0.0, 0.1, 0.3])
    assert QMomentCurve(q_grid=q, log_norm_moment=vals).n_eff is None
    c = QMomentCurve(q_grid=q, log_norm_moment=vals, n_eff=[3, 2, 1.5])
    assert c.n_eff.dtype == float and c.n_eff.shape == q.shape
    with pytest.raises(ValueError):
        QMomentCurve(q_grid=q, log_norm_moment=vals, n_eff=np.array([3.0, 2.0]))
    with pytest.raises(ValueError):
        QMomentCurve(q_grid=q, log_norm_moment=vals, n_eff=np.array([3.0, 2.0, -1.0]))


@pytest.mark.parametrize("field", ["stderr", "n_eff"])
def test_qmoment_curve_rejects_nan_uncertainty(field):
    # NaN passes a plain "< 0" check; it must not reach a fit's weights
    q = np.array([0.0, 0.5, 1.0])
    vals = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValueError, match=field):
        QMomentCurve(q_grid=q, log_norm_moment=vals, **{field: np.array([1.0, np.nan, 1.0])})
    # infinity stays legal: an unbounded error bar is a value, not a hole
    QMomentCurve(q_grid=q, log_norm_moment=vals, **{field: np.array([1.0, np.inf, 1.0])})


def test_qmoment_curve_window():
    q = np.linspace(0.0, 2.0, 21)
    c = QMomentCurve(q_grid=q, log_norm_moment=np.zeros(21))
    mask = c.window(0.5, 1.0)
    assert q[mask].min() >= 0.5 and q[mask].max() <= 1.0


def test_fit_result_accessors():
    r = FitResult(
        params={"a": (1.5, 0.1), "b": (2.0, 0.2)},
        q_domain=(0.0, 3.0),
        residual_norm=0.01,
        converged=True,
    )
    assert r.estimate("a") == 1.5
    assert r.stderr("b") == 0.2
    with pytest.raises(KeyError):
        r.estimate("zzz")
    with pytest.raises(ValueError):
        FitResult(params={}, q_domain=(3.0, 0.0), residual_norm=0.0, converged=True)


def test_event_series_validation():
    s = EventSeries(durations=np.array([1.0, 2.0]), source="unit")
    assert s.durations.shape == (2,)
    with pytest.raises(ValueError):
        EventSeries(durations=np.array([1.0, -1.0]), source="unit")
    with pytest.raises(ValueError):
        EventSeries(durations=np.array([1.0, np.nan]), source="unit")

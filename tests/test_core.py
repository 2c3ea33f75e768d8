import math

import mpmath
import numpy as np
import pytest

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
    _crossing,
    _exp1,
    _lgamma,
    _lgamma1p,
)


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


def test_exp1_matches_mpmath():
    # a log grid from 1e-300 to 700, dense about the switch from the series to the continued
    # fraction at z = 1.  On these points scipy.special.exp1 is within 1.65e-15 of 40-digit mpmath
    # and _exp1 within 5.2e-16; the bound is 1.5 times scipy's
    z = np.concatenate([np.geomspace(1e-300, 700.0, 1500), np.geomspace(0.25, 4.0, 801)])
    with mpmath.workdps(40):
        rel = [float(abs(mpmath.mpf(v) / mpmath.e1(x) - 1)) for v, x in zip(_exp1(z).tolist(), z.tolist())]
    assert max(rel) < 2.4e-15
    assert _exp1(np.array([0.0]))[0] == np.inf


def test_lgamma_overflows_to_inf():
    # math.lgamma raises OverflowError above about 2.56e305; the batch keeps its finite neighbours
    assert _lgamma(1e306) == math.inf
    assert _lgamma(2.5e305) == math.lgamma(2.5e305)
    assert np.array_equal(_lgamma1p(np.array([1e306, 1.0, 2.0])), [math.inf, 0.0, math.lgamma(3.0)])


def test_crossing_raises_where_no_crossing_is_found():
    # a log-integrand that never reaches the level: 64 doublings of the step, then an error
    def flat(v):
        return np.zeros_like(v), np.zeros_like(v)

    with pytest.raises(ArithmeticError, match="no crossing"):
        _crossing(flat, np.array([0.0, 1.0]), np.array([1.0, -1.0]), 1.0, 1e-12)

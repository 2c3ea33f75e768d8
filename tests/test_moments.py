import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interevent as iv
from interevent import cli
from interevent.core import (
    _BLOCK,
    AsymptoticRangeWarning,
    DivergentMomentError,
    ModelDomainError,
    SeriesTruncationWarning,
)

# 30-digit quadrature of integral exp(-|y|^alpha + s*y) dy over the real line.
IQ_TABLE = [
    # (alpha, s, value)
    (1.5, 1.6, 5.2266888586337408919),
    (1.5, 1.5, 4.5368011524994032631),
    (1.5, 6.0, 456698490325796.93001),
    (2.0, 1.0, 2.2758757944687472355),
    (3.0, 2.5, 5.176315573847221575),
    (1.2, 0.6, 2.3582058468188912498),
]
# 30-digit depth-average moments for the stretched-exponential weight.
ST_MOM_TABLE = [
    # (q, alpha, sigma, tau0, beta, mu, value)
    (0.5, 1.5, 1.0, 1.0, 0.8, 0.0, 0.94057987576625091244),
    (2.0, 1.5, 1.0, 1.0, 0.8, 0.0, 5.789771377869508734),
    (3.0, 1.5, 1.0, 1.0, 0.8, 0.0, 92.513607591332494376),
    (1.3, 1.2, 1.0, 1.7, 0.45, 0.3, 3.4335188735151129495),
]


def _stretched(alpha, sigma, tau0, beta, mu=0.0):
    return iv.ModelParams(weight=iv.StretchedExp(mu=mu, sigma=sigma, alpha=alpha), tau0=tau0, beta=beta)


def test_delta_moment_closed_form():
    p = iv.ModelParams(weight=iv.Delta(mu=0.4), tau0=1.5, beta=1.2)
    tau = 1.5 * math.exp(1.2 * 0.4)
    for q in (0.5, 1.0, 2.7):
        assert iv.moment(q, p) == pytest.approx(math.gamma(1 + q) * tau**q, rel=1e-13)


def test_uniform_moment_closed_form():
    p = iv.ModelParams(weight=iv.Uniform(half_width=2.0), tau0=1.0, beta=1.0)
    for q in (0.5, 1.0, 3.0):
        expected = math.gamma(1 + q) * math.sinh(q * 2.0) / (q * 2.0)
        assert iv.moment(q, p) == pytest.approx(expected, rel=1e-13)


def test_uniform_moment_small_width_continuity():
    t = 1.3
    lo = iv.moment(t, iv.ModelParams(weight=iv.Uniform(half_width=0.99e-4), tau0=1.0, beta=1.0))
    hi = iv.moment(t, iv.ModelParams(weight=iv.Uniform(half_width=1.01e-4), tau0=1.0, beta=1.0))
    assert lo == pytest.approx(hi, rel=1e-9)
    tiny = iv.moment(t, iv.ModelParams(weight=iv.Uniform(half_width=1e-12), tau0=1.0, beta=1.0))
    assert tiny == pytest.approx(math.gamma(1 + t), rel=1e-12)


def test_laplace_moment_and_divergence():
    p = iv.ModelParams(weight=iv.Laplace(sigma=0.5), tau0=1.0, beta=1.0)
    for q in (0.3, 1.0, 1.9):
        expected = math.gamma(1 + q) / (1.0 - (q * 0.5) ** 2)
        assert iv.moment(q, p) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(DivergentMomentError):
        iv.moment(2.0, p)
    # the two-sided pole also bites for negative orders
    pw = iv.ModelParams(weight=iv.Laplace(sigma=1.2), tau0=1.0, beta=1.0)
    with pytest.raises(DivergentMomentError):
        iv.moment(-0.9, pw)


def test_order_domain():
    p = iv.ModelParams(weight=iv.Delta(), tau0=1.0, beta=1.0)
    with pytest.raises(DivergentMomentError):
        iv.moment(-1.0, p)
    with pytest.raises(DivergentMomentError):
        iv.moment(-1.5, p)
    # fractional negative orders above -1 are fine
    assert iv.moment(-0.5, p) == pytest.approx(math.gamma(0.5), rel=1e-13)


@pytest.mark.parametrize("alpha,s,expected", IQ_TABLE)
def test_iq_quadrature_reference(alpha, s, expected):
    # I depends on (alpha, q*beta*sigma); pick q = 2 so beta*sigma = s/2
    got = iv.iq_quadrature(2.0, alpha, s / 2.0)
    assert got == pytest.approx(expected, rel=1e-10)


def test_iq_quadrature_symmetry_and_domain():
    assert iv.iq_quadrature(1.5, 1.5, 0.8) == pytest.approx(
        iv.iq_quadrature(-0.9, 1.5, 0.8 * 1.5 / 0.9), rel=1e-9
    )
    with pytest.raises(DivergentMomentError):
        iv.iq_quadrature(2.0, 1.0, 0.5)
    with pytest.raises(DivergentMomentError):
        iv.iq_quadrature(2.0, 0.8, 0.5)


@pytest.mark.parametrize("q,alpha,sb,expected", [
    # the kink of |y|^alpha at y = 0 lies next to the peak; 40-digit references
    (0.85353947478347, 1.6688038494677864, 0.3486631213430236, 1.837044380762189244104979),
    (2.0, 1.6, 0.63, 3.117730500100833722128451),
])
def test_iq_quadrature_kink_near_peak(q, alpha, sb, expected):
    assert iv.iq_quadrature(q, alpha, sb) == pytest.approx(expected, rel=1e-10)


def test_log_iq_quadrature_value_does_not_depend_on_its_batch():
    # one grid of orders over three quadrature blocks, the same grid shuffled, and single orders
    q = np.linspace(-0.9, 20.0, 2 * _BLOCK + 37)
    whole = iv.log_iq_quadrature(q, 1.5, 1.0)
    assert whole.shape == q.shape
    order = np.random.default_rng(0).permutation(q.size)
    np.testing.assert_allclose(iv.log_iq_quadrature(q[order], 1.5, 1.0), whole[order],
                               rtol=1e-14, atol=0.0)
    for i in (0, _BLOCK - 1, _BLOCK, q.size - 1):
        assert iv.log_iq_quadrature(float(q[i]), 1.5, 1.0) == pytest.approx(whole[i], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("q,alpha,sigma,tau0,beta,mu,expected", ST_MOM_TABLE)
def test_stretched_series_reference(q, alpha, sigma, tau0, beta, mu, expected):
    p = _stretched(alpha, sigma, tau0, beta, mu)
    res = iv.moment_stretched_series(q, p)
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-11)
    log_norm, _ = iv.moments._series_log_norm_moment(q, p)
    assert log_norm == pytest.approx(math.log(expected) - math.lgamma(1 + q), rel=1e-11)


def test_model_curve_finite_on_default_grid_near_alpha_one():
    # alpha = 1.1 puts the peak of I(q) near y = 4e12 at q = 20
    curve = iv.model_curve(iv.DEFAULT_Q_GRID, _stretched(1.1, 1.0, 1.0, 1.0))
    assert np.all(np.isfinite(curve.log_norm_moment))


def test_log_iq_quadrature_far_peak_reference():
    # 40-digit mpmath over +-12 widths of the peak at y ~ 1.2e8; the saddle point,
    # whose correction is 1 - 3.8e-11 here, agrees to 4e-15
    got = iv.log_iq_quadrature(16.63115577889447, 1.2, 3.0)
    assert got == pytest.approx(1033248159.562462675872151, rel=1e-12)


@pytest.mark.parametrize("q,alpha,sigma,tau0,beta,mu,expected", ST_MOM_TABLE)
def test_dispatcher_matches_reference(q, alpha, sigma, tau0, beta, mu, expected):
    p = _stretched(alpha, sigma, tau0, beta, mu)
    log_norm = iv.log_norm_moment(q, p)
    assert log_norm == pytest.approx(math.log(expected) - math.lgamma(1 + q), rel=1e-9, abs=1e-11)
    assert iv.moment(q, p) == pytest.approx(expected, rel=1e-9)


def test_series_truncation_warning(monkeypatch):
    # a budget cut to a handful of terms fails the tail bound: flagged, warned at the caller
    monkeypatch.setattr(iv.moments, "_SERIES_WIDTHS", 0.0)
    monkeypatch.setattr(iv.moments, "_SERIES_FALL", 1.0)
    p = _stretched(1.5, 1.0, 1.0, 0.8)
    with pytest.warns(SeriesTruncationWarning) as caught:
        res = iv.moment_stretched_series(3.0, p)
    assert not res.converged
    assert res.terms_used == 5
    assert caught[0].filename == __file__


def test_series_raises_past_its_term_cap():
    # alpha = 1.2 puts the largest term near n = 1.3e7 at q = 20: no partial sum comes back
    p = _stretched(1.2, 1.0, 1.0, 1.0)
    with pytest.raises(ModelDomainError, match="q = 20"):
        iv.moment_stretched_series(20.0, p)
    with pytest.raises(ModelDomainError):
        iv.moments._series_log_norm_moment(20.0, p)


def _series_fields(res):
    return [np.ravel(getattr(res, f)).tolist() for f in ("value", "log_value", "terms_used", "converged")]


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.5])
def test_series_gives_the_same_bits_from_a_cold_or_warm_read_only_table(alpha):
    # the orders need 1 to 31,496 terms (alpha = 1.2 at q = 9), so they read several table sizes
    p = _stretched(alpha, 1.0, 1.3, 0.8, mu=0.2)
    q = [x for x in (0.0, 0.3, -0.5, 1.0, 2.5, 5.0, 9.0, 20.0)
         if iv.moments._series_budget(x * 0.8, alpha) <= iv.moments._SERIES_MAX_TERMS]
    iv.moments._series_free.cache_clear()
    cold = [_series_fields(iv.moment_stretched_series(x, p)) for x in q]
    assert iv.moments._series_free.cache_info().currsize >= 5
    grid = _series_fields(iv.moment_stretched_series(np.array(q), p))
    warm = [_series_fields(iv.moment_stretched_series(x, p)) for x in q]
    assert warm == cold
    assert grid == [sum(by_field, []) for by_field in zip(*cold)]
    # every caller shares a table, so none may write to it
    with pytest.raises(ValueError, match="read-only"):
        iv.moments._series_free(alpha, 8)[0] = 0.0


def test_series_cap_builds_no_table_past_it(monkeypatch):
    built = []
    table = iv.moments._series_free
    monkeypatch.setattr(iv.moments, "_series_free", lambda a, size: built.append(size) or table(a, size))
    p = _stretched(1.2, 1.0, 1.0, 1.0)
    # q = 8.2 needs about 66,000 terms: the call raises before it builds any table
    with pytest.raises(ModelDomainError, match=r"q = 8\.2 needs about"):
        iv.moment_stretched_series(np.array([1.0, 8.2]), p)
    assert built == []
    # q = 8 needs 57,470 terms, within the cap of 2**16 + 1: one table, of the next power of 2
    assert iv.moment_stretched_series(8.0, p).terms_used == 57470
    assert built == [2**16]


@pytest.mark.parametrize("sigma", [0.9, 1.1, 2.0])
def test_series_converges_on_default_grid(sigma):
    # ln I(q) = ln(2/alpha) + ln sum_n T_n; at sigma = 2, q = 20 the sum takes about 16,000 terms
    alpha = 1.5
    p = _stretched(alpha, sigma, 1.0, 1.0)
    q = iv.DEFAULT_Q_GRID
    with warnings.catch_warnings():
        warnings.simplefilter("error", SeriesTruncationWarning)
        res = iv.moment_stretched_series(q, p)
    assert res.converged.all()
    log_gamma = np.array([math.lgamma(1.0 + x) for x in q.tolist()])
    got = res.log_value - log_gamma + math.lgamma(1.0 / alpha) + math.log(2.0 / alpha)
    assert got == pytest.approx(iv.log_iq_quadrature(q, alpha, sigma), rel=1e-11)


def test_series_log_norm_moment_finite_past_overflow():
    # at q = 9 the moment overflows a float (value inf) but its log is ~866
    p = _stretched(1.5, 2.0, 1.0, 1.0)
    res = iv.moment_stretched_series(9.0, p)
    assert res.value == math.inf and res.converged
    got, _ = iv.moments._series_log_norm_moment(9.0, p)
    assert got == pytest.approx(iv.log_norm_moment(9.0, p), rel=1e-9)
    assert res.log_value == pytest.approx(got + math.lgamma(10.0), rel=1e-15)


def test_series_rejects_heavy_alpha():
    with pytest.raises(DivergentMomentError):
        iv.moment_stretched_series(1.0, _stretched(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(DivergentMomentError):
        iv.moment(1.0, _stretched(0.9, 1.0, 1.0, 1.0))


def test_gaussian_closed_form():
    p = _stretched(2.0, 1.0, 1.3, 0.5, mu=0.25)
    for q in (0.5, 1.0, 2.0):
        expected = (
            math.gamma(1 + q)
            * (1.3**q)
            * math.exp(q * 0.5 * 0.25)
            * math.exp((q * 0.5) ** 2 / 4.0)
        )
        assert iv.moment(q, p) == pytest.approx(expected, rel=1e-13)


def test_saddlepoint_fields_and_gaussian_exactness():
    sp = iv.saddlepoint_iq(2.0, 1.5, 0.8)
    assert sp.lam == pytest.approx(0.8**3, rel=1e-14)
    assert sp.value == pytest.approx(sp.prefactor * math.exp(sp.exponent_coeff * 2.0 ** 3.0), rel=1e-12)
    assert sp.log_value == pytest.approx(math.log(sp.value), rel=1e-15)
    # at q = 200 the exponent is about 6.1e5: I(q) overflows a float, its log does not
    far = iv.saddlepoint_iq(200.0, 1.5, 0.8)
    assert far.value == math.inf
    assert far.log_value == pytest.approx(math.log(far.prefactor) + far.exponent_coeff * 200.0**3, rel=1e-15)

    sp2 = iv.saddlepoint_iq(1.7, 2.0, 0.9)
    assert sp2.value == pytest.approx(math.sqrt(math.pi) * math.exp((1.7 * 0.9) ** 2 / 4), rel=1e-13)
    assert sp2.prefactor == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    with pytest.raises(ModelDomainError):
        iv.saddlepoint_iq(0.0, 1.5, 0.8)


def _leading_order_prefactor(q, alpha, lam):
    h2 = alpha * (alpha - 1.0) * (abs(q) / alpha) ** ((alpha - 2.0) / (alpha - 1.0))
    return lam ** (1.0 / alpha) * math.sqrt(2.0 * math.pi / (lam * h2))


def test_saddlepoint_next_order_factor_applied():
    # alpha = 1.5: K = -1/18 and lam*(q/alpha)^3 = 27/27 = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", AsymptoticRangeWarning)
        sp = iv.saddlepoint_iq(0.5, 1.5, 3.0)
    assert sp.lam == pytest.approx(27.0, rel=1e-14)
    assert sp.correction == pytest.approx(1.0 - 1.0 / 18.0, rel=1e-13)
    assert sp.prefactor == pytest.approx(sp.correction * _leading_order_prefactor(0.5, 1.5, sp.lam), rel=1e-13)
    assert sp.value == pytest.approx(sp.prefactor * math.exp(sp.exponent_coeff * 0.5 ** 3.0), rel=1e-12)
    assert sp.leading is False

    for q in (-2.5, 0.3, 1.7):
        assert iv.saddlepoint_iq(q, 2.0, 0.9).correction == 1.0


def test_saddlepoint_guard_keeps_leading_order():
    # lam = 0.027: the next-order factor 1 - (1/18)/(lam*(0.3/1.5)^3) is about -256
    with pytest.warns(AsymptoticRangeWarning, match="leading order"):
        sp = iv.saddlepoint_iq(0.3, 1.5, 0.3)
    assert sp.correction == pytest.approx(1.0 - 1.0 / (18.0 * 0.027 * 0.2 ** 3), rel=1e-12)
    assert sp.leading is True
    lead = _leading_order_prefactor(0.3, 1.5, sp.lam)
    assert sp.prefactor == pytest.approx(lead, rel=1e-13)
    assert sp.value == pytest.approx(lead * math.exp(sp.exponent_coeff * 0.3 ** 3.0), rel=1e-12)


def test_saddlepoint_prefactor_positive_on_default_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoticRangeWarning)
        for alpha in (1.2, 1.5, 2.5, 4.0):
            for sb in (0.3, 1.0, 3.0):
                sp = iv.saddlepoint_iq(iv.DEFAULT_Q_GRID[1:], alpha, sb)
                assert np.all(np.isfinite(sp.prefactor) & (sp.prefactor > 0)), (alpha, sb)


def test_cli_saddle_notes_leading_order_points(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = cli.run(["moments", "--model", "saddle", "--sigma", "1.5", "--alpha", "1.5",
                    "--qmax", "2", "--qstep", "0.1", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    # lam = 3.375: the factor is out of range for q <= 0.4
    assert "note: saddle point kept leading order at 4 order(s)" in err


_GRID_2D = np.array([[-0.5, 0.1, 0.7], [2.0, 9.5, 20.0]])
_ROUTES = {
    "series": lambda q: iv.moment_stretched_series(q, _stretched(1.5, 1.0, 1.3, 0.8, mu=0.2)),
    "saddle": lambda q: iv.saddlepoint_iq(q, 1.5, 1.2),
    "log_norm_moment-hmf": lambda q: iv.log_norm_moment(q, iv.HMFParams(alpha=1.8, c0=-0.3, b=0.6, b1=0.25)),
    "moment-mf": lambda q: iv.moment(q, iv.MFParams(alpha=1.8, c0=-0.3, b=0.6)),
}


def _by_field(result):
    # a result dataclass as {field: value}, a bare value as {"": value}
    if dataclasses.is_dataclass(result):
        return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return {"": result}


@pytest.mark.parametrize("route", list(_ROUTES))
def test_moment_route_grid_equals_its_per_order_calls(route):
    call = _ROUTES[route]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoticRangeWarning)
        singles = [_by_field(call(q)) for q in _GRID_2D.ravel().tolist()]
        for grid in (_GRID_2D.ravel(), _GRID_2D):
            for name, got in _by_field(call(grid)).items():
                want = [single[name] for single in singles]
                if name in ("lam", "exponent_coeff"):  # fixed by alpha and beta*sigma alone
                    assert {got} == set(want), name
                    continue
                assert got.shape == grid.shape, name
                assert got.ravel().tolist() == want, name
    # a scalar order is a batch of one, handed back as Python scalars
    for single in singles:
        for name, value in single.items():
            assert type(value) is {"terms_used": int, "converged": bool, "leading": bool}.get(
                name, float), name


@pytest.mark.parametrize("route", list(_ROUTES))
def test_moment_route_takes_an_empty_grid(route):
    for name, got in _by_field(_ROUTES[route](np.empty((0, 3)))).items():
        if name not in ("lam", "exponent_coeff"):
            assert got.shape == (0, 3), name


def test_moment_routes_raise_at_their_first_bad_order():
    p = _stretched(1.2, 1.0, 1.0, 1.0)  # the series needs more terms than its cap from q of about 8.2
    with pytest.raises(ModelDomainError, match=r"at q = 9\.0 needs about"):
        iv.moment_stretched_series(np.array([1.0, 9.0, 20.0]), p)
    with pytest.raises(DivergentMomentError, match=r"got q = -2\.0"):
        iv.moment_stretched_series(np.array([1.0, -2.0, 20.0]), p)
    with pytest.raises(ModelDomainError, match="degenerates at q = 0"):
        iv.saddlepoint_iq(np.array([1.0, 0.0, np.inf]), 1.5, 1.0)
    with pytest.raises(ModelDomainError, match="q must be finite"):
        iv.saddlepoint_iq(np.array([[1.0, np.nan], [0.0, 2.0]]), 1.5, 1.0)
    with pytest.raises(DivergentMomentError, match=r"got q = -1\.0"):
        iv.log_norm_moment(np.array([0.5, -1.0]), iv.MFParams(alpha=1.8, c0=0.0, b=0.6))


@pytest.mark.parametrize("q, below, alpha", [(2000.0, 1000.0, 1.01), (2e103, 1e102, 1.5)])
def test_saddle_raises_where_its_powers_leave_the_float_range(q, below, alpha):
    # a power in ln I(q) overflows a float at q, and raises rather than warn; at `below` none does
    with pytest.raises(ModelDomainError, match=re.escape(f"q = {q}, lam = 1 leaves the float range")):
        iv.saddlepoint_iq(q, alpha, 1.0)
    with pytest.raises(ModelDomainError, match=re.escape(f"q = {q},")):
        iv.saddlepoint_iq(np.array([below, q, 2.0 * q]), alpha, 1.0)
    assert math.isfinite(iv.saddlepoint_iq(below, alpha, 1.0).log_value)


def test_saddle_returns_where_only_the_leading_power_overflows():
    # |q|**gamma overflows from about 5.6e102 (alpha 1.5) and 1127 (alpha 1.01), before ln I(q)
    # and every returned power do; ln I(q) overflows, and the order raises, from about 1.07e103
    # and 1192 (test above).  The orders where the power does not overflow keep their bits.
    for q, alpha in ((7e102, 1.5), (1130.0, 1.01)):
        sp = iv.saddlepoint_iq(np.array([2.0, q]), alpha, 1.0)
        assert all(math.isfinite(v[1]) for v in (sp.log_value, sp.x0, sp.h_x0, sp.h2_x0))
        # lam = 1: ln I = (alpha - 1) |x0|**alpha + ln prefactor = -h_x0 + ln prefactor
        assert sp.log_value[1] == -sp.h_x0[1] + math.log(sp.prefactor[1])
        assert sp.log_value[0] == iv.saddlepoint_iq(2.0, alpha, 1.0).log_value
    # gamma = 3: the exponent (alpha - 1)/alpha**3 q**3 in exact arithmetic
    exponent = Fraction(1, 2) / Fraction(27, 8) * Fraction(7e102) ** 3
    sp = iv.saddlepoint_iq(7e102, 1.5, 1.0)
    assert sp.log_value - math.log(sp.prefactor) == pytest.approx(float(exponent), rel=1e-15)


@pytest.mark.parametrize("alpha, band", [(1.5, [8.6e102, 9.5e102, 1e103, 1.06e103]),
                                          (1.01, [1139.0, 1150.0, 1191.0])])
def test_saddle_returns_where_only_r_to_the_gamma_overflows(alpha, band):
    # |x0|**alpha = r**gamma overflows from 8.5e102 (alpha 1.5) and 1139 (alpha 1.01), while
    # h_x0 = -(alpha - 1) |x0|**alpha and ln I(q) are floats until 1.07e103 and 1192
    sp = iv.saddlepoint_iq(np.array(band), alpha, 1.0)
    assert np.isfinite(sp.log_value).all() and np.isfinite(sp.h_x0).all()
    # lam = 1: ln I = (alpha - 1) |x0|**alpha + ln prefactor = -h_x0 + ln prefactor
    assert (sp.log_value == -sp.h_x0 + np.log(sp.prefactor)).all()
    assert (sp.correction == 1.0).all()


def test_saddle_array_call_counts_its_leading_order_points():
    # lam = 3.375: the next-order factor is out of range for q <= 0.4, as the CLI note counts
    q = np.round(np.arange(1, 21) * 0.1, 12)
    with pytest.warns(AsymptoticRangeWarning, match=r"q = 0\.1, .* at 4 order\(s\)") as caught:
        sp = iv.saddlepoint_iq(q, 1.5, 1.5)
    assert len(caught) == 1
    assert np.flatnonzero(sp.leading).tolist() == [0, 1, 2, 3]
    assert (sp.leading == (np.abs(sp.correction - 1.0) > iv.moments.SADDLE_CORRECTION_BOUND)).all()


def test_mf_and_hmf_formulas():
    p = iv.MFParams(alpha=1.8, c0=-1.0, b=0.6)
    q = 2.3
    expected = math.lgamma(1 + q) + q * (-1.0) + 0.6 * q ** (1.8 / 0.8)
    assert math.log(iv.moment(q, p)) == pytest.approx(expected, rel=1e-12)

    h = iv.HMFParams(alpha=1.8, c0=-1.0, b=0.6, b1=0.25)
    phi = h.exponent(q)
    assert phi == pytest.approx((1.0 / 0.25) * (1.0 - math.exp(-0.25 * q ** (1 / 0.8))) * q, rel=1e-12)
    assert iv.log_norm_moment(q, h) + math.lgamma(1 + q) == pytest.approx(
        math.lgamma(1 + q) - q + 0.6 * phi, rel=1e-12)


def test_hmf_reduces_to_mf_for_small_saturation():
    q = np.linspace(0.1, 5.0, 25)
    mf = iv.model_curve(q, iv.MFParams(alpha=1.7, c0=0.3, b=0.5))
    hmf = iv.model_curve(q, iv.HMFParams(alpha=1.7, c0=0.3, b=0.5, b1=1e-9))
    assert np.allclose(mf.log_norm_moment, hmf.log_norm_moment, rtol=0, atol=1e-6)


def test_hmf_saturates_to_linear_growth():
    # for large q the exponent phi(q) approaches q / b1
    h = iv.HMFParams(alpha=1.91, c0=-3.0, b=2.5, b1=0.33)
    assert h.exponent(1e6) == pytest.approx(1e6 / 0.33, rel=1e-6)


def test_fluctuation_scale_relation():
    # scales().b equals beta times the depth-scale relation
    sigma, alpha, beta = 1.0, 1.5, 0.8
    p = _stretched(alpha, sigma, 1.0, beta)
    s = iv.scales(p)
    assert s.b == pytest.approx(beta * iv.fd_relation(sigma, alpha, beta), rel=1e-12)
    assert s.l == pytest.approx(math.exp(beta * 0.0), rel=1e-14)
    assert s.L == pytest.approx(math.exp(s.b), rel=1e-13)
    assert s.lam == pytest.approx((beta * sigma) ** (alpha / (alpha - 1.0)), rel=1e-13)


def test_curve_builders_pin_zero():
    q = np.array([0.0, 0.5, 1.0])
    p = iv.ModelParams(weight=iv.Laplace(sigma=0.5), tau0=2.0, beta=1.0)
    c = iv.model_curve(q, p)
    assert c.log_norm_moment[0] == 0.0
    assert c.log_norm_moment[1] == pytest.approx(
        0.5 * math.log(2.0) - math.log(1 - 0.0625), rel=1e-12
    )
    mf = iv.model_curve(q, iv.MFParams(alpha=2.0, c0=0.0, b=0.25))
    assert mf.log_norm_moment[0] == 0.0
    mono = iv.model_curve(q, iv.ModelParams(iv.Delta(mu=1.7)))
    assert mono.log_norm_moment[2] == pytest.approx(1.7)


@given(
    q=st.floats(0.05, 3.0),
    sb=st.floats(0.05, 0.6),
    alpha=st.floats(1.2, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_series_vs_quadrature_property(q, sb, alpha):
    p = _stretched(alpha, sb, 1.0, 1.0)
    ser = iv.moment_stretched_series(q, p)
    assert ser.converged
    via_quad = (
        math.gamma(1 + q) * iv.iq_quadrature(q, alpha, sb) / (2.0 * math.gamma(1 + 1 / alpha))
    )
    assert ser.value == pytest.approx(via_quad, rel=1e-7)


def test_log_norm_moment_zero_order_is_exact_zero():
    for p in (
        iv.ModelParams(weight=iv.Delta(mu=0.3), tau0=1.5, beta=1.0),
        iv.ModelParams(weight=iv.Uniform(half_width=1.0), tau0=1.0, beta=1.0),
        iv.ModelParams(weight=iv.Laplace(sigma=0.5), tau0=1.0, beta=1.0),
        _stretched(1.5, 1.0, 1.0, 0.8),
    ):
        assert iv.log_norm_moment(0.0, p) == 0.0


ONE_PATH = {
    "delta": iv.ModelParams(weight=iv.Delta(mu=0.3), tau0=1.5, beta=1.0),
    "uniform": iv.ModelParams(weight=iv.Uniform(half_width=1.0), tau0=1.0, beta=1.2),
    "uniform_narrow": iv.ModelParams(weight=iv.Uniform(half_width=2e-4)),
    "laplace": iv.ModelParams(weight=iv.Laplace(sigma=0.25), tau0=0.7, beta=1.0),
    "stretched": _stretched(1.5, 1.0, 1.0, 0.8),
    "gaussian": _stretched(2.0, 0.9, 1.2, 1.0, mu=0.1),
}


@pytest.mark.parametrize("p", ONE_PATH.values(), ids=ONE_PATH.keys())
def test_moment_entry_points_on_a_grid_equal_their_scalar_calls(p):
    q = np.array([[0.0, 0.4, 1.0], [2.5, -0.5, 3.0]])
    for fn in (iv.moment, iv.log_norm_moment):
        whole = fn(q, p)
        assert whole.shape == q.shape
        single = [fn(x, p) for x in q.ravel().tolist()]
        assert all(type(v) is float for v in single)
        assert whole.tobytes() == np.array(single).reshape(q.shape).tobytes()
        assert fn(q[0], p).tobytes() == whole[0].tobytes()
    assert iv.model_curve(q[0], p).log_norm_moment.tobytes() == iv.log_norm_moment(q[0], p).tobytes()


_LAWS = {"mf": iv.MFParams(alpha=1.8, c0=-0.3, b=0.6),
         "hmf": iv.HMFParams(alpha=1.91, c0=-3.0, b=2.5, b1=0.33)}


@pytest.mark.parametrize("law", _LAWS.values(), ids=_LAWS.keys())
def test_a_moment_law_takes_the_one_path_bit_for_bit(law):
    # the curve is the law's own log_norm_moment, and the moment Gamma(1+q) exp of it
    for q in (iv.DEFAULT_Q_GRID, np.array([-0.9, -0.5, -1e-3, 0.0, 0.7, 3.0]), np.array([0.0])):
        assert iv.model_curve(q, law).log_norm_moment.tobytes() == law.log_norm_moment(q).tobytes()
        log_gamma = np.array([math.lgamma(1.0 + x) for x in q.tolist()])
        assert iv.moment(q, law).tobytes() == np.exp(log_gamma + law.log_norm_moment(q)).tobytes()
    assert iv.moment(0.0, law) == 1.0 and iv.log_norm_moment(0.0, law) == 0.0


@pytest.mark.parametrize("ln_tau", [1.7, -2.3, 0.0, -0.0])
def test_delta_weight_curve_is_the_monofractal_line(ln_tau):
    # q ln(tau) as floats, and bit for bit where it is not zero; q = 0 gives +0.0 for any ln(tau)
    q = np.r_[-0.5, iv.DEFAULT_Q_GRID]
    got = iv.model_curve(q, iv.ModelParams(iv.Delta(mu=ln_tau))).log_norm_moment
    line = q * ln_tau
    assert got.tolist() == line.tolist()
    assert got[line != 0.0].tobytes() == line[line != 0.0].tobytes()
    assert got[q == 0.0].tobytes() == np.zeros(1).tobytes()


def test_iq_quadrature_on_a_grid_equals_its_scalar_calls():
    # ln I(7) at beta*sigma = 3 is about 1370, past the float range: I is inf there, with no warning
    q = np.array([[0.0, -0.5, 2.0], [4.0, 5.0, 7.0]])
    whole = iv.iq_quadrature(q, 1.5, 3.0)
    assert whole.shape == q.shape
    single = [iv.iq_quadrature(x, 1.5, 3.0) for x in q.ravel().tolist()]
    assert all(type(v) is float for v in single)
    assert whole.tobytes() == np.array(single).reshape(q.shape).tobytes()
    assert whole[1, 2] == math.inf and math.isfinite(whole[1, 1])


@pytest.mark.parametrize("p", [ONE_PATH["delta"], iv.MFParams(alpha=1.8, c0=0.0, b=0.6)],
                         ids=["delta", "mf"])
@pytest.mark.parametrize("fn", [iv.moment, iv.log_norm_moment, iv.model_curve])
def test_order_grid_error_names_its_first_bad_order(fn, p):
    with pytest.raises(DivergentMomentError, match=r"got q = -3\.0\)"):
        fn(np.array([-3.0, -1.0, 0.5]), p)
    with pytest.raises(DivergentMomentError, match=r"got q = nan\)"):
        fn(np.array([0.5, np.nan]), p)


# 30-digit ln(sinh(x)/x) at x = q*half_width, where sinh(x)/x lies within 1e-8 to 0.05 of 1
@pytest.mark.parametrize("hw,q,expected", [
    (2e-4, 0.6, 2.399999998848000001053e-9),
    (2e-4, 2.5, 4.166666631944444995591e-8),
    (2e-4, 30.0, 0.000005999992800016457098423),
    (0.05, 1.0, 0.0004166319499548750984943),
    (0.05, 10.0, 0.04132485461291810897836),
])
def test_uniform_log_moment_keeps_its_digits_near_zero_reach(hw, q, expected):
    p = iv.ModelParams(weight=iv.Uniform(half_width=hw))
    assert iv.log_norm_moment(q, p) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_moment_of_an_mf_law_is_finite_up_to_the_float_range():
    # ln <t^q> = 709.5 here, and exp is finite up to about 709.78
    p = iv.MFParams(alpha=2.0, c0=0.0, b=1.0)
    q = 25.49303523102282
    assert iv.log_norm_moment(q, p) + math.lgamma(1 + q) == 709.5
    assert iv.moment(q, p) == math.exp(709.5)

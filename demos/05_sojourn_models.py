"""Survival-function shapes and what fits them.

The sojourn probability (chance that no event has happened by lag t)
of the mixture model is computed by numeric integration for a
stretched-exponential weight, checked against a direct Monte Carlo
estimate, and then fitted with two common empirical forms: a
q-exponential and a stretched exponential (Weibull survival).
"""
import numpy as np

import interevent as iv


def main():
    params = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=0.875, alpha=1.6), tau0=1.0, beta=1.0)
    t = np.geomspace(0.05, 500.0, 40)
    psi = iv.sojourn(t, params)

    series = iv.generate_series(iv.SimConfig(params=params, n_events=500_000, seed=5))
    mc = iv.empirical_sojourn(series, t)
    n = series.durations.size
    # binomial fluctuation scale under the model itself
    se = np.sqrt(psi * (1 - psi) / n)
    z = np.max(np.abs(psi - mc) / se)
    print(f"numeric sojourn vs 5*10^5-event Monte Carlo: worst |z| = {z:.2f} (binomial units)")

    keep = psi > 0
    qexp = iv.fit_sojourn(t[keep], psi[keep], iv.QExponential)
    weib = iv.fit_sojourn(t[keep], psi[keep], iv.Weibull)
    direct = iv.fit_sojourn(t[keep], psi[keep], iv.StretchedSojourn)
    print("q-exponential fit:   m = {:.4f}, q_ts = {:.4f}, residual = {:.2e}".format(
        qexp.estimate("m"), qexp.estimate("q_ts"), qexp.residual_norm))
    print("Weibull fit:         a = {:.4f}, c = {:.4f}, residual = {:.2e}".format(
        weib.estimate("a"), weib.estimate("c"), weib.residual_norm))
    print("native-model fit:    alpha = {:.4f}, b = {:.4f}, c0 = {:+.4f}, residual = {:.2e}".format(
        direct.estimate("alpha"), direct.estimate("b"), direct.estimate("c0"), direct.residual_norm))
    sc = iv.scales(params)
    print(f"truth for the native model: alpha = 1.6, b = {sc.b:.4f}, c0 = 0")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping figure")
        return
    fig, ax = plt.subplots(figsize=(6, 4.5))
    ax.loglog(t, psi, "k-", lw=1.5, label="numeric sojourn")
    ax.loglog(t, mc, "o", ms=3, mfc="none", label="Monte Carlo")
    ax.loglog(t, np.exp(iv.QExponential(qexp.estimate("m"), qexp.estimate("q_ts")).log_survival(t)),
              "--", lw=1, label="q-exponential fit")
    ax.loglog(t, np.exp(iv.Weibull(weib.estimate("a"), weib.estimate("c")).log_survival(t)),
              ":", lw=1.2, label="Weibull fit")
    ax.set_xlabel("t / tau0")
    ax.set_ylabel("sojourn probability")
    ax.set_ylim(1e-5, 1.5)
    ax.legend(frameon=False)
    fig.tight_layout()
    fig.savefig("demo_sojourn_models.png", dpi=150)
    print("wrote demo_sojourn_models.png")


if __name__ == "__main__":
    main()

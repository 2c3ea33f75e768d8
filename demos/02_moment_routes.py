"""Three routes to the normalized q-moments of a stretched-exponential weight.

The normalized moment integral has no closed form for general tail
exponent alpha, so the library offers a convergent series, a fixed
tanh-sinh quadrature, and a large-deviation saddle-point formula.  The saddle
point is an asymptotic statement: its relative error decays as the
dimensionless scale lam = (beta*sigma)^(alpha/(alpha-1)) grows.
"""
import math

import numpy as np

import interevent as iv

ALPHA = 1.5


def main():
    # the raw moment and the reduced integral differ by Gamma(1+q) / (2 Gamma(1+1/alpha))
    print("series vs quadrature at beta*sigma = 1.2, alpha = 1.5")
    params = iv.ModelParams(weight=iv.StretchedExp(mu=0.0, sigma=1.2, alpha=ALPHA), tau0=1.0, beta=1.0)
    norm = 2.0 * math.gamma(1.0 + 1.0 / ALPHA)
    for q in (0.5, 1.0, 2.0, 3.0):
        series = iv.moment_stretched_series(q, params)
        quad = math.gamma(1.0 + q) * iv.iq_quadrature(q, ALPHA, 1.2) / norm
        print(f"  q = {q:3.1f}  series = {series.value:.12e}  ({series.terms_used:3d} terms)"
              f"  quadrature = {quad:.12e}  rel diff = {abs(series.value / quad - 1):.2e}")

    print()
    print("saddle-point error at q = 2 as the scale parameter grows")
    rows = []
    for beta_sigma in (1.7, 2.15, 3.0, 4.64):
        lam = beta_sigma ** (ALPHA / (ALPHA - 1.0))
        exact = iv.iq_quadrature(2.0, ALPHA, beta_sigma)
        sp = iv.saddlepoint_iq(2.0, ALPHA, beta_sigma)
        err = abs(sp.value / exact - 1.0)
        rows.append((lam, err))
        print(f"  lam = {lam:8.2f}  exact = {exact:.6e}  saddle = {sp.value:.6e}  rel err = {err:.3e}")
    errs = [e for _, e in rows]
    assert all(a >= b for a, b in zip(errs, errs[1:])), "saddle error should shrink with lam"
    print("  error is monotone in lam, as the asymptotics promise")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping figure")
        return
    q = np.linspace(0.1, 5.0, 60)
    beta_sigma = 3.0
    exact = iv.iq_quadrature(q, ALPHA, beta_sigma)
    sp = np.array([iv.saddlepoint_iq(qi, ALPHA, beta_sigma).value for qi in q])
    fig, ax = plt.subplots(figsize=(6, 4.5))
    ax.semilogy(q, exact, label="quadrature")
    ax.semilogy(q, sp, "--", label="saddle point")
    ax.set_xlabel("q")
    ax.set_ylabel("normalized moment integral")
    ax.set_title(f"alpha = {ALPHA}, beta*sigma = {beta_sigma}")
    ax.legend(frameon=False)
    fig.tight_layout()
    fig.savefig("demo_moment_routes.png", dpi=150)
    print("wrote demo_moment_routes.png")


if __name__ == "__main__":
    main()

"""Data collapse: six different moment curves, one universal function.

Each parameter set below describes a saturating ("higher multifractal")
moment law with its own scale and saturation level.  The collapse
transform strips the dataset-specific constants; what remains is the
same function 1 - exp(-x) for every set.  A second diagnostic maps the
moment order q of one dataset onto the q-axis of a reference dataset.
"""
import numpy as np

import interevent as iv

PARAM_SETS = {
    "dax":   iv.HMFParams(alpha=1.91, c0=-3.0, b=2.5, b1=0.33),
    "tef":   iv.HMFParams(alpha=1.78, c0=0.1, b=1.07, b1=0.20),
    "dji":   iv.HMFParams(alpha=1.60, c0=0.18, b=0.29, b1=0.091),
    "wig20": iv.HMFParams(alpha=1.96, c0=0.5, b=3.3, b1=0.50),
    "usdm":  iv.HMFParams(alpha=1.69, c0=2.97, b=0.26, b1=0.115),
    "eurus": iv.HMFParams(alpha=2.21, c0=-9.5, b=11.7, b1=0.71),
}


def main():
    q = np.round(np.arange(1, 201) * 0.1, 12)
    print(f"{'set':8s}{'alpha':>7s}{'c0':>8s}{'b':>7s}{'b1':>8s}   max |collapse - (1-e^-x)|")
    collapsed = {}
    for name, p in PARAM_SETS.items():
        curve = iv.model_curve(q, p)
        x = p.b1 * q ** (1.0 / (p.alpha - 1.0))
        y = iv.hmf_collapse(curve, p)
        gap = np.max(np.abs(y - (1.0 - np.exp(-x))))
        collapsed[name] = (x, y)
        print(f"{name:8s}{p.alpha:7.2f}{p.c0:8.2f}{p.b:7.2f}{p.b1:8.3f}   {gap:.3e}")

    ref = PARAM_SETS["dji"]
    print()
    print("q-axis mapping onto the dji reference (moment value preserved):")
    for name, p in PARAM_SETS.items():
        q_ref = iv.scale_q(np.array([5.0]), p, ref)[0]
        # the mapped order reproduces the same saturation argument
        mapped = ref.b1 * q_ref ** (1.0 / (ref.alpha - 1.0))
        print(f"  {name:8s} q = 5.0 -> q_ref = {q_ref:8.3f}   saturation arg {p.b1 * 5.0 ** (1 / (p.alpha - 1)):.4f} == {mapped:.4f}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping figure")
        return
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4.2))
    for name, p in PARAM_SETS.items():
        ax1.plot(q, iv.model_curve(q, p).log_norm_moment, lw=1, label=name)
        x, y = collapsed[name]
        ax2.plot(x, y, lw=1, label=name)
    xs = np.linspace(0, 4, 200)
    ax2.plot(xs, 1 - np.exp(-xs), "k--", lw=1, label="1 - exp(-x)")
    ax1.set_xlabel("q")
    ax1.set_ylabel("log normalized q-moment")
    ax1.set_title("raw curves")
    ax2.set_xlabel("x")
    ax2.set_ylabel("collapsed value")
    ax2.set_title("after collapse")
    ax2.set_xlim(0, 4)
    ax2.legend(frameon=False, fontsize=8)
    fig.tight_layout()
    fig.savefig("demo_data_collapse.png", dpi=150)
    print("wrote demo_data_collapse.png")


if __name__ == "__main__":
    main()

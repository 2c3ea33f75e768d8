"""Correctness references that do not reuse the package's own numerics.

Each helper recomputes a quantity from its definition: q-moments by an
exactly rounded sum, densities and survival functions by mpmath quadrature
of the mixing integral, survival estimates by direct counting.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# sha256 of the `simulate` CSV for the stretched weight (alpha 1.5, sigma 1,
# tau0 1, beta 1), keyed by (events, seed); frozen when the benchmark was added.
FROZEN_SIMULATE_SHA256 = {
    (200_000, 1): "2374c0874a9dde12d9e2822bd72e1bd5433959c8f36c17633e7a734b70615f23",
    (20_000, 1): "0aaf090d24ae131c747aa33837ec3aebe2b9a74a9bcbbcaf42437d5abfcf4014",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_column_csv(data: bytes, header: str) -> np.ndarray:
    """Values of a one-column CSV, parsed with Python's exactly rounded ``float``."""
    lines = data.decode().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return np.array([float(x) for x in lines[1:]])


def parse_table_csv(data: bytes) -> dict[str, np.ndarray]:
    lines = data.decode().splitlines()
    names = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: rows[:, k] for k, name in enumerate(names)}


def direct_log_moment(durations: np.ndarray, q: float) -> float:
    """``ln <t^q>`` by an exactly rounded sum of ``t**q``."""
    return math.log(math.fsum((durations ** q).tolist()) / durations.size)


def log_moment_close(got: float, want: float, rtol: float = 1e-10) -> bool:
    """Relative agreement, absolute below magnitude 1."""
    return abs(got - want) <= rtol * max(1.0, abs(want))


def direct_survival(durations: np.ndarray, t: float) -> float:
    return np.count_nonzero(durations > t) / durations.size


def mp_mixture(t: float, params, survival: bool, dps: int = 20) -> float:
    """``psi(t)`` or ``Psi(t)`` by mpmath quadrature of the mixing integral.

    ``int rho(eps) K(t/tau(eps)) deps`` with ``K(x) = exp(-x)/tau`` (density)
    or ``exp(-x)`` (survival) and ``tau(eps) = tau0 exp(beta eps)``; the
    interval is split at the weight's centre and around ``t = tau(eps)``,
    where the kernel turns over.
    """
    import mpmath as mp

    from interevent import Delta, Laplace, StretchedExp, Uniform

    w = params.weight
    with mp.workdps(dps):
        tau0, beta, t = mp.mpf(params.tau0), mp.mpf(params.beta), mp.mpf(t)

        def kernel(eps):
            tau = tau0 * mp.exp(beta * eps)
            return mp.exp(-t / tau) if survival else mp.exp(-t / tau) / tau

        if isinstance(w, Delta):
            return float(kernel(mp.mpf(w.mu)))
        if isinstance(w, Uniform):
            h = mp.mpf(w.half_width)
            centre, lo, hi = mp.mpf(0), -h, h
            rho = lambda eps: 1 / (2 * h)  # noqa: E731
        elif isinstance(w, Laplace):
            s = mp.mpf(w.sigma)
            centre, lo, hi = mp.mpf(0), -60 * s, 60 * s
            rho = lambda eps: mp.exp(-abs(eps) / s) / (2 * s)  # noqa: E731
        elif isinstance(w, StretchedExp):
            s, a, centre = mp.mpf(w.sigma), mp.mpf(w.alpha), mp.mpf(w.mu)
            reach = s * mp.mpf(70) ** (1 / a)
            lo, hi = centre - reach, centre + reach
            norm = 2 * s * mp.gamma(1 + 1 / a)
            rho = lambda eps: mp.exp(-abs((eps - centre) / s) ** a) / norm  # noqa: E731
        else:
            raise TypeError(f"no reference for weight {type(w).__name__}")
        turn = mp.log(t / tau0) / beta
        cuts = sorted({p for p in (centre, turn - 4 / beta, turn, turn + 4 / beta) if lo < p < hi})
        return float(mp.quad(lambda eps: rho(eps) * kernel(eps), [lo, *cuts, hi]))

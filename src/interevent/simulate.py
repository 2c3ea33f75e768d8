"""Monte Carlo generation of interevent durations.

Two-stage draw per event: a depth ``eps`` from the weight density, then a
waiting time that is exponential with mean ``tau0 * exp(beta * eps)``.

Reproducibility contract: the event index range is split into contiguous
blocks of 2**20; block k uses a numpy ``Generator(PCG64(child_k))`` where
``child_k`` is the k-th spawn of ``SeedSequence(seed)``.  Within a block the
draws happen vectorized in a fixed order (weight draws, then sign draws where
the family needs them, then the exponential uniforms), so output is a pure
function of (params, n_events, seed) regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .core import EventSeries, ModelParams

# the package's table lists the public names once; the block size is this module's own
__all__ = [*_EXPORTS["simulate"], "BLOCK"]

BLOCK = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    params: ModelParams
    n_events: int
    seed: int

    def __post_init__(self):
        if not (isinstance(self.n_events, (int, np.integer)) and self.n_events >= 1):
            raise ValueError("n_events must be an integer >= 1")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _positive_uniform(rng: np.random.Generator, size: int | None):
    u = rng.random(size)
    if size is None:
        while u == 0.0:
            u = rng.random()
        return u
    mask = u == 0.0
    while np.any(mask):
        u[mask] = rng.random(int(mask.sum()))
        mask = u == 0.0
    return u


def sample_interevent(params: ModelParams, rng: np.random.Generator, size: int | None = None):
    """Waiting times ``t = -tau(eps) * ln(u)`` with fresh ``eps`` per event and ``u`` in (0, 1)."""
    eps = params.weight.sample(rng, size)
    u = _positive_uniform(rng, size)
    t = params.tau0 * np.exp(params.beta * np.asarray(eps, dtype=float)) * (-np.log(u))
    return float(t) if size is None else t


def generate_series(cfg: SimConfig) -> EventSeries:
    """Generate ``cfg.n_events`` i.i.d. durations under the block-substream contract."""
    n = int(cfg.n_events)
    n_blocks = -(-n // BLOCK)
    children = np.random.SeedSequence(cfg.seed).spawn(n_blocks)
    chunks = []
    for k, child in enumerate(children):
        m = min(BLOCK, n - k * BLOCK)
        rng = np.random.Generator(np.random.PCG64(child))
        chunks.append(sample_interevent(cfg.params, rng, size=m))
    return EventSeries(
        durations=np.concatenate(chunks),
        source=f"sim:{type(cfg.params.weight).__name__}:seed={cfg.seed}:n={n}",
        dropped={},
    )

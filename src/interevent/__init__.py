"""Superstatistics of interevent times.

A waiting time is drawn from an exponential whose characteristic time is
itself random: tau(eps) = tau0 * exp(beta * eps) with eps drawn from a
trap-depth weight.  The package evaluates the resulting mixture density and
survival function, computes fractional moments analytically or by saddle-point
and series approximations, simulates event streams, estimates moment curves
from data, and fits the moment laws and survival models used for data
collapse across datasets.

Submodules load on first use: ``import interevent`` loads only ``core`` (and
numpy), and a public name such as ``interevent.fit_mf`` or a submodule such
as ``interevent.fitting`` imports its module when first looked up.
"""

import importlib

from . import core

__version__ = "0.1.0"

# submodule -> the public names it defines; ``core`` is imported above, every
# other submodule by the first lookup of one of its names or of itself.  The
# command-line module ``cli`` exports nothing here.
_EXPORTS = {
    "core": (
        "AsymptoticRangeWarning", "Delta", "DivergentMomentError", "EventSeries", "FitResult",
        "IngestError", "Laplace", "ModelDomainError", "ModelParams", "NoFiniteMeanError",
        "QMomentCurve", "SeriesTruncationWarning", "StretchedExp", "Uniform",
        "UnsupportedModelError",
    ),
    "densities": ("Phase", "PhaseLabel", "characteristic_time", "phase", "ptd", "ptd_tail", "sojourn"),
    "empirical": (
        "DEFAULT_Q_GRID", "IngestOptions", "empirical_qmoments", "empirical_sojourn",
        "hmf_collapse", "ingest", "mf_collapse", "mono_collapse", "rescaled_log_moment",
        "scale_q", "transformed_moment",
    ),
    "fitting": (
        "QExponential", "StretchedSojourn", "Weibull", "fit_hmf", "fit_mf", "fit_monofractal",
        "fit_sojourn",
    ),
    "moments": (
        "HMFParams", "MFParams", "SaddlePointResult", "Scales", "SeriesMomentResult",
        "fd_relation", "iq_quadrature", "log_iq_quadrature", "log_norm_moment", "model_curve",
        "moment", "moment_stretched_series", "saddlepoint_iq", "scales",
    ),
    "simulate": ("SimConfig", "generate_series", "sample_interevent"),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    # not cached here: a public name is always its home module's current attribute
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})

"""Command-line front end: evaluate, simulate, estimate, fit, collapse.

Exit codes: 0 success, 2 usage error (unknown flags, malformed or missing
inputs), 1 computation error with a single tab-separated line
``error<TAB>ErrorType<TAB>message`` on stderr.

File formats
------------
* event CSV: single column, header ``t`` (epoch-second timestamps) or ``dt``
  (durations in seconds), one value per row.
* moment-curve CSV: columns ``q,log_norm_moment[,stderr,n_samples]``.
* density table CSV: columns ``t,psi,sojourn``.
* survival CSV: columns ``t,psi``.
* fit output: JSON ``{"params": {name: {"estimate": x, "stderr": s}},
  "q_domain": [a, b], "residual_norm": r, "converged": bool}`` plus a
  ``flags`` list when the fit raised any.
* collapse outputs: one long-format CSV per quantity with columns
  ``dataset,q,value``.

A JSON config file passed with ``--config`` supplies defaults for any long
flag of the invoked command (explicit flags win).  For ``collapse`` the same
file also carries the dataset table.  When ``--out``-style flags are omitted,
files land in ``$INTEREVENT_OUTDIR`` (default: current directory).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _special

from . import densities, empirical, fitting, moments
from .core import (
    AsymptoticRangeWarning,
    Delta,
    Laplace,
    ModelParams,
    QMomentCurve,
    StretchedExp,
    Uniform,
)
from .simulate import SimConfig, generate_series

__all__ = ["RunConfig", "run", "main", "entry"]

ENV_OUTDIR = "INTEREVENT_OUTDIR"

_COLLAPSE_QUANTITIES = ("ratio", "mono", "mf", "hmf", "transform", "scaled-q")


class UsageError(Exception):
    """Bad invocation: wrong flags, missing files, malformed inputs."""


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation: a single command plus its settings."""

    command: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in ("input", "curve"):
            path = self.options.get(key)
            if path is not None and not os.path.exists(path):
                raise UsageError(f"input file does not exist: {path}")


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _out_path(given: str | None, default_name: str) -> str:
    if given:
        return given
    return os.path.join(os.environ.get(ENV_OUTDIR, "."), default_name)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _write_numeric_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns, silently finite: rows with NaN/Inf are dropped with a note."""
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    finite = np.all(np.isfinite(data), axis=1)
    skipped = int((~finite).sum())
    if skipped:
        print(f"note: skipped {skipped} non-finite row(s) in {path}", file=sys.stderr)
    _write_csv(path, header, ([_fmt(v) for v in row] for row in data[finite]))


def _read_header(path: str) -> list[str]:
    with open(path, newline="") as fh:
        try:
            first = next(csv.reader(fh))
        except StopIteration:
            raise UsageError(f"empty input file: {path}")
    return [cell.strip() for cell in first]


def _read_columns(path: str, expected: list[str], optional: list[str] = ()) -> dict[str, np.ndarray]:
    header = _read_header(path)
    for name in expected:
        if name not in header:
            raise UsageError(
                f"{path}: expected column '{name}', found header {header}"
            )
    usable = [h for h in header if h in (*expected, *optional)]
    idx = [header.index(h) for h in usable]
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=idx, ndmin=2)
    except ValueError as e:
        raise UsageError(f"{path}: malformed numeric data ({e})")
    return {h: data[:, k] for k, h in enumerate(usable)}


def _read_event_column(path: str) -> tuple[str, np.ndarray]:
    header = _read_header(path)
    if header[:1] == ["t"]:
        kind = "timestamps"
    elif header[:1] == ["dt"]:
        kind = "durations"
    else:
        raise UsageError(f"{path}: event CSV header must be 't' or 'dt', got {header}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=[0], ndmin=1)
    except ValueError as e:
        raise UsageError(f"{path}: malformed numeric data ({e})")
    return kind, data


def _read_curve(path: str) -> QMomentCurve:
    cols = _read_columns(path, ["q", "log_norm_moment"], optional=["stderr", "n_samples"])
    n_samples = 0
    if "n_samples" in cols and cols["n_samples"].size:
        n_samples = int(cols["n_samples"][0])
    return QMomentCurve(
        q_grid=cols["q"],
        log_norm_moment=cols["log_norm_moment"],
        n_samples=n_samples,
        stderr=cols.get("stderr"),
    )


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n.lstrip("-").replace("-", "_")) is None]
    if missing:
        raise UsageError(f"missing required flag(s): {', '.join(missing)}")


def _add_weight_flags(
    p: argparse.ArgumentParser, flag: str = "--weight", choices=("delta", "uniform", "laplace", "stretched")
) -> None:
    p.add_argument(flag, choices=choices)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float)
    p.add_argument("--half-width", type=float, dest="half_width")
    p.add_argument("--alpha", type=float)
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)


def _model_params(args: argparse.Namespace, flag: str = "--weight") -> ModelParams:
    """The model named by ``flag``; any kind past delta, uniform and laplace is
    a stretched weight (``stretched``, or the ``series``/``gaussian``/``saddle`` routes)."""
    _require(args, flag)
    kind = getattr(args, flag.lstrip("-"))
    if kind == "delta":
        weight = Delta(mu=args.mu)
    elif kind == "uniform":
        if args.half_width is None:
            raise UsageError(f"--half-width is required for {flag} {kind}")
        weight = Uniform(half_width=args.half_width)
    elif kind == "laplace":
        if args.sigma is None:
            raise UsageError(f"--sigma is required for {flag} {kind}")
        weight = Laplace(sigma=args.sigma)
    else:
        alpha = 2.0 if (kind == "gaussian" and args.alpha is None) else args.alpha
        if args.sigma is None or alpha is None:
            raise UsageError(f"--sigma and --alpha are required for {flag} {kind}")
        if kind == "gaussian" and alpha != 2.0:
            raise UsageError("--model gaussian requires alpha = 2")
        weight = StretchedExp(mu=args.mu, sigma=args.sigma, alpha=alpha)
    return ModelParams(weight=weight, tau0=args.tau0, beta=args.beta)


def _q_grid(qmin: float, qmax: float, qstep: float) -> np.ndarray:
    if not (qstep > 0 and qmax > qmin):
        raise UsageError("need qmax > qmin and qstep > 0")
    n = int(math.floor((qmax - qmin) / qstep + 1e-9)) + 1
    q = qmin + qstep * np.arange(n)
    q[np.abs(q) < 1e-12] = 0.0
    return q


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="interevent",
        description="Superstatistics of interevent times: densities, q-moments, simulation, fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, **kw) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kw)
        p.add_argument("--config", help="JSON file supplying defaults for this command's flags")
        registry[name] = p
        return p

    p = command("ptd", help="tabulate the waiting-time density and survival function")
    _add_weight_flags(p)
    p.add_argument("--tmin", type=float, default=0.01)
    p.add_argument("--tmax", type=float, default=100.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--spacing", choices=["log", "linear"], default="log")
    p.add_argument("--out")

    p = command("moments", help="tabulate an analytic normalized log-moment curve")
    _add_weight_flags(
        p, "--model", ("delta", "uniform", "laplace", "series", "gaussian", "saddle", "mf", "hmf")
    )
    p.add_argument("--c0", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--b1", type=float)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--nmax", type=int, default=500)
    p.add_argument("--qmin", type=float)
    p.add_argument("--qmax", type=float, default=20.0)
    p.add_argument("--qstep", type=float, default=0.1)
    p.add_argument("--out")

    p = command("simulate", help="generate an event-duration CSV")
    _add_weight_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = command("estimate", help="empirical q-moments and survival function from event data")
    p.add_argument("--input")
    p.add_argument("--gap-cutoff", type=float, dest="gap_cutoff")
    p.add_argument("--min-duration", type=float, dest="min_duration", default=0.0)
    p.add_argument("--qmin", type=float, default=0.0)
    p.add_argument("--qmax", type=float, default=20.0)
    p.add_argument("--qstep", type=float, default=0.1)
    p.add_argument("--sojourn-points", type=int, dest="sojourn_points", default=50)
    p.add_argument("--out-moments", dest="out_moments")
    p.add_argument("--out-sojourn", dest="out_sojourn")

    p = command("fit", help="fit a moment law or a survival model")
    p.add_argument(
        "--kind",
        choices=["mono", "mf", "hmf", "sojourn-qexp", "sojourn-weibull"],
    )
    p.add_argument("--input")
    p.add_argument("--qmin", type=float)
    p.add_argument("--qmax", type=float)
    p.add_argument("--out")

    p = command("collapse", help="data-collapse diagnostic tables for multiple datasets")
    p.add_argument("--out-prefix", dest="out_prefix", default="collapse")
    p.add_argument(
        "--quantities",
        nargs="+",
        choices=list(_COLLAPSE_QUANTITIES),
        help="subset of diagnostics to emit (default: all computable)",
    )

    return parser, registry


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_ptd(args) -> int:
    params = _model_params(args)
    if args.points < 1:
        raise UsageError("--points must be >= 1")
    if args.spacing == "log":
        if args.tmin <= 0:
            raise UsageError("log spacing needs --tmin > 0")
        t = np.geomspace(args.tmin, args.tmax, args.points)
    else:
        t = np.linspace(args.tmin, args.tmax, args.points)
    psi = densities.ptd(t, params)
    surv = densities.sojourn(t, params)
    _write_numeric_csv(_out_path(args.out, "ptd.csv"), ["t", "psi", "sojourn"], [t, psi, surv])
    return 0


def _cmd_moments(args) -> int:
    _require(args, "--model")
    model = args.model
    qmin = args.qmin if args.qmin is not None else (0.1 if model == "saddle" else 0.0)
    q = _q_grid(qmin, args.qmax, args.qstep)

    if model == "mf":
        if args.alpha is None or args.c0 is None or args.b is None:
            raise UsageError("--model mf needs --alpha, --c0 and --b")
        curve = moments.mf_curve(q, moments.MFParams(args.alpha, args.c0, args.b))
        values = curve.log_norm_moment
    elif model == "hmf":
        if None in (args.alpha, args.c0, args.b, args.b1):
            raise UsageError("--model hmf needs --alpha, --c0, --b and --b1")
        curve = moments.hmf_curve(q, moments.HMFParams(args.alpha, args.c0, args.b, args.b1))
        values = curve.log_norm_moment
    elif model == "series":
        params = _model_params(args, "--model")
        values = np.empty_like(q)
        for i, qi in enumerate(q):
            if qi == 0.0:
                values[i] = 0.0
                continue
            r = moments.moment_stretched_series(float(qi), params, tol=args.tol, n_max=args.nmax)
            values[i] = (
                math.log(r.value) - float(_special.gammaln(1.0 + qi))
                if math.isfinite(r.value) and r.value > 0
                else math.inf
            )
    elif model == "saddle":
        params = _model_params(args, "--model")
        with warnings.catch_warnings(record=True) as out_of_range:
            warnings.simplefilter("always", AsymptoticRangeWarning)
            values = np.array([moments._saddle_log_norm_moment(float(qi), params) for qi in q])
        if out_of_range:
            print(
                f"note: saddle point kept leading order at {len(out_of_range)} order(s) "
                "where its next-order factor is out of range",
                file=sys.stderr,
            )
    else:
        params = _model_params(args, "--model")
        values = moments.model_curve(q, params).log_norm_moment

    _write_numeric_csv(_out_path(args.out, "moments.csv"), ["q", "log_norm_moment"], [q, values])
    return 0


def _cmd_simulate(args) -> int:
    _require(args, "--n", "--seed")
    cfg = SimConfig(params=_model_params(args), n_events=args.n, seed=args.seed)
    series = generate_series(cfg)
    _write_numeric_csv(_out_path(args.out, "events.csv"), ["dt"], [series.durations])
    return 0


def _cmd_estimate(args) -> int:
    _require(args, "--input")
    kind, data = _read_event_column(args.input)
    opts = empirical.IngestOptions(
        input_kind=kind, gap_cutoff=args.gap_cutoff, min_duration=args.min_duration
    )
    series = empirical.ingest(data, opts)
    for reason, count in series.dropped.items():
        print(f"note: dropped {count} record(s): {reason}", file=sys.stderr)
    curve = empirical.empirical_qmoments(series, _q_grid(args.qmin, args.qmax, args.qstep))
    _write_numeric_csv(
        _out_path(args.out_moments, "moments.csv"),
        ["q", "log_norm_moment", "stderr", "n_samples"],
        [
            curve.q_grid,
            curve.log_norm_moment,
            curve.stderr,
            np.full(curve.q_grid.shape, float(curve.n_samples)),
        ],
    )
    if args.sojourn_points > 0:
        lo = float(series.durations.min())
        hi = float(series.durations.max())
        if lo == hi:
            grid = np.array([lo])
        else:
            grid = np.geomspace(lo, hi, args.sojourn_points)
        psi = empirical.empirical_sojourn(series, grid)
        _write_numeric_csv(_out_path(args.out_sojourn, "sojourn.csv"), ["t", "psi"], [grid, psi])
    return 0


_FIT_DEFAULT_RANGES = {"mono": (10.0, 20.0), "mf": (0.0, 3.5), "hmf": (0.0, 20.0)}


def _fit_result_doc(result) -> dict:
    doc = {
        "params": {
            name: {"estimate": est, "stderr": se} for name, (est, se) in result.params.items()
        },
        "q_domain": [result.q_domain[0], result.q_domain[1]],
        "residual_norm": result.residual_norm,
        "converged": result.converged,
    }
    if result.flags:
        doc["flags"] = list(result.flags)
    return doc


def _cmd_fit(args) -> int:
    _require(args, "--kind", "--input")
    kind = args.kind
    if kind in _FIT_DEFAULT_RANGES:
        curve = _read_curve(args.input)
        lo, hi = _FIT_DEFAULT_RANGES[kind]
        q_range = (
            args.qmin if args.qmin is not None else lo,
            args.qmax if args.qmax is not None else hi,
        )
        fit_fn = {
            "mono": fitting.fit_monofractal,
            "mf": fitting.fit_mf,
            "hmf": fitting.fit_hmf,
        }[kind]
        result = fit_fn(curve, q_range)
    else:
        cols = _read_columns(args.input, ["t", "psi"])
        t, psi = cols["t"], cols["psi"]
        keep = psi > 0
        if not keep.all():
            print(
                f"note: dropped {int((~keep).sum())} zero-survival row(s) before fitting",
                file=sys.stderr,
            )
            t, psi = t[keep], psi[keep]
        model = fitting.QExponential if kind == "sojourn-qexp" else fitting.Weibull
        result = fitting.fit_sojourn(t, psi, model)

    text = json.dumps(_fit_result_doc(result), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _collapse_dataset_rows(name: str, quantity: str, spec: dict, curve: QMomentCurve, theta, reference):
    q = curve.q_grid
    if quantity == "ratio":
        if "ln_tau" not in spec or theta is None:
            raise UsageError(f"dataset {name}: 'ratio' needs per-dataset ln_tau and a global theta")
        values = empirical.rescaled_log_moment(curve, math.exp(spec["ln_tau"]), theta)
    elif quantity == "mono":
        if "ln_tau" not in spec:
            raise UsageError(f"dataset {name}: 'mono' needs ln_tau")
        values = empirical.mono_collapse(curve, math.exp(spec["ln_tau"]))
    elif quantity == "mf":
        if "mf" not in spec:
            raise UsageError(f"dataset {name}: 'mf' needs an mf parameter block")
        values = empirical.mf_collapse(curve, moments.MFParams(**spec["mf"]))
    elif quantity == "hmf":
        if "hmf" not in spec:
            raise UsageError(f"dataset {name}: 'hmf' needs an hmf parameter block")
        values = empirical.hmf_collapse(curve, moments.HMFParams(**spec["hmf"]))
    elif quantity == "transform":
        if "hmf" not in spec:
            raise UsageError(f"dataset {name}: 'transform' needs an hmf parameter block")
        values = empirical.transformed_moment(curve, moments.HMFParams(**spec["hmf"]))
    else:  # scaled-q
        if "hmf" not in spec or reference is None:
            raise UsageError(f"dataset {name}: 'scaled-q' needs hmf blocks and a reference dataset")
        values = np.full(q.shape, np.nan)
        pos = q > 0
        values[pos] = empirical.scale_q(
            q[pos], moments.HMFParams(**spec["hmf"]), moments.HMFParams(**reference["hmf"])
        )
    return values


def _cmd_collapse(args) -> int:
    if not args.config:
        raise UsageError("collapse requires --config with a dataset table")
    with open(args.config) as fh:
        cfg = json.load(fh)
    datasets = cfg.get("datasets")
    if not datasets:
        raise UsageError("config must list at least one dataset")
    theta = cfg.get("theta")
    ref_name = cfg.get("reference")
    reference = None
    if ref_name is not None:
        matches = [d for d in datasets if d.get("name") == ref_name]
        if not matches:
            raise UsageError(f"reference dataset '{ref_name}' not found in config")
        reference = matches[0]
        if "hmf" not in reference:
            raise UsageError(f"reference dataset '{ref_name}' has no hmf parameter block")

    quantities = args.quantities or cfg.get("quantities")
    if quantities is None:
        quantities = []
        for quantity, needs in (
            ("ratio", lambda d: "ln_tau" in d and theta is not None),
            ("mono", lambda d: "ln_tau" in d),
            ("mf", lambda d: "mf" in d),
            ("hmf", lambda d: "hmf" in d),
            ("transform", lambda d: "hmf" in d),
            ("scaled-q", lambda d: "hmf" in d and reference is not None),
        ):
            if all(needs(d) for d in datasets):
                quantities.append(quantity)
        if not quantities:
            raise UsageError("no collapse quantity is computable from the config")
    unknown = set(quantities) - set(_COLLAPSE_QUANTITIES)
    if unknown:
        raise UsageError(f"unknown collapse quantities: {sorted(unknown)}")

    curves = {}
    for d in datasets:
        if "name" not in d or "curve" not in d:
            raise UsageError("each dataset needs 'name' and 'curve' keys")
        if not os.path.exists(d["curve"]):
            raise UsageError(f"curve file does not exist: {d['curve']}")
        curves[d["name"]] = _read_curve(d["curve"])

    for quantity in quantities:
        rows = []
        skipped = 0
        for d in datasets:
            name = d["name"]
            curve = curves[name]
            values = _collapse_dataset_rows(name, quantity, d, curve, theta, reference)
            for qi, vi in zip(curve.q_grid, values):
                if math.isfinite(vi):
                    rows.append([name, _fmt(qi), _fmt(vi)])
                else:
                    skipped += 1
        path = _out_path(None, f"{args.out_prefix}.{quantity}.csv")
        if skipped:
            print(f"note: skipped {skipped} undefined point(s) in {path}", file=sys.stderr)
        _write_csv(path, ["dataset", "q", "value"], rows)
    return 0


_DISPATCH = {
    "ptd": _cmd_ptd,
    "moments": _cmd_moments,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "fit": _cmd_fit,
    "collapse": _cmd_collapse,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _apply_config_defaults(parser, registry, args, argv):
    path = args.config
    if not os.path.exists(path):
        raise UsageError(f"config file does not exist: {path}")
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as e:
            raise UsageError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    sub = registry[args.command]
    valid = {a.dest for a in sub._actions}
    flat = {k: v for k, v in cfg.items() if k in valid}
    if args.command != "collapse":
        unknown = set(cfg) - valid
        if unknown:
            raise UsageError(f"config keys not recognized for '{args.command}': {sorted(unknown)}")
    sub.set_defaults(**flat)
    return parser.parse_args(argv)


def run(argv) -> int:
    """Parse ``argv`` (without the program name), execute, return the exit code."""
    parser, registry = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        if getattr(args, "config", None):
            try:
                args = _apply_config_defaults(parser, registry, args, list(argv))
            except SystemExit as e:
                return 0 if e.code in (0, None) else 2
        RunConfig(command=args.command, options={"input": getattr(args, "input", None)})
        return _DISPATCH[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as e:
        message = str(e).replace("\n", " ").replace("\t", " ")
        sys.stderr.write(f"error\t{type(e).__name__}\t{message}\n")
        return 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


def entry() -> None:
    sys.exit(main())

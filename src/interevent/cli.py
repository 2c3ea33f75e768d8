"""Command-line front end: evaluate, simulate, estimate, fit, collapse.

Exit codes: 0 success, 2 usage error (unknown flags, flag values out of
range, malformed or missing inputs, an output path that is a directory), 1
computation error with a single tab-separated line
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
from dataclasses import fields

import numpy as np

from . import densities, empirical, fitting, moments
from .core import Delta, Laplace, ModelParams, QMomentCurve, StretchedExp, Uniform
from .simulate import SimConfig, generate_series

__all__ = ["run", "main", "entry"]

ENV_OUTDIR = "INTEREVENT_OUTDIR"


class UsageError(Exception):
    """Bad invocation: wrong flags, missing files, malformed inputs."""


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _out_path(given: str | None, default_name: str) -> str:
    path = given or os.path.join(os.environ.get(ENV_OUTDIR, "."), default_name)
    if os.path.isdir(path):
        raise UsageError(f"output path is a directory: {path}")
    return path


# rows per write in _write_numeric_csv; bounds the strings held at once (about 1 MiB per column)
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_numeric_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns, silently finite: rows with NaN/Inf are dropped with a note.

    The bytes are those of :func:`_write_csv` on ``repr`` cells (CRLF line
    ends, nothing quoted), written one block of rows at a time, without
    holding a string per row of the whole table.  Each column of a block is
    formatted by one ``repr`` of its list, whose items are the ``repr`` of
    each float: faster than one ``repr`` call per cell.
    """
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    finite = np.all(np.isfinite(data), axis=1)
    skipped = int((~finite).sum())
    if skipped:
        print(f"note: skipped {skipped} non-finite row(s) in {path}", file=sys.stderr)
    data = data[finite]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(data), _CSV_BLOCK_ROWS):
            block = data[start : start + _CSV_BLOCK_ROWS]
            cells = [repr(col.tolist())[1:-1].split(", ") for col in block.T]
            lines = [",".join(row) for row in zip(*cells)]
            lines.append("")
            fh.write("\r\n".join(lines))


def _read_header(path: str) -> list[str]:
    with open(path, newline="") as fh:
        try:
            first = next(csv.reader(fh))
        except StopIteration:
            raise UsageError(f"empty input file: {path}")
    return [cell.strip() for cell in first]


def _read_columns(
    path: str, expected: list[str], optional: list[str] = (), finite: list[str] = ()
) -> dict[str, np.ndarray]:
    """The ``expected`` columns of a numeric CSV, and those of ``optional`` it has.

    A file without data rows, or with a non-finite value in a column named in
    ``finite``, is a usage error.
    """
    header = _read_header(path)
    for name in expected:
        if name not in header:
            raise UsageError(
                f"{path}: expected column '{name}', found header {header}"
            )
    usable = [h for h in header if h in (*expected, *optional)]
    idx = [header.index(h) for h in usable]
    try:
        with warnings.catch_warnings():
            # reported below as a usage error rather than printed
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=idx, ndmin=2)
    except ValueError as e:
        raise UsageError(f"{path}: malformed numeric data ({e})")
    if not len(data):
        raise UsageError(f"{path}: no data rows")
    cols = {h: data[:, k] for k, h in enumerate(usable)}
    for name in finite:
        if name in cols and not np.all(np.isfinite(cols[name])):
            raise UsageError(f"{path}: column '{name}' has a non-finite value")
    return cols


def _read_curve(path: str) -> QMomentCurve:
    cols = _read_columns(
        path, ["q", "log_norm_moment"], optional=["stderr", "n_samples"], finite=["n_samples"]
    )
    n_samples = int(cols["n_samples"][0]) if "n_samples" in cols else 0
    try:
        return QMomentCurve(
            q_grid=cols["q"],
            log_norm_moment=cols["log_norm_moment"],
            n_samples=n_samples,
            stderr=cols.get("stderr"),
        )
    except ValueError as e:
        raise UsageError(f"{path}: {e}")


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
    if not (0 < qstep < math.inf and qmax > qmin and math.isfinite((qmax - qmin) / qstep)):
        raise UsageError("need finite qmin < qmax and qstep > 0")
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
    if not (0 <= args.tmin < math.inf and 0 <= args.tmax < math.inf):
        raise UsageError("--tmin and --tmax must be finite and nonnegative")
    if args.spacing == "log":
        if min(args.tmin, args.tmax) <= 0:
            raise UsageError("log spacing needs --tmin > 0 and --tmax > 0")
        t = np.geomspace(args.tmin, args.tmax, args.points)
    else:
        t = np.linspace(args.tmin, args.tmax, args.points)
    psi = densities.ptd(t, params)
    surv = densities.sojourn(t, params)
    _write_numeric_csv(_out_path(args.out, "ptd.csv"), ["t", "psi", "sojourn"], [t, psi, surv])
    return 0


# model -> its log-moment route, which also marks the orders that the note counts, and the note
_NOTED_ROUTES = {
    "series": (moments._series_log_norm_moment,
               "series tail bound above float64 precision at {} order(s)"),
    "saddle": (moments._saddle_log_norm_moment, "saddle point kept leading order at {} order(s) "
               "where its next-order factor is out of range"),
}


def _cmd_moments(args) -> int:
    _require(args, "--model")
    model = args.model
    qmin = args.qmin if args.qmin is not None else (0.1 if model == "saddle" else 0.0)
    q = _q_grid(qmin, args.qmax, args.qstep)

    if model in ("mf", "hmf"):
        law = moments.MFParams if model == "mf" else moments.HMFParams
        names = [f.name for f in fields(law)]
        given = [getattr(args, name) for name in names]
        if None in given:
            flags = [f"--{name}" for name in names]
            raise UsageError(f"--model {model} needs {', '.join(flags[:-1])} and {flags[-1]}")
        values = law(*given).log_norm_moment(q)
    elif model in _NOTED_ROUTES:
        route, note = _NOTED_ROUTES[model]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # counted in the note below
            values, noted = route(q, _model_params(args, "--model"))
        if np.any(noted):
            print(f"note: {note.format(np.count_nonzero(noted))}", file=sys.stderr)
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
    q = _q_grid(args.qmin, args.qmax, args.qstep)
    if args.sojourn_points < 0:
        raise UsageError("--sojourn-points must be >= 0 (0 writes no survival file)")
    header = _read_header(args.input)
    if header[:1] not in (["t"], ["dt"]):
        raise UsageError(f"{args.input}: event CSV header must be 't' or 'dt', got {header}")
    kind = "timestamps" if header[0] == "t" else "durations"
    try:
        opts = empirical.IngestOptions(
            input_kind=kind, gap_cutoff=args.gap_cutoff, min_duration=args.min_duration
        )
    except ValueError as e:
        raise UsageError(f"--gap-cutoff/--min-duration: {e}")
    data = _read_columns(args.input, header[:1])[header[0]]
    out_moments = _out_path(args.out_moments, "moments.csv")
    out_sojourn = _out_path(args.out_sojourn, "sojourn.csv") if args.sojourn_points > 0 else None
    series = empirical.ingest(data, opts)
    for reason, count in series.dropped.items():
        print(f"note: dropped {count} record(s): {reason}", file=sys.stderr)
    curve = empirical.empirical_qmoments(series, q)
    _write_numeric_csv(
        out_moments,
        ["q", "log_norm_moment", "stderr", "n_samples"],
        [
            curve.q_grid,
            curve.log_norm_moment,
            curve.stderr,
            np.full(curve.q_grid.shape, float(curve.n_samples)),
        ],
    )
    if out_sojourn:
        lo = float(series.durations.min())
        hi = float(series.durations.max())
        if lo == hi:
            grid = np.array([lo])
        else:
            grid = np.geomspace(lo, hi, args.sojourn_points)
        psi = empirical.empirical_sojourn(series, grid)
        _write_numeric_csv(out_sojourn, ["t", "psi"], [grid, psi])
    return 0


_FIT_DEFAULT_RANGES = {"mono": (10.0, 20.0), "mf": (0.0, 3.5), "hmf": (0.0, 20.0)}


def _fit_result_doc(result) -> dict:
    # strict JSON has no NaN or Infinity, so a non-finite estimate or stderr is written as null
    doc = {
        "params": {
            name: {k: v if math.isfinite(v) else None for k, v in (("estimate", est), ("stderr", se))}
            for name, (est, se) in result.params.items()
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
    out = args.out and _out_path(args.out, "")
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
        if args.qmin is not None or args.qmax is not None:
            raise UsageError(f"--qmin/--qmax set a moment-order window; --kind {kind} fits every t row")
        cols = _read_columns(args.input, ["t", "psi"], finite=["t", "psi"])
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
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _scaled_q_values(curve: QMomentCurve, spec: dict, shared: dict) -> np.ndarray:
    q = curve.q_grid
    values = np.full(q.shape, np.nan)
    pos = q > 0
    values[pos] = empirical.scale_q(
        q[pos], moments.HMFParams(**spec["hmf"]), moments.HMFParams(**shared["reference"]["hmf"])
    )
    return values


# quantity -> (dataset key it needs, config value it also needs or None, that
# need in words, its values), in output order.  Auto-detection emits each quantity
# every dataset meets; a requested quantity a dataset misses is a usage error.
_COLLAPSE_QUANTITIES = {
    "ratio": ("ln_tau", "theta", "per-dataset ln_tau and a global theta",
              lambda c, d, g: empirical.rescaled_log_moment(c, math.exp(d["ln_tau"]), g["theta"])),
    "mono": ("ln_tau", None, "ln_tau",
             lambda c, d, g: empirical.mono_collapse(c, math.exp(d["ln_tau"]))),
    "mf": ("mf", None, "an mf parameter block",
           lambda c, d, g: empirical.mf_collapse(c, moments.MFParams(**d["mf"]))),
    "hmf": ("hmf", None, "an hmf parameter block",
            lambda c, d, g: empirical.hmf_collapse(c, moments.HMFParams(**d["hmf"]))),
    "transform": ("hmf", None, "an hmf parameter block",
                  lambda c, d, g: empirical.transformed_moment(c, moments.HMFParams(**d["hmf"]))),
    "scaled-q": ("hmf", "reference", "hmf blocks and a reference dataset", _scaled_q_values),
}


def _collapse_ready(quantity: str, spec: dict, shared: dict) -> bool:
    key, also, _, _ = _COLLAPSE_QUANTITIES[quantity]
    return key in spec and (also is None or shared[also] is not None)


def _cmd_collapse(args) -> int:
    if not args.config:
        raise UsageError("collapse requires --config with a dataset table")
    cfg = args.config_table  # loaded and checked by _apply_config_defaults
    datasets = cfg.get("datasets")
    if not datasets:
        raise UsageError("config must list at least one dataset")
    shared = {"theta": cfg.get("theta"), "reference": None}
    ref_name = cfg.get("reference")
    if ref_name is not None:
        matches = [d for d in datasets if d.get("name") == ref_name]
        if not matches:
            raise UsageError(f"reference dataset '{ref_name}' not found in config")
        shared["reference"] = matches[0]
        if "hmf" not in matches[0]:
            raise UsageError(f"reference dataset '{ref_name}' has no hmf parameter block")

    quantities = args.quantities or [
        quantity for quantity in _COLLAPSE_QUANTITIES
        if all(_collapse_ready(quantity, d, shared) for d in datasets)
    ]
    if not quantities:
        raise UsageError("no collapse quantity is computable from the config")

    curves = {}
    for d in datasets:
        if "name" not in d or "curve" not in d:
            raise UsageError("each dataset needs 'name' and 'curve' keys")
        if not os.path.isfile(d["curve"]):
            raise UsageError(f"curve file does not exist: {d['curve']}")
        curves[d["name"]] = _read_curve(d["curve"])

    for quantity in quantities:
        _, _, what, compute = _COLLAPSE_QUANTITIES[quantity]
        rows = []
        skipped = 0
        for d in datasets:
            name = d["name"]
            if not _collapse_ready(quantity, d, shared):
                raise UsageError(f"dataset {name}: '{quantity}' needs {what}")
            curve = curves[name]
            values = compute(curve, d, shared)
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
    if not os.path.isfile(path):
        raise UsageError(f"config file does not exist: {path}")
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as e:
            raise UsageError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    flags = {a.dest: a for a in registry[args.command]._actions
             if a.option_strings and a.dest not in ("help", "config")}
    if args.command != "collapse":
        unknown = set(cfg) - set(flags)
        if unknown:
            raise UsageError(f"config keys not recognized for '{args.command}': {sorted(unknown)}")
    # each value becomes flag tokens ahead of the explicit flags, so argparse checks its type and
    # choices and a later explicit flag wins; null leaves the flag's default
    tokens = []
    for key, value in cfg.items():
        if key in flags and value is not None:
            flag, many = flags[key].option_strings[0], flags[key].nargs == "+"
            if many and not isinstance(value, list):
                raise UsageError(f"config key '{key}' must be a list")
            tokens += [flag, *map(str, value)] if many else [f"{flag}={value}"]
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:], argparse.Namespace(config_table=cfg))


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
        path = getattr(args, "input", None)
        if path is not None and not os.path.isfile(path):
            raise UsageError(f"input file does not exist: {path}")
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

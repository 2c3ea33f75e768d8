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

Each command imports the submodules it runs when it runs, so a command's
start-up loads only what it needs.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import fields, replace

import numpy as np

from .core import Delta, Laplace, ModelParams, QMomentCurve, StretchedExp, Uniform
from .simulate import SimConfig, generate_series

__all__ = ["run", "main", "entry"]

# the package, whose public names import their submodule when first looked up
_lib = sys.modules[__package__]

ENV_OUTDIR = "INTEREVENT_OUTDIR"


class UsageError(Exception):
    """Bad invocation: wrong flags, missing files, malformed inputs."""


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------


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


def _loadtxt(rows) -> np.ndarray | None:
    # the numeric rows of a file handle or a list of lines, or None where numpy rejects a row; no
    # data is an empty array, reported by the caller rather than printed
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            # every field is read, so that a row wider than the others is an error, not cut
            return np.loadtxt(rows, delimiter=",", ndmin=2)
        except UnicodeDecodeError:
            raise
        except ValueError:
            return None


def _malformed_line(fh, skip: int) -> str:
    """The first line past the ``skip`` header lines of ``fh`` that :func:`_loadtxt` rejects, by its
    file line number and text: each block of lines is read after the last one with data, against
    the first data row's field count, and the first block that fails is halved down to its line."""
    fh.seek(0)
    rows, head, line = itertools.islice(fh, skip, None), [], skip + 1
    for block in iter(lambda: list(itertools.islice(rows, _CSV_BLOCK_ROWS)), []):
        if _loadtxt(head + block) is None:
            lo, hi = 0, len(block)  # head + block[:lo] reads, head + block[:hi] does not
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if _loadtxt(head + block[:mid]) is None else (mid, hi)
            return f"line {line + hi - 1}: {block[hi - 1].rstrip()[:40]!r}"
        head, line = (block if len(_loadtxt(block)) else head), line + len(block)
    return "a row that does not read as numbers"


def _read_columns(path: str, expected: list[str] = (), finite: list[str] = ()) -> dict[str, np.ndarray]:
    """Every column of a numeric CSV by its header name, read in one pass.

    A header without a name in ``expected``, a file without data rows or not
    valid text, a row whose field count is not the header's or the other
    rows', or a non-finite value in a column named in ``finite``, is a usage
    error; a malformed row is named by its file line, the header being line 1.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise UsageError(f"empty input file: {path}")
            header = [cell.strip() for cell in header]
            for name in expected:
                if name not in header:
                    raise UsageError(f"{path}: expected column '{name}', found header {header}")
            data = _loadtxt(fh)
            if data is None:
                raise UsageError(f"{path}: malformed numeric data ({_malformed_line(fh, reader.line_num)})")
    except UnicodeDecodeError as e:
        # the exception's own text quotes the whole block it was decoding
        raise UsageError(f"{path}: not valid {e.encoding} text ({e.reason})")
    if not len(data):
        raise UsageError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise UsageError(f"{path}: data rows have {data.shape[1]} field(s), the header {len(header)}")
    cols = dict(zip(header, data.T))
    for name in finite:
        if name in cols and not np.all(np.isfinite(cols[name])):
            raise UsageError(f"{path}: column '{name}' has a non-finite value")
    return cols


def _read_curve(path: str) -> QMomentCurve:
    cols = _read_columns(path, ["q", "log_norm_moment"], finite=["n_samples"])
    n_samples = int(cols["n_samples"][0]) if "n_samples" in cols else 0
    try:
        return QMomentCurve(q_grid=cols["q"], log_norm_moment=cols["log_norm_moment"],
                            n_samples=n_samples, stderr=cols.get("stderr"))
    except ValueError as e:
        raise UsageError(f"{path}: {e}")


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n.lstrip("-").replace("-", "_")) is None]
    if missing:
        raise UsageError(f"missing required flag(s): {', '.join(missing)}")


# --weight name -> its family; the series, gaussian and saddle routes of --model are stretched weights
_WEIGHTS = {"delta": Delta, "uniform": Uniform, "laplace": Laplace, "stretched": StretchedExp}


def _add_weight_flags(p: argparse.ArgumentParser, flag: str = "--weight", choices=tuple(_WEIGHTS)) -> None:
    p.add_argument(flag, choices=choices)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float)
    p.add_argument("--half-width", type=float, dest="half_width")
    p.add_argument("--alpha", type=float)
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)


def _build(cls, values, what: str, spell=lambda name: f"--{name.replace('_', '-')}"):
    """``cls`` made from the entries of the mapping ``values`` that its dataclass fields name;
    ``what`` names what asked for it, and ``spell`` writes a field's name in a usage error for
    one that is missing or not a number (``--half-width`` for ``half_width``)."""
    names = [f.name for f in fields(cls)]
    missing = [spell(name) for name in names if values.get(name) is None]
    if missing:
        raise UsageError(f"{what} needs {', '.join(missing)}")
    for name in names:
        _number(values[name], f"{what}: {spell(name)}")
    return cls(**{name: values[name] for name in names})


def _number(value, what: str) -> None:
    # a JSON true or false is not a number here, although bool is an int
    if type(value) not in (int, float):
        raise UsageError(f"{what} must be a number, got {value!r}")


def _model_params(args: argparse.Namespace, flag: str = "--weight") -> ModelParams:
    """The model named by ``flag``: a family of ``_WEIGHTS``, or a stretched weight."""
    _require(args, flag)
    kind = getattr(args, flag.lstrip("-"))
    if kind == "gaussian":
        if args.alpha is None:
            args.alpha = 2.0
        elif args.alpha != 2.0:
            raise UsageError("--model gaussian requires alpha = 2")
    weight = _build(_WEIGHTS.get(kind, StretchedExp), vars(args), f"{flag} {kind}")
    return ModelParams(weight=weight, tau0=args.tau0, beta=args.beta)


def _q_grid(qmin: float, qmax: float, qstep: float) -> np.ndarray:
    if not (0 < qstep < math.inf and qmax > qmin and math.isfinite((qmax - qmin) / qstep)):
        raise UsageError("need finite qmin < qmax and qstep > 0")
    if not qmin > -1:
        raise UsageError(f"need qmin > -1, as <t^q> and Gamma(1 + q) diverge at q = -1; got {qmin}")
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

    def command(name: str, handler, **kw) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kw)
        p.add_argument("--config", help="JSON file supplying defaults for this command's flags")
        p.set_defaults(handler=handler)
        registry[name] = p
        return p

    p = command("ptd", _cmd_ptd, help="tabulate the waiting-time density and survival function")
    _add_weight_flags(p)
    p.add_argument("--tmin", type=float, default=0.01)
    p.add_argument("--tmax", type=float, default=100.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--spacing", choices=["log", "linear"], default="log")
    p.add_argument("--out")

    p = command("moments", _cmd_moments, help="tabulate an analytic normalized log-moment curve")
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

    p = command("simulate", _cmd_simulate, help="generate an event-duration CSV")
    _add_weight_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = command("estimate", _cmd_estimate, help="empirical q-moments and survival function from event data")
    p.add_argument("--input")
    p.add_argument("--gap-cutoff", type=float, dest="gap_cutoff")
    p.add_argument("--min-duration", type=float, dest="min_duration", default=0.0)
    p.add_argument("--qmin", type=float, default=0.0)
    p.add_argument("--qmax", type=float, default=20.0)
    p.add_argument("--qstep", type=float, default=0.1)
    p.add_argument("--sojourn-points", type=int, dest="sojourn_points", default=50)
    p.add_argument("--out-moments", dest="out_moments")
    p.add_argument("--out-sojourn", dest="out_sojourn")

    p = command("fit", _cmd_fit, help="fit a moment law or a survival model")
    p.add_argument("--kind", choices=list(_FIT_KINDS))
    p.add_argument("--input")
    p.add_argument("--qmin", type=float)
    p.add_argument("--qmax", type=float)
    p.add_argument("--out")

    p = command("collapse", _cmd_collapse, help="data-collapse diagnostic tables for multiple datasets")
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
    from . import densities

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


# moment law (a --model value, and a collapse dataset's block key) -> its class's name in ``moments``
_LAWS = {"mf": "MFParams", "hmf": "HMFParams"}

# model -> the name of its log-moment route in ``moments``, which also marks the orders that the
# note counts, and the note
_NOTED_ROUTES = {
    "series": ("_series_log_norm_moment", "series tail bound above float64 precision at {} order(s)"),
    "saddle": ("_saddle_log_norm_moment", "saddle point kept leading order at {} order(s) "
               "where its next-order factor is out of range"),
}


def _cmd_moments(args) -> int:
    from . import moments

    _require(args, "--model")
    model = args.model
    qmin = args.qmin if args.qmin is not None else (0.1 if model == "saddle" else 0.0)
    q = _q_grid(qmin, args.qmax, args.qstep)

    if model in _NOTED_ROUTES:
        route, note = _NOTED_ROUTES[model]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # counted in the note below
            values, noted = getattr(moments, route)(q, _model_params(args, "--model"))
        if np.any(noted):
            print(f"note: {note.format(np.count_nonzero(noted))}", file=sys.stderr)
    else:
        law = (_build(getattr(moments, _LAWS[model]), vars(args), f"--model {model}")
               if model in _LAWS else _model_params(args, "--model"))
        values = moments.model_curve(q, law).log_norm_moment

    _write_numeric_csv(_out_path(args.out, "moments.csv"), ["q", "log_norm_moment"], [q, values])
    return 0


def _cmd_simulate(args) -> int:
    _require(args, "--n", "--seed")
    params = _model_params(args)  # first, so that a model out of its domain is a computation error
    try:
        cfg = SimConfig(params=params, n_events=args.n, seed=args.seed)
    except ValueError as e:
        raise UsageError(f"--n/--seed: {e}")
    series = generate_series(cfg)
    _write_numeric_csv(_out_path(args.out, "events.csv"), ["dt"], [series.durations])
    return 0


def _cmd_estimate(args) -> int:
    from . import empirical

    _require(args, "--input")
    q = _q_grid(args.qmin, args.qmax, args.qstep)
    if args.sojourn_points < 0:
        raise UsageError("--sojourn-points must be >= 0 (0 writes no survival file)")
    try:
        opts = empirical.IngestOptions(gap_cutoff=args.gap_cutoff, min_duration=args.min_duration)
    except ValueError as e:
        raise UsageError(f"--gap-cutoff/--min-duration: {e}")
    cols = _read_columns(args.input)
    column = next(iter(cols))
    if column not in ("t", "dt"):
        raise UsageError(f"{args.input}: event CSV header must be 't' or 'dt', got {list(cols)}")
    if column == "t":
        opts = replace(opts, input_kind="timestamps")
    out_moments = _out_path(args.out_moments, "moments.csv")
    out_sojourn = _out_path(args.out_sojourn, "sojourn.csv") if args.sojourn_points > 0 else None
    series = empirical.ingest(cols[column], opts)
    for reason, count in series.dropped.items():
        print(f"note: dropped {count} record(s): {reason}", file=sys.stderr)
    curve = empirical.empirical_qmoments(series, q)
    _write_numeric_csv(out_moments, ["q", "log_norm_moment", "stderr", "n_samples"],
                       [curve.q_grid, curve.log_norm_moment, curve.stderr,
                        np.full(curve.q_grid.shape, float(curve.n_samples))])
    if out_sojourn:
        lo, hi = float(series.durations.min()), float(series.durations.max())
        grid = np.array([lo]) if lo == hi else np.geomspace(lo, hi, args.sojourn_points)
        psi = empirical.empirical_sojourn(series, grid)
        _write_numeric_csv(out_sojourn, ["t", "psi"], [grid, psi])
    return 0


# kind -> the name in ``fitting`` of the moment fit it runs, whose own q_range default is the
# window, or of the survival law it fits
_FIT_KINDS = {
    "mono": "fit_monofractal",
    "mf": "fit_mf",
    "hmf": "fit_hmf",
    "sojourn-qexp": "QExponential",
    "sojourn-weibull": "Weibull",
}


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
    from . import fitting

    _require(args, "--kind", "--input")
    out = args.out and _out_path(args.out, "")
    kind, fit = args.kind, getattr(fitting, _FIT_KINDS[args.kind])
    if isinstance(fit, type):  # a survival law
        if args.qmin is not None or args.qmax is not None:
            raise UsageError(f"--qmin/--qmax set a moment-order window; --kind {kind} fits every t row")
        cols = _read_columns(args.input, ["t", "psi"], finite=["t", "psi"])
        t, psi = cols["t"], cols["psi"]
        keep = psi != 0
        if not keep.all():
            print(f"note: dropped {int((~keep).sum())} zero-survival row(s) before fitting",
                  file=sys.stderr)
            t, psi = t[keep], psi[keep]
        try:
            fitting._survival_points(t, psi, fit)
        except ValueError as e:
            raise UsageError(f"{args.input}: {e}")
        result = fitting.fit_sojourn(t, psi, fit)
    else:
        curve = _read_curve(args.input)
        lo, hi = inspect.signature(fit).parameters["q_range"].default
        lo, hi = (lo if args.qmin is None else args.qmin, hi if args.qmax is None else args.qmax)
        if not lo < hi:
            raise UsageError(f"--qmin/--qmax must give an increasing window, got [{lo}, {hi}]")
        result = fit(curve, (lo, hi))

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
    values[pos] = _lib.scale_q(q[pos], spec["hmf"], shared["reference"]["hmf"])
    return values


# quantity -> (dataset key it needs, config value it also needs or None, that
# need in words, its values), in output order.  Auto-detection emits each quantity
# every dataset meets; a requested quantity a dataset misses is a usage error.
# A dataset's mf and hmf keys hold the laws built from its blocks.
_COLLAPSE_QUANTITIES = {
    "ratio": ("ln_tau", "theta", "per-dataset ln_tau and a global theta",
              lambda c, d, g: _lib.rescaled_log_moment(c, math.exp(d["ln_tau"]), g["theta"])),
    "mono": ("ln_tau", None, "ln_tau",
             lambda c, d, g: _lib.mono_collapse(c, math.exp(d["ln_tau"]))),
    "mf": ("mf", None, "an mf parameter block", lambda c, d, g: _lib.mf_collapse(c, d["mf"])),
    "hmf": ("hmf", None, "an hmf parameter block", lambda c, d, g: _lib.hmf_collapse(c, d["hmf"])),
    "transform": ("hmf", None, "an hmf parameter block",
                  lambda c, d, g: _lib.transformed_moment(c, d["hmf"])),
    "scaled-q": ("hmf", "reference", "hmf blocks and a reference dataset", _scaled_q_values),
}


def _dataset_spec(d: dict) -> dict:
    """A checked collapse dataset, its mf and hmf blocks built into laws by :func:`_build`."""
    if "ln_tau" in d:
        _number(d["ln_tau"], f"dataset {d['name']}: ln_tau")
    spec = dict(d)
    for key in [key for key in _LAWS if key in d]:
        law, what = getattr(_lib, _LAWS[key]), f"dataset {d['name']}: {key} block"
        if not isinstance(d[key], dict):
            raise UsageError(f"{what} must be an object")
        unknown = sorted(d[key].keys() - {f.name for f in fields(law)})
        if unknown:
            raise UsageError(f"{what} has unknown field(s) {', '.join(map(repr, unknown))}")
        spec[key] = _build(law, d[key], what, repr)
    return spec


def _collapse_ready(quantity: str, spec: dict, shared: dict) -> bool:
    key, also, _, _ = _COLLAPSE_QUANTITIES[quantity]
    return key in spec and (also is None or shared[also] is not None)


def _cmd_collapse(args) -> int:
    if not args.config:
        raise UsageError("collapse requires --config with a dataset table")
    cfg = args.config_table  # loaded and checked by _apply_config_defaults
    datasets = cfg.get("datasets")
    if not (isinstance(datasets, list) and datasets):
        raise UsageError("config must list at least one dataset")
    names = set()
    for d in datasets:
        if not (isinstance(d, dict) and all(isinstance(d.get(k), str) for k in ("name", "curve"))):
            raise UsageError("each dataset must be an object with a string 'name' and 'curve'")
        if d["name"] in names:
            raise UsageError(f"dataset name '{d['name']}' is used more than once")
        names.add(d["name"])
        if not os.path.isfile(d["curve"]):
            raise UsageError(f"curve file does not exist: {d['curve']}")
    datasets = [_dataset_spec(d) for d in datasets]
    shared = {"theta": cfg.get("theta"), "reference": None}
    if shared["theta"] is not None:
        _number(shared["theta"], "theta")
    ref_name = cfg.get("reference")
    if ref_name is not None:
        matches = [d for d in datasets if d["name"] == ref_name]
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
    for quantity in quantities:
        for d in datasets:
            if not _collapse_ready(quantity, d, shared):
                what = _COLLAPSE_QUANTITIES[quantity][2]
                raise UsageError(f"dataset {d['name']}: '{quantity}' needs {what}")

    curves = {d["name"]: _read_curve(d["curve"]) for d in datasets}
    for quantity in quantities:
        compute = _COLLAPSE_QUANTITIES[quantity][3]
        rows = []
        skipped = 0
        for d in datasets:
            name = d["name"]
            curve = curves[name]
            values = compute(curve, d, shared)
            for qi, vi in zip(curve.q_grid, values):
                if math.isfinite(vi):
                    rows.append([name, repr(float(qi)), repr(float(vi))])
                else:
                    skipped += 1
        path = _out_path(None, f"{args.out_prefix}.{quantity}.csv")
        if skipped:
            print(f"note: skipped {skipped} undefined point(s) in {path}", file=sys.stderr)
        _write_csv(path, ["dataset", "q", "value"], rows)
    return 0


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
        try:
            args = parser.parse_args(list(argv))
            if args.config:
                args = _apply_config_defaults(parser, registry, args, list(argv))
        except SystemExit as e:  # argparse has printed its message
            return 0 if e.code in (0, None) else 2
        path = getattr(args, "input", None)
        if path is not None and not os.path.isfile(path):
            raise UsageError(f"input file does not exist: {path}")
        return args.handler(args)
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

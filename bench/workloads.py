"""The benchmark's workloads and the instrumentation their traced passes share.

Each workload builds its inputs from the seed alone, runs one *pass* of
fixed work per call to :meth:`run_pass`, and checks a pass's outputs against
references computed outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import subprocess
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.integrate

import oracles
from launcher import Launcher, count_notes
from interevent import (
    DEFAULT_Q_GRID,
    Delta,
    FitResult,
    Laplace,
    ModelParams,
    QMomentCurve,
    SeriesTruncationWarning,
    SimConfig,
    StretchedExp,
    Uniform,
    cli,
    densities,
    empirical,
    fitting,
    moments,
    simulate,
)


@dataclass(frozen=True)
class Sizes:
    cli_events: int
    replicates: int
    replicate_events: int
    table_points: int
    setup_imports: int


# the CLI chain runs 2*10^5 events rather than the north-star 10^6, so that a
# run of under a minute holds about six passes to take the median of
FULL = Sizes(cli_events=200_000, replicates=100, replicate_events=20_000, table_points=200, setup_imports=4)
SMOKE = Sizes(cli_events=20_000, replicates=4, replicate_events=5_000, table_points=20, setup_imports=1)

# the simulated law of both event workloads: stretched weight, alpha 1.5, sigma 1
EVENT_PARAMS = ModelParams(StretchedExp(mu=0.0, sigma=1.0, alpha=1.5), tau0=1.0, beta=1.0)


@dataclass
class PassResult:
    wall_s: float
    ops: int = 0
    failures: list[str] = field(default_factory=list)
    # compared byte for byte between passes
    outputs: dict[str, bytes] = field(default_factory=dict)
    # named timings in seconds, one entry per occurrence
    timings: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    data: dict = field(default_factory=dict)


Check = tuple[str, bool, str]


def _check(name: str, failures: list[str]) -> Check:
    return (name, not failures, "; ".join(failures[:5]))


def _fit_doc(result: FitResult) -> str:
    """The fit JSON the CLI documents: params, q_domain, residual_norm, converged[, flags].

    Rebuilt from the documented format rather than taken from the CLI, so the
    check does not reuse the code it checks.
    """
    doc = {
        "params": {k: {"estimate": est, "stderr": se} for k, (est, se) in result.params.items()},
        "q_domain": [result.q_domain[0], result.q_domain[1]],
        "residual_norm": result.residual_norm,
        "converged": result.converged,
    }
    if result.flags:
        doc["flags"] = list(result.flags)
    return json.dumps(doc, indent=2) + "\n"


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------


class CliPipeline:
    """``simulate -> estimate -> fit mf, hmf, sojourn-weibull`` through the CLI."""

    name = "cli_pipeline"
    # orders at which the estimated curve is re-derived by a direct sum
    ORDERS = (0.5, 1.0, 2.0, 3.5, 10.0, 20.0)

    def __init__(self, seed: int, sizes: Sizes, launcher: Launcher, workdir: Path):
        self.seed, self.n = seed, sizes.cli_events
        self.launcher, self.workdir = launcher, workdir
        self._passes = 0

    def _steps(self, d: str):
        def p(name: str) -> str:
            return f"{d}/{name}" if d else name

        return [
            ("simulate", ["simulate", "--weight", "stretched", "--alpha", "1.5", "--sigma", "1",
                          "--n", str(self.n), "--seed", str(self.seed), "--out", p("events.csv")]),
            ("estimate", ["estimate", "--input", p("events.csv"),
                          "--out-moments", p("moments.csv"), "--out-sojourn", p("sojourn.csv")]),
            ("fit", ["fit", "--kind", "mf", "--input", p("moments.csv"), "--out", p("mf.json")]),
            ("fit", ["fit", "--kind", "hmf", "--input", p("moments.csv"), "--out", p("hmf.json")]),
            ("fit", ["fit", "--kind", "sojourn-weibull", "--input", p("sojourn.csv"),
                     "--out", p("weibull.json")]),
        ]

    def run_pass(self, in_process: bool) -> PassResult:
        self._passes += 1
        d = self.workdir / f"cli-{self._passes}"
        d.mkdir()
        res = PassResult(wall_s=0.0, timings={"cli_simulate_s": [], "cli_estimate_s": [], "cli_fit_s": []})
        stage_s = {"simulate": 0.0, "estimate": 0.0, "fit": 0.0}
        start = time.perf_counter()
        # subprocesses run in the pass directory with relative paths; in process
        # the paths are absolute because this process's working directory differs
        for stage, argv in self._steps(str(d) if in_process else ""):
            res.ops += 1
            t0 = time.perf_counter()
            if in_process:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run(argv)
                res.counts["cli.notes"] = res.counts.get("cli.notes", 0) + count_notes(err.getvalue())
                detail = err.getvalue()[-300:]
            else:
                try:
                    proc = self.launcher.cli(argv, " ".join(argv[:3] if stage == "fit" else argv[:1]), d)
                    code, detail = proc.returncode, proc.stderr[-300:]
                    res.counts["cli.notes"] = res.counts.get("cli.notes", 0) + count_notes(proc.stderr)
                except (OSError, subprocess.TimeoutExpired) as e:
                    code, detail = -1, f"{type(e).__name__}: {e}"
            stage_s[stage] += time.perf_counter() - t0
            if code != 0:
                res.failures.append(f"{' '.join(argv[:3])} exited {code}: {detail}")
        res.wall_s = time.perf_counter() - start
        for stage, s in stage_s.items():
            res.timings[f"cli_{stage}_s"].append(s)
        for f in sorted(d.iterdir()):
            res.outputs[f.name] = f.read_bytes()
        shutil.rmtree(d)
        sizes = {k: len(v) for k, v in res.outputs.items()}
        res.counts["cli.bytes_written"] = sum(sizes.values())
        res.counts["cli.bytes_read"] = sum(
            sizes.get(f, 0) for f in ("events.csv", "moments.csv", "moments.csv", "sojourn.csv")
        )
        return res

    def checks(self, res: PassResult) -> list[Check]:
        out = res.outputs
        missing = [f for f in ("events.csv", "moments.csv", "sojourn.csv", "mf.json", "hmf.json",
                               "weibull.json") if f not in out]
        if missing:
            return [("cli outputs present", False, f"missing {missing}")]
        checks: list[Check] = []
        frozen = oracles.FROZEN_SIMULATE_SHA256.get((self.n, self.seed))
        if frozen is not None:
            got = oracles.sha256(out["events.csv"])
            checks.append(("simulate csv sha256 frozen", got == frozen, f"{got} != {frozen}"))

        expected = simulate.generate_series(SimConfig(EVENT_PARAMS, self.n, self.seed)).durations
        events = oracles.parse_column_csv(out["events.csv"], "dt")
        exact = events.shape == expected.shape and np.array_equal(
            events.view(np.int64), expected.view(np.int64))
        checks.append(("simulate csv round-trips to generate_series", exact, ""))

        table = oracles.parse_table_csv(out["moments.csv"])
        q, lnm = table["q"], table["log_norm_moment"]
        bad = []
        for order in self.ORDERS:
            i = int(np.argmin(np.abs(q - order)))
            got = lnm[i] + math.lgamma(1.0 + q[i])
            want = oracles.direct_log_moment(events, q[i])
            if not oracles.log_moment_close(got, want):
                bad.append(f"q={q[i]}: {got!r} vs {want!r}")
        checks.append(("estimate q-moments match direct sums", not bad and q.size == 201, "; ".join(bad)))

        surv = oracles.parse_table_csv(out["sojourn.csv"])
        bad = [f"t={t!r}" for t, psi in zip(surv["t"], surv["psi"])
               if psi != oracles.direct_survival(events, t)]
        checks.append(("estimate survival matches direct counts", not bad, "; ".join(bad[:5])))

        curve = QMomentCurve(q_grid=q, log_norm_moment=lnm, n_samples=int(table["n_samples"][0]),
                             stderr=table["stderr"])
        keep = surv["psi"] > 0
        fits = {
            "mf.json": lambda: fitting.fit_mf(curve, (0.0, 3.5)),
            "hmf.json": lambda: fitting.fit_hmf(curve, (0.0, 20.0)),
            "weibull.json": lambda: fitting.fit_sojourn(surv["t"][keep], surv["psi"][keep], fitting.Weibull),
        }
        for fname, fit in fits.items():
            result = fit()
            checks.append((f"fit {fname} matches in-process fit",
                           out[fname].decode() == _fit_doc(result) and result.converged, ""))
        return checks

    def end_to_end(self, passes: list[PassResult]) -> dict:
        wall = [p.wall_s for p in passes]
        out = {"wall_s": (_median(wall), "s", len(wall)),
               "events_per_s": (self.n / _median(wall), "1/s", len(wall))}
        for key in ("cli_simulate_s", "cli_estimate_s", "cli_fit_s"):
            vals = [v for p in passes for v in p.timings[key]]
            out[key] = (_median(vals), "s", len(vals))
        return out


# ---------------------------------------------------------------------------
# replicate_fits
# ---------------------------------------------------------------------------


class ReplicateFits:
    """Seeded small replicates through generate -> q-moments -> fits, in process."""

    name = "replicate_fits"
    Q = np.arange(36) / 10.0  # [0, 3.5] in steps of 0.1
    ORDERS = (0.5, 1.0, 2.0, 3.5)

    def __init__(self, seed: int, sizes: Sizes, launcher: Launcher, workdir: Path):
        self.n = sizes.replicate_events
        state = np.random.SeedSequence(seed).generate_state(sizes.replicates, dtype=np.uint64)
        self.seeds = [int(s) for s in state]

    def run_pass(self, in_process: bool = True) -> PassResult:
        res = PassResult(wall_s=0.0, timings={"replicate_s": []}, data={"replicates": []})
        start = time.perf_counter()
        for k, sim_seed in enumerate(self.seeds):
            res.ops += 1
            t0 = time.perf_counter()
            try:
                series = simulate.generate_series(SimConfig(EVENT_PARAMS, self.n, sim_seed))
                curve = empirical.empirical_qmoments(series, self.Q)
                mf = fitting.fit_mf(curve, (0.0, 3.5))
                grid = np.geomspace(series.durations.min(), series.durations.max(), 50)
                psi = empirical.empirical_sojourn(series, grid)
                keep = psi > 0
                weibull = fitting.fit_sojourn(grid[keep], psi[keep], fitting.Weibull)
                qexp = fitting.fit_sojourn(grid[keep], psi[keep], fitting.QExponential)
            except Exception as e:  # one failed replicate must not hide the others
                res.failures.append(f"replicate {k}: {type(e).__name__}: {e}")
                continue
            res.timings["replicate_s"].append(time.perf_counter() - t0)
            fits = (mf, weibull, qexp)
            res.outputs[f"replicate {k}"] = (
                curve.log_norm_moment.tobytes() + curve.stderr.tobytes() + repr(fits).encode())
            res.data["replicates"].append((series.durations, curve, fits))
        res.wall_s = time.perf_counter() - start
        return res

    def checks(self, res: PassResult) -> list[Check]:
        unconverged, mismatched = [], []
        for k, (durations, curve, fits) in enumerate(res.data["replicates"]):
            if not all(f.converged for f in fits):
                unconverged.append(f"replicate {k}")
            for order in self.ORDERS:
                i = int(np.argmin(np.abs(curve.q_grid - order)))
                got = curve.log_norm_moment[i] + math.lgamma(1.0 + curve.q_grid[i])
                if not oracles.log_moment_close(got, oracles.direct_log_moment(durations, curve.q_grid[i])):
                    mismatched.append(f"replicate {k} q={curve.q_grid[i]}")
        return [_check("replicate fits converge", unconverged),
                _check("replicate q-moments match direct sums", mismatched)]

    def end_to_end(self, passes: list[PassResult]) -> dict:
        wall = [p.wall_s for p in passes]
        lat_ms = [1e3 * v for p in passes for v in p.timings["replicate_s"]]
        events = self.n * len(self.seeds)
        return {"wall_s": (_median(wall), "s", len(wall)),
                "events_per_s": (events / _median(wall), "1/s", len(wall)),
                "op_p50_ms": (_median(lat_ms), "ms", len(lat_ms)),
                "op_p90_ms": (float(np.percentile(lat_ms, 90)) if lat_ms else math.nan, "ms", len(lat_ms))}


# ---------------------------------------------------------------------------
# model_tables
# ---------------------------------------------------------------------------


def _laplace_critical(sigma: float) -> ModelParams:
    # beta*sigma must be exactly 1.0 in floating point for the critical phase
    beta = 1.0 / sigma
    while beta * sigma != 1.0:
        sigma = float(np.nextafter(sigma, 2.0))
        beta = 1.0 / sigma
    return ModelParams(Laplace(sigma=sigma), tau0=1.0, beta=beta)


class ModelTables:
    """Density/survival tables per weight family, moment routes, and the numeric survival fit."""

    name = "model_tables"
    FIT_ALPHA = 1.5

    def __init__(self, seed: int, sizes: Sizes, launcher: Launcher, workdir: Path):
        f = 0.9 + 0.2 * float(np.random.default_rng(seed).random())  # sigma scale in [0.9, 1.1)
        fam = {
            "delta": ModelParams(Delta(mu=0.0)),
            "uniform": ModelParams(Uniform(half_width=f)),
            "laplace_below_1": ModelParams(Laplace(sigma=0.5 * f)),
            "laplace_at_1": _laplace_critical(f),
            "laplace_above_1": ModelParams(Laplace(sigma=2.0 * f)),
        }
        for alpha in (0.8, 1.5, 2.0, 2.5):
            fam[f"stretched_{alpha}"] = ModelParams(StretchedExp(mu=0.0, sigma=f, alpha=alpha))
        self.families = fam
        self.t = np.geomspace(0.01, 100.0, sizes.table_points)
        # families with every moment finite on the grid; Laplace only below q*beta*sigma = 1
        sb = 0.5 * f
        self.curves = [(k, fam[k], DEFAULT_Q_GRID) for k in
                       ("delta", "uniform", "stretched_1.5", "stretched_2.0", "stretched_2.5")]
        self.curves.insert(2, ("laplace_below_1", fam["laplace_below_1"], DEFAULT_Q_GRID[DEFAULT_Q_GRID * sb < 1.0]))
        self.orders = DEFAULT_Q_GRID[1:]  # saddle point degenerates at q = 0
        self.fit_target = fam[f"stretched_{self.FIT_ALPHA}"]
        self.fit_t = np.geomspace(0.05, 20.0, 40)
        self.fit_psi = densities.sojourn(self.fit_t, self.fit_target)
        self.points = (2 * len(fam) * self.t.size + sum(q.size for _, _, q in self.curves)
                       + 2 * self.orders.size)

    def run_pass(self, in_process: bool = True) -> PassResult:
        res = PassResult(wall_s=0.0, timings={"table_s": [], "sojourn_fit_s": []})
        out = res.outputs
        target = self.fit_target
        bs = target.beta * target.weight.sigma
        start = time.perf_counter()
        try:
            for name, params in self.families.items():
                out[f"ptd {name}"] = densities.ptd(self.t, params).tobytes()
                out[f"sojourn {name}"] = densities.sojourn(self.t, params).tobytes()
                res.ops += 2
            for name, params, q in self.curves:
                out[f"curve {name}"] = moments.model_curve(q, params).log_norm_moment.tobytes()
                res.ops += 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SeriesTruncationWarning)
                series = [moments.moment_stretched_series(float(q), target) for q in self.orders]
            saddle = [moments.saddlepoint_iq(float(q), self.FIT_ALPHA, bs) for q in self.orders]
            res.ops += 2 * self.orders.size
            tables_done = time.perf_counter()
            fit = fitting.fit_sojourn(self.fit_t, self.fit_psi, fitting.StretchedSojourn)
            res.ops += 1
        except Exception as e:  # the pass's outputs are incomplete; the checks report it
            res.failures.append(f"{type(e).__name__}: {e}")
            res.wall_s = time.perf_counter() - start
            return res
        end = time.perf_counter()
        res.wall_s = end - start
        res.timings["table_s"].append(tables_done - start)
        res.timings["sojourn_fit_s"].append(end - tables_done)
        out["series"] = repr(series).encode()
        out["saddle"] = repr(saddle).encode()
        out["fit"] = repr(fit).encode()
        res.data = {"series": series, "saddle": saddle, "fit": fit}
        return res

    def _b_of(self, params: ModelParams) -> float:
        a, bs = params.weight.alpha, params.beta * params.weight.sigma
        return (a - 1.0) * (bs / a) ** (a / (a - 1.0))

    def checks(self, res: PassResult) -> list[Check]:
        if res.failures:
            return [("model tables complete", False, res.failures[0])]
        t = self.t
        spots = sorted({0, t.size // 2, t.size - 1})
        off, not_finite = [], []
        for name, params in self.families.items():
            for kind, survival in (("ptd", False), ("sojourn", True)):
                values = np.frombuffer(res.outputs[f"{kind} {name}"])
                if not np.all(np.isfinite(values)) or np.any(values < 0):
                    not_finite.append(f"{kind} {name}")
                for i in spots:
                    want = oracles.mp_mixture(float(t[i]), params, survival)
                    if not abs(values[i] - want) <= 1e-6 * abs(want):
                        off.append(f"{kind} {name} t={t[i]:.4g}: {values[i]!r} vs {want!r}")
        curves_bad = [name for name, _, _ in self.curves
                      if not np.all(np.isfinite(np.frombuffer(res.outputs[f"curve {name}"])))]

        # orders where the series converged must agree with the quadrature curve
        quad = dict(zip(DEFAULT_Q_GRID, np.frombuffer(res.outputs["curve stretched_1.5"])))
        series_off = []
        for q, r in zip(self.orders, res.data["series"]):
            if r.converged and math.isfinite(r.value) and r.value > 0:
                got = math.log(r.value) - math.lgamma(1.0 + q)
                if not oracles.log_moment_close(got, quad[q], 1e-8):
                    series_off.append(f"q={q}")
        saddle_bad = [f"q={q}" for q, s in zip(self.orders, res.data["saddle"])
                      if not (math.isfinite(s.prefactor) and s.prefactor > 0)]

        fit = res.data["fit"]
        want = {"alpha": self.FIT_ALPHA, "b": self._b_of(self.fit_target), "c0": 0.0}
        fit_off = [f"{k}={fit.estimate(k)!r} vs {v!r}" for k, v in want.items()
                   if not abs(fit.estimate(k) - v) <= 1e-6 * max(1.0, abs(v))]
        if not fit.converged:
            fit_off.append("not converged")
        return [_check("ptd/sojourn spot values match mpmath", off),
                _check("tables finite and nonnegative", not_finite),
                _check("model curves finite", curves_bad),
                _check("converged series match quadrature curve", series_off),
                _check("saddle-point prefactors finite", saddle_bad),
                _check("StretchedSojourn fit recovers its target", fit_off)]

    def end_to_end(self, passes: list[PassResult]) -> dict:
        wall = [p.wall_s for p in passes]
        tab = [v for p in passes for v in p.timings["table_s"]]
        fit = [v for p in passes for v in p.timings["sojourn_fit_s"]]
        return {"wall_s": (_median(wall), "s", len(wall)),
                "points_per_s": (self.points / _median(tab), "1/s", len(tab)),
                "sojourn_fit_s": (_median(fit), "s", len(fit))}


# ---------------------------------------------------------------------------
# in_process: replicate_fits then model_tables
# ---------------------------------------------------------------------------


class InProcess:
    """One pass of :class:`ReplicateFits` then one of :class:`ModelTables`.

    The two run as one workload because the model tables alone are too
    unsteady to gate on: their quadrature is interpreter-bound, and on a
    shared 2-vCPU VM their pass time spread by 26-40% (IQR over median of
    ten runs) against 3-21% for the replicate fits.  Timed as one pass, the
    tables are a quarter of the time.
    """

    name = "in_process"

    def __init__(self, seed: int, sizes: Sizes, launcher: Launcher, workdir: Path):
        self.parts = (ReplicateFits(seed, sizes, launcher, workdir),
                      ModelTables(seed, sizes, launcher, workdir))

    def run_pass(self, in_process: bool = True) -> PassResult:
        start = time.perf_counter()
        parts = [part.run_pass() for part in self.parts]
        res = PassResult(wall_s=time.perf_counter() - start, data={"parts": parts})
        for part, r in zip(self.parts, parts):
            res.ops += r.ops
            res.failures += r.failures
            res.outputs.update({f"{part.name} {k}": v for k, v in r.outputs.items()})
            res.timings.update(r.timings)
            res.timings[f"{part.name}_wall_s"] = [r.wall_s]
        return res

    def checks(self, res: PassResult) -> list[Check]:
        return [c for part, r in zip(self.parts, res.data["parts"]) for c in part.checks(r)]

    def end_to_end(self, passes: list[PassResult]) -> dict:
        out = {"wall_s": (_median([p.wall_s for p in passes]), "s", len(passes))}
        for part in self.parts:
            key = f"{part.name}_wall_s"
            sub = [PassResult(wall_s=p.timings[key][0], timings=p.timings) for p in passes]
            for name, value in part.end_to_end(sub).items():
                out[key if name == "wall_s" else name] = value
        return out


WORKLOADS = {w.name: w for w in (CliPipeline, InProcess)}


# ---------------------------------------------------------------------------
# Instrumentation for the traced pass
# ---------------------------------------------------------------------------

_FAMILY = {"Delta": "delta", "Uniform": "uniform", "Laplace": "laplace", "StretchedExp": "stretched"}
_SOJOURN_MODEL = {"Weibull": "weibull", "QExponential": "qexp", "StretchedSojourn": "stretched"}
LAYERS = ("cli", "simulate", "empirical", "fitting", "densities", "moments", "core")
FIT_KINDS = ("mf", "hmf", "weibull", "qexp", "stretched")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _family(args, kwargs) -> str:
    return _FAMILY[type(_arg(args, kwargs, 1, "params").weight).__name__]


def _curve_route(args, kwargs) -> str:
    w = _arg(args, kwargs, 1, "params").weight
    if not isinstance(w, StretchedExp):
        return "moments.model_curve.closed"
    return "moments.model_curve." + ("gaussian" if w.alpha == 2.0 else "quadrature")


def _add(amounts: dict):
    """Counter updates ``{name: fn(args, kwargs, result)}`` run after a call."""
    def after(rec, span, args, kwargs, result):
        for key, fn in amounts.items():
            rec.counts[key] += fn(args, kwargs, result)
    return after


def _count_fit_evals(rec, span, args, kwargs, result):
    kind = span.parent.name.rsplit(".", 1)[-1].removeprefix("fit_")
    rec.counts[f"fitting.nfev.{kind}"] += result.nfev
    rec.counts[f"fitting.njev.{kind}"] += result.njev or 0


def _first_call_alloc(rec, owner, attr: str, key: str) -> None:
    """Measure the peak traced allocation of the first call to ``owner.attr``.

    Only the first call runs under tracemalloc, so the allocator hooks slow
    down one call of the pass rather than all of them.
    """
    original = getattr(owner, attr)

    def measured(*args, **kwargs):
        if key in rec.counts:
            return original(*args, **kwargs)
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            rec.counts[key] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()

    rec.replace(owner, attr, measured)


def instrument(rec) -> None:
    """Patch the attributes the package and this benchmark call through."""
    rec.patch(cli, "run", "cli", lambda a, k: "cli.run." + _arg(a, k, 0, "argv")[0])
    events = _add({"simulate.events": lambda a, k, r: len(r)})
    rec.patch(cli, "generate_series", "simulate", "simulate.generate_series", events)
    rec.patch(simulate, "generate_series", "simulate", "simulate.generate_series", events)
    rec.patch(simulate, "sample_interevent", "simulate", "simulate.block",
              _add({"simulate.blocks": lambda a, k, r: 1}))

    rec.patch(empirical, "ingest", "empirical", "empirical.ingest",
              _add({"empirical.ingest.dropped": lambda a, k, r: sum(r.dropped.values())}))
    _first_call_alloc(rec, empirical, "empirical_qmoments", "empirical.qmoments.peak_alloc_mb")
    rec.patch(empirical, "empirical_qmoments", "empirical", "empirical.qmoments",
              _add({"empirical.qmoments.calls": lambda a, k, r: 1,
                    "empirical.qmoments.elements": lambda a, k, r: r.n_samples * r.q_grid.size}))
    rec.patch(empirical, "empirical_sojourn", "empirical", "empirical.sojourn")

    rec.patch(fitting, "fit_mf", "fitting", "fitting.fit_mf")
    rec.patch(fitting, "fit_hmf", "fitting", "fitting.fit_hmf")
    rec.patch(fitting, "fit_sojourn", "fitting",
              lambda a, k: "fitting.fit_sojourn." + _SOJOURN_MODEL[_arg(a, k, 2, "model_class").__name__])
    rec.patch(fitting, "least_squares", "fitting", "fitting.least_squares", _count_fit_evals)
    # the numeric survival model evaluates densities.sojourn under this name
    rec.patch(fitting, "_sojourn", "densities", "fitting.sojourn_eval",
              _add({"fitting.sojourn_evals": lambda a, k, r: 1,
                    "fitting.sojourn_eval_points": lambda a, k, r: np.size(a[0])}))

    points = _add({"densities.points": lambda a, k, r: np.size(_arg(a, k, 0, "t"))})
    rec.patch(densities, "ptd", "densities", lambda a, k: f"densities.ptd.{_family(a, k)}", points)
    rec.patch(densities, "sojourn", "densities", lambda a, k: f"densities.sojourn.{_family(a, k)}", points)

    rec.patch(moments, "model_curve", "moments", _curve_route)
    rec.patch(moments, "moment_stretched_series", "moments", "moments.series",
              _add({"moments.series.terms": lambda a, k, r: r.terms_used,
                    "moments.series.truncated": lambda a, k, r: int(not r.converged)}))
    rec.patch(moments, "saddlepoint_iq", "moments", "moments.saddle")

    rec.patch(densities, "_log_peak_quad", "core", "core.log_peak_quad")
    rec.patch(moments, "_log_peak_quad", "core", "core.log_peak_quad")
    rec.patch(scipy.integrate, "quad", "core", "core.quad")


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.startswith("cli.bytes"):
        return "bytes"
    return "ratio" if name.endswith("_ratio") else "count"


def layer_metrics(rec, traced: PassResult, untraced: PassResult, root_s: float,
                  import_modules: int) -> dict[str, float]:
    """Every per-layer metric of a traced pass; absent layers read 0."""
    m: dict[str, float] = {"cli.import_modules": import_modules}
    by_layer = rec.self_s_by_layer()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    for command in ("simulate", "estimate", "fit"):
        m[f"cli.{command}.self_s"] = sum(s.self_s for s in rec.spans if s.name == f"cli.run.{command}")
    for key in ("cli.bytes_written", "cli.bytes_read", "cli.notes"):
        m[key] = traced.counts.get(key, 0)
    m["simulate.generate_series.s"] = rec.total_s("simulate.generate_series")
    for key in ("simulate.events", "simulate.blocks", "empirical.ingest.dropped",
                "empirical.qmoments.calls", "empirical.qmoments.elements",
                "empirical.qmoments.peak_alloc_mb", "fitting.sojourn_evals",
                "fitting.sojourn_eval_points", "densities.points", "moments.series.terms",
                "moments.series.truncated"):
        m[key] = rec.counts.get(key, 0)
    for name in ("empirical.ingest", "empirical.qmoments", "empirical.sojourn", "fitting.fit_mf",
                 "fitting.fit_hmf", "moments.series", "moments.saddle"):
        m[f"{name}.s"] = rec.total_s(name)
    for kind in ("weibull", "qexp", "stretched"):
        m[f"fitting.fit_sojourn.{kind}.s"] = rec.total_s(f"fitting.fit_sojourn.{kind}")
    for kind in FIT_KINDS:
        m[f"fitting.nfev.{kind}"] = rec.counts.get(f"fitting.nfev.{kind}", 0)
        m[f"fitting.njev.{kind}"] = rec.counts.get(f"fitting.njev.{kind}", 0)
    for fam in _FAMILY.values():
        m[f"densities.ptd.{fam}.s"] = rec.total_s(f"densities.ptd.{fam}")
        m[f"densities.sojourn.{fam}.s"] = rec.total_s(f"densities.sojourn.{fam}")
    for route in ("closed", "gaussian", "quadrature"):
        m[f"moments.model_curve.{route}.s"] = rec.total_s(f"moments.model_curve.{route}")
    m["core.quad_calls"] = rec.calls("core.quad")
    m["core.quad_s"] = rec.total_s("core.quad")
    m["unattributed.self_s"] = by_layer.get("unattributed", 0.0)
    m["trace.wall_s"] = root_s
    m["trace.untraced_wall_s"] = untraced.wall_s
    m["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    return m

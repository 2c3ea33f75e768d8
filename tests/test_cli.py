"""Checks of the command-line interface, end to end via subprocess, and of its CSV writer."""
import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from interevent import cli, fitting, moments

CMD = [sys.executable, "-m", "interevent"]


def run_cli(args, cwd, env_extra=None, cmd=CMD):
    env = dict(os.environ)
    # absolute src first, so the child finds the package from any cwd without an install
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        cmd + [str(a) for a in args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_ptd_writes_density_table(tmp_path):
    r = run_cli(
        ["ptd", "--weight", "laplace", "--sigma", "0.5", "--tmin", "0.01",
         "--tmax", "10", "--points", "20", "--out", "d.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(tmp_path / "d.csv")
    assert header == ["t", "psi", "sojourn"]
    assert len(rows) == 20
    t = np.array([float(x[0]) for x in rows])
    psi = np.array([float(x[1]) for x in rows])
    soj = np.array([float(x[2]) for x in rows])
    assert t[0] == pytest.approx(0.01) and t[-1] == pytest.approx(10.0)
    assert np.all(psi > 0)
    assert np.all(np.diff(soj) <= 0)


def test_ptd_log_spacing_rejects_nonpositive_tmin(tmp_path):
    r = run_cli(["ptd", "--weight", "delta", "--tmin", "0", "--out", "d.csv"], tmp_path)
    assert r.returncode == 2
    assert "usage error" in r.stderr


def test_moments_gaussian_matches_closed_form(tmp_path):
    r = run_cli(
        ["moments", "--model", "gaussian", "--sigma", "1.0", "--alpha", "2",
         "--qmax", "3", "--qstep", "0.5", "--out", "m.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(tmp_path / "m.csv")
    assert header == ["q", "log_norm_moment"]
    got = {float(q): float(v) for q, v in rows}
    assert got[0.0] == 0.0
    assert got[2.0] == pytest.approx(1.0, rel=1e-12)  # (q sigma beta)^2 / 4


def test_moments_gaussian_requires_alpha_two(tmp_path):
    r = run_cli(
        ["moments", "--model", "gaussian", "--sigma", "1.0", "--alpha", "1.5"],
        tmp_path,
    )
    assert r.returncode == 2
    assert "usage error" in r.stderr


def test_moments_missing_required_flag(tmp_path):
    r = run_cli(["moments", "--model", "laplace"], tmp_path)
    assert r.returncode == 2
    assert "sigma" in r.stderr


def test_moments_divergence_maps_to_exit_one(tmp_path):
    # laplace moments blow up at q sigma beta = 1
    r = run_cli(
        ["moments", "--model", "laplace", "--sigma", "1.0", "--qmax", "5", "--out", "m.csv"],
        tmp_path,
    )
    assert r.returncode == 1
    lines = [ln for ln in r.stderr.splitlines() if ln]
    assert len(lines) == 1
    kind, name, _ = lines[0].split("\t", 2)
    assert kind == "error"
    assert name == "DivergentMomentError"


def test_moments_saddle_defaults_skip_zero(tmp_path):
    r = run_cli(
        ["moments", "--model", "saddle", "--sigma", "1.5", "--alpha", "1.5",
         "--qmax", "2", "--qstep", "0.1", "--out", "m.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "m.csv")
    qs = [float(x[0]) for x in rows]
    assert qs[0] == pytest.approx(0.1)  # saddle point undefined at q=0


def test_unknown_flag_is_usage_error(tmp_path):
    r = run_cli(["simulate", "--weight", "delta", "--n", "5", "--seed", "1", "--frobnicate"], tmp_path)
    assert r.returncode == 2


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--weight", "stretched", "--sigma", "1.0", "--alpha", "2",
            "--n", "200", "--seed", "11", "--out", "a.csv"]
    r1 = run_cli(args, tmp_path)
    assert r1.returncode == 0, r1.stderr
    first = (tmp_path / "a.csv").read_bytes()
    args[-1] = "b.csv"
    r2 = run_cli(args, tmp_path)
    assert r2.returncode == 0
    assert first == (tmp_path / "b.csv").read_bytes()
    header, rows = read_csv(tmp_path / "a.csv")
    assert header == ["dt"]
    assert len(rows) == 200
    assert all(float(x[0]) > 0 for x in rows)


def test_simulate_bytes_frozen(tmp_path):
    # pins line ends and float formatting, which the run-to-run check above cannot see
    r = run_cli(["simulate", "--weight", "stretched", "--sigma", "1.0", "--alpha", "2",
                 "--n", "200", "--seed", "11", "--out", "a.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    digest = hashlib.sha256((tmp_path / "a.csv").read_bytes()).hexdigest()
    assert digest == "232f49ccabf3e90f7eff4c26e62fccccc32baa061c992847f871202cc05aa88c"


def test_moments_series_csv_pinned(tmp_path):
    # the series' log values on the default grid, byte for byte
    out = tmp_path / "m.csv"
    assert cli.run(["moments", "--model", "series", "--sigma", "1", "--alpha", "1.5",
                    "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "0b60adfd7f40699afa850190d99fc396dc04dfe295af68f8bfe386f2f55cad7b"


def test_moments_series_keeps_overflowing_orders(tmp_path):
    # <t^q> overflows a float from about q = 8.5 here; its log does not
    r = run_cli(["moments", "--model", "series", "--sigma", "2", "--alpha", "1.5",
                 "--qmax", "20", "--out", "m.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "m.csv")
    assert len(rows) == 201
    values = np.array([float(v) for _, v in rows])
    assert values[0] == 0.0
    assert np.all(np.isfinite(values)) and np.all(np.diff(values[1:]) > 0)
    assert r.stderr == ""


def test_moments_series_has_no_term_flag(tmp_path):
    r = run_cli(["moments", "--model", "series", "--sigma", "1", "--alpha", "1.5",
                 "--nmax", "5", "--out", "m.csv"], tmp_path)
    assert r.returncode == 2
    assert not (tmp_path / "m.csv").exists()


def test_moments_series_past_term_cap_maps_to_exit_one(tmp_path):
    # at alpha = 1.2 the series needs more terms than its cap from q of about 8
    r = run_cli(["moments", "--model", "series", "--sigma", "1", "--alpha", "1.2",
                 "--out", "m.csv"], tmp_path)
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error\tModelDomainError\t")
    assert r.stdout == ""
    assert not (tmp_path / "m.csv").exists()


def test_estimate_reads_durations_and_timestamps(tmp_path):
    (tmp_path / "events.csv").write_text("dt\n1.0\n2.0\n4.0\n")
    r = run_cli(
        ["estimate", "--input", "events.csv", "--qmax", "2", "--qstep", "1",
         "--sojourn-points", "5", "--out-moments", "m.csv", "--out-sojourn", "s.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(tmp_path / "m.csv")
    assert header == ["q", "log_norm_moment", "stderr", "n_samples"]
    got = {float(row[0]): float(row[1]) for row in rows}
    assert got[1.0] == pytest.approx(math.log(7.0 / 3.0), rel=1e-12)
    sh, srows = read_csv(tmp_path / "s.csv")
    assert sh == ["t", "psi"]
    assert len(srows) == 5

    # cumulative timestamps give identical durations
    (tmp_path / "stamps.csv").write_text("t\n0.0\n1.0\n3.0\n7.0\n")
    r2 = run_cli(
        ["estimate", "--input", "stamps.csv", "--qmax", "2", "--qstep", "1",
         "--sojourn-points", "5", "--out-moments", "m2.csv", "--out-sojourn", "s2.csv"],
        tmp_path,
    )
    assert r2.returncode == 0, r2.stderr
    assert (tmp_path / "m2.csv").read_bytes() == (tmp_path / "m.csv").read_bytes()


def test_estimate_missing_input_file(tmp_path):
    r = run_cli(["estimate", "--input", "absent.csv"], tmp_path)
    assert r.returncode == 2


@pytest.mark.parametrize("args, message", [
    (["fit", "--kind", "mf", "--input", "d"], "input file does not exist: d"),
    (["estimate", "--input", "d"], "input file does not exist: d"),
    (["simulate", "--config", "d"], "config file does not exist: d"),
    (["collapse", "--config", "c.json"], "curve file does not exist: d"),
], ids=["fit-input", "estimate-input", "config", "collapse-curve"])
def test_directory_path_is_usage_error(tmp_path, args, message):
    (tmp_path / "d").mkdir()
    cfg = {"datasets": [{"name": "aa", "curve": "d", "ln_tau": 1.0}]}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    r = run_cli(args, tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"usage error: {message}\n"


@pytest.mark.parametrize("args", [
    ["ptd", "--weight", "delta", "--out", "d"],
    ["moments", "--model", "delta", "--out", "d"],
    ["simulate", "--weight", "delta", "--n", "5", "--seed", "1", "--out", "d"],
    ["fit", "--kind", "mono", "--input", "e.csv", "--out", "d"],
    ["estimate", "--input", "e.csv", "--out-moments", "d"],
    ["estimate", "--input", "e.csv", "--out-moments", "m.csv", "--out-sojourn", "d"],
], ids=["ptd", "moments", "simulate", "fit", "estimate-moments", "estimate-sojourn"])
def test_directory_output_is_usage_error(tmp_path, args):
    (tmp_path / "d").mkdir()
    (tmp_path / "e.csv").write_text("dt\n1.0\n2.0\n4.0\n")
    r = run_cli(args, tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "usage error: output path is a directory: d\n"
    assert not (tmp_path / "m.csv").exists()


_ESTIMATE = ["estimate", "--input", "events.csv", "--out-moments", "m.csv", "--out-sojourn", "s.csv"]


@pytest.mark.parametrize("args", [
    [*_ESTIMATE, "--sojourn-points", "-3"],
    [*_ESTIMATE, "--qmax", "inf"],
    ["moments", "--model", "laplace", "--sigma", "0.5", "--qmax", "inf", "--out", "m.csv"],
    ["ptd", "--weight", "delta", "--tmax", "inf", "--out", "d.csv"],
    [*_ESTIMATE, "--gap-cutoff", "-1"],
    [*_ESTIMATE, "--min-duration", "-1"],
    [*_ESTIMATE, "--min-duration", "nan"],
    ["simulate", "--weight", "delta", "--n", "0", "--seed", "1", "--out", "sim.csv"],
    ["simulate", "--weight", "delta", "--n", "-5", "--seed", "1", "--out", "sim.csv"],
    ["simulate", "--weight", "delta", "--n", "5", "--seed", "-1", "--out", "sim.csv"],
    ["simulate", "--weight", "delta", "--n", "5", "--seed", str(2 ** 64), "--out", "sim.csv"],
    [*_ESTIMATE, "--qmin", "-2"],
    ["moments", "--model", "saddle", "--sigma", "1", "--alpha", "1.5", "--qmin", "-2", "--out", "m.csv"],
    ["moments", "--model", "mf", "--alpha", "2", "--c0", "0", "--b", "0.3", "--qmin", "-2", "--out", "m.csv"],
    ["moments", "--model", "hmf", "--alpha", "1.8", "--c0", "0", "--b", "0.3", "--b1", "0.2", "--qmin", "-1",
     "--qmax", "1", "--out", "m.csv"],
    ["moments", "--model", "delta", "--qmin", "-2", "--out", "m.csv"],
    ["moments", "--model", "series", "--sigma", "1", "--alpha", "1.5", "--qmin", "-1.5", "--out", "m.csv"],
], ids=["sojourn-points", "estimate-qmax", "moments-qmax", "ptd-tmax", "gap-cutoff", "min-duration",
        "min-duration-nan", "simulate-n-0", "simulate-n-negative", "simulate-seed-negative",
        "simulate-seed-2**64", "estimate-qmin-below-minus-1", "saddle-qmin-below-minus-1",
        "mf-qmin-below-minus-1", "hmf-qmin-minus-1", "delta-qmin-below-minus-1",
        "series-qmin-below-minus-1"])
def test_flag_values_checked_before_any_work_are_usage_errors(tmp_path, args):
    (tmp_path / "events.csv").write_text("dt\n1.0\n2.0\n4.0\n")
    r = run_cli(args, tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("usage error: ") and r.stderr.count("\n") == 1, r.stderr
    assert sorted(os.listdir(tmp_path)) == ["events.csv"]


@pytest.mark.parametrize("args, message", [
    (["ptd", "--weight", "uniform", "--out", "d.csv"], "--weight uniform needs --half-width"),
    (["simulate", "--weight", "laplace", "--n", "5", "--seed", "1", "--out", "e.csv"],
     "--weight laplace needs --sigma"),
    (["ptd", "--weight", "stretched", "--sigma", "1", "--out", "d.csv"], "--weight stretched needs --alpha"),
    (["moments", "--model", "mf", "--alpha", "2", "--out", "m.csv"], "--model mf needs --c0, --b"),
    (["moments", "--model", "hmf", "--out", "m.csv"], "--model hmf needs --alpha, --c0, --b, --b1"),
], ids=["ptd-uniform", "simulate-laplace", "ptd-stretched", "moments-mf", "moments-hmf"])
def test_missing_model_flags_are_named_in_one_usage_error(tmp_path, args, message):
    r = run_cli(args, tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"usage error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_config_key_supplies_a_model_flag(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"weight": "uniform", "half_width": 0.5}))
    r = run_cli(["ptd", "--config", "c.json", "--points", "5", "--out", "d.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert len(read_csv(tmp_path / "d.csv")[1]) == 5


def test_simulate_model_out_of_domain_is_computation_error_before_n_is_checked(tmp_path):
    r = run_cli(["simulate", "--weight", "stretched", "--sigma", "-1", "--alpha", "1.5",
                 "--n", "0", "--seed", "1", "--out", "sim.csv"], tmp_path)
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error\tModelDomainError\t"), r.stderr
    assert os.listdir(tmp_path) == []


def test_estimate_skips_orders_whose_log_gamma_overflows(tmp_path):
    # ln Gamma(1 + q) overflows a float from q of about 2.56e305; those orders are
    # non-finite rows, which the writer drops with a note, as for any other
    (tmp_path / "events.csv").write_text("dt\n1.0\n2.0\n4.0\n")
    r = run_cli(["estimate", "--input", "events.csv", "--qmax", "1e306", "--qstep", "1e305",
                 "--out-moments", "m.csv", "--out-sojourn", "s.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stderr == "note: skipped 8 non-finite row(s) in m.csv\n"
    _, rows = read_csv(tmp_path / "m.csv")
    assert [float(row[0]) for row in rows] == [0.0, 1e305, 2e305]


def test_numeric_writer_matches_csv_module(tmp_path, capsys):
    # 10,000 rows cross the writer's 4096-row blocks; the NaN row is dropped with a note
    rng = np.random.default_rng(5)
    cols = [rng.standard_normal(10_000) * 10.0 ** rng.integers(-300, 300, 10_000)
            for _ in range(3)]
    special = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -2.5]
    cols[0][:8], cols[1][8:16], cols[2][4092:4100] = special, special, special
    cols[1][5000] = np.nan
    path = str(tmp_path / "blocks.csv")
    cli._write_numeric_csv(path, ["a", "b", "c"], cols)
    keep = ~np.isnan(cols[1])
    cli._write_csv(str(tmp_path / "rows.csv"), ["a", "b", "c"],
                   [[repr(x) for x in row] for row in zip(*(c[keep].tolist() for c in cols))])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert capsys.readouterr().err == f"note: skipped 1 non-finite row(s) in {path}\n"


def test_fit_mono_json_schema(tmp_path):
    q = np.round(np.arange(0, 201) * 0.1, 10)
    with open(tmp_path / "curve.csv", "w") as fh:
        fh.write("q,log_norm_moment\n")
        for qi in q:
            fh.write(f"{qi},{qi * 3.25}\n")
    r = run_cli(["fit", "--kind", "mono", "--input", "curve.csv", "--out", "fit.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert set(doc) >= {"params", "q_domain", "residual_norm", "converged"}
    assert doc["converged"] is True
    assert doc["params"]["ln_tau"]["estimate"] == pytest.approx(3.25, rel=1e-12)
    assert doc["q_domain"] == [10.0, 20.0]


def test_fit_sojourn_flags_surface_in_json(tmp_path):
    t = np.geomspace(0.01, 20, 60)
    with open(tmp_path / "soj.csv", "w") as fh:
        fh.write("t,psi\n")
        for ti in t:
            fh.write(f"{ti},{math.exp(-0.8 * ti)}\n")
    r = run_cli(["fit", "--kind", "sojourn-qexp", "--input", "soj.csv", "--out", "f.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "f.json").read_text())
    assert "q_ts_at_lower_boundary" in doc.get("flags", [])


def test_pipeline_simulate_estimate_fit(tmp_path):
    r = run_cli(["simulate", "--weight", "delta", "--mu", "0", "--tau0", str(math.exp(1.5)),
                 "--n", "30000", "--seed", "4", "--out", "ev.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["estimate", "--input", "ev.csv", "--qmin", "0", "--qmax", "5",
                 "--qstep", "0.25", "--out-moments", "mom.csv", "--out-sojourn", "soj.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["fit", "--kind", "mono", "--input", "mom.csv", "--qmin", "1",
                 "--qmax", "5", "--out", "fit.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert doc["params"]["ln_tau"]["estimate"] == pytest.approx(1.5, abs=0.05)


def test_hmf_fit_that_reaches_the_alpha_bound_exits_cleanly(tmp_path):
    # the fit's first step puts alpha on its bound, where the law's powers overflow
    r = run_cli(["simulate", "--weight", "stretched", "--sigma", "0.5", "--alpha", "2.5",
                 "--n", "20000", "--seed", "0", "--out", "ev.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["estimate", "--input", "ev.csv", "--out-moments", "mom.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["fit", "--kind", "hmf", "--input", "mom.csv", "--out", "fit.json"], tmp_path)
    assert (r.returncode, r.stderr) == (0, "")
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert doc["flags"] == ["alpha_at_lower_boundary", "jacobian_rank_deficient"]


def test_config_supplies_defaults_and_flags_override(tmp_path):
    cfg = {"weight": "delta", "n": 25, "seed": 3, "out": "from_config.csv"}
    (tmp_path / "sim.json").write_text(json.dumps(cfg))
    r = run_cli(["simulate", "--config", "sim.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "from_config.csv").exists()
    # explicit flag beats the config value
    r = run_cli(["simulate", "--config", "sim.json", "--out", "override.csv", "--n", "7"], tmp_path)
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "override.csv")
    assert len(rows) == 7


def test_config_rejects_unknown_key(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"weight": "delta", "n": 5, "seed": 1, "bogus": 1}))
    r = run_cli(["simulate", "--config", "bad.json"], tmp_path)
    assert r.returncode == 2
    assert "bogus" in r.stderr


_CURVE_DATASET = {"datasets": [{"name": "aa", "curve": "curve.csv", "ln_tau": 1.0}]}


@pytest.mark.parametrize("command, cfg, extra, flag", [
    ("simulate", {"weight": "bogus", "sigma": 1, "alpha": 1.5, "n": 5, "seed": 1}, [], "--weight"),
    ("ptd", {"weight": "delta", "points": 5.5}, [], "--points"),
    ("fit", {"kind": "bogus"}, ["--input", "s.csv"], "--kind"),
    ("collapse", dict(_CURVE_DATASET, quantities=[]), [], "--quantities"),
    ("collapse", dict(_CURVE_DATASET, quantities="mono"), [], "'quantities' must be a list"),
], ids=["simulate-weight-choice", "ptd-points-type", "fit-kind-choice", "collapse-empty-quantities",
        "collapse-quantities-string"])
def test_config_values_get_the_flag_checks(tmp_path, monkeypatch, capsys, command, cfg, extra, flag):
    # a config value is checked as the flag it stands for would be: a usage error, nothing written
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.ENV_OUTDIR, raising=False)
    (tmp_path / "s.csv").write_text("t,psi\n1,0.5\n2,0.25\n3,0.1\n")
    (tmp_path / "curve.csv").write_text("q,log_norm_moment\n0.5,0.5\n1.0,1.0\n")
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert cli.run([command, "--config", "c.json", *extra]) == 2
    assert flag in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "curve.csv", "s.csv"]


def test_config_null_keeps_the_flag_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"weight": "delta", "mu": None, "n": 5, "seed": 1}))
    assert cli.run(["simulate", "--config", "c.json", "--out", "e.csv"]) == 0
    assert len((tmp_path / "e.csv").read_text().splitlines()) == 6


def test_outdir_env_redirects_default_outputs(tmp_path):
    outdir = tmp_path / "results"
    outdir.mkdir()
    # default filenames land in INTEREVENT_OUTDIR; explicit --out paths do not move
    r = run_cli(
        ["simulate", "--weight", "delta", "--n", "5", "--seed", "2"],
        tmp_path,
        env_extra={"INTEREVENT_OUTDIR": str(outdir)},
    )
    assert r.returncode == 0, r.stderr
    assert (outdir / "events.csv").exists()
    assert not (tmp_path / "events.csv").exists()
    r = run_cli(
        ["simulate", "--weight", "delta", "--n", "5", "--seed", "2", "--out", "x.csv"],
        tmp_path,
        env_extra={"INTEREVENT_OUTDIR": str(outdir)},
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "x.csv").exists()


def test_collapse_emits_selected_quantities(tmp_path):
    q = np.round(np.arange(0, 36) * 0.1, 10)
    for name, ln_tau in (("aa", 1.0), ("bb", 2.0)):
        with open(tmp_path / f"{name}.csv", "w") as fh:
            fh.write("q,log_norm_moment\n")
            for qi in q:
                fh.write(f"{qi},{qi * ln_tau}\n")
    cfg = {
        "theta": math.exp(1.0),
        "datasets": [
            {"name": "aa", "curve": "aa.csv", "ln_tau": 1.0},
            {"name": "bb", "curve": "bb.csv", "ln_tau": 2.0},
        ],
    }
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    r = run_cli(
        ["collapse", "--config", "c.json", "--quantities", "mono", "ratio", "--out-prefix", "cc"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(tmp_path / "cc.mono.csv")
    assert header == ["dataset", "q", "value"]
    names = {row[0] for row in rows}
    assert names == {"aa", "bb"}
    # exact single-scale curves give a flat diagnostic, and q = 0 rows are dropped
    for _, qs, val in rows:
        assert float(qs) > 0
        assert float(val) == pytest.approx(1.0, rel=1e-10)
    assert (tmp_path / "cc.ratio.csv").exists()


def test_collapse_quantity_without_inputs_is_usage_error(tmp_path):
    q = [0.0, 0.5, 1.0]
    with open(tmp_path / "aa.csv", "w") as fh:
        fh.write("q,log_norm_moment\n")
        for qi in q:
            fh.write(f"{qi},{qi}\n")
    cfg = {"datasets": [{"name": "aa", "curve": "aa.csv"}]}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    r = run_cli(["collapse", "--config", "c.json", "--quantities", "mf"], tmp_path)
    assert r.returncode == 2


def _collapse_config(tmp_path, datasets, **top):
    for name, value in (("one", 1.0), ("five", 5.0)):
        (tmp_path / f"{name}.csv").write_text(f"q,log_norm_moment\n0.5,{value / 2}\n1.0,{value}\n")
    (tmp_path / "c.json").write_text(json.dumps({"datasets": datasets, **top}))
    return sorted(os.listdir(tmp_path))


_MF = {"alpha": 2, "c0": 0, "b": 0.3}


@pytest.mark.parametrize("datasets, top, args, message", [
    ([{"name": "x", "curve": "one.csv", "ln_tau": 0.0}, {"name": "x", "curve": "five.csv", "ln_tau": 0.0}],
     {}, [], "dataset name 'x' is used more than once"),
    ([{"name": "x", "curve": "one.csv", "ln_tau": 0.0}], {}, ["--quantities", "mono", "mf"],
     "dataset x: 'mf' needs an mf parameter block"),
    ([1], {}, [], "each dataset must be an object with a string 'name' and 'curve'"),
    ([{"name": "x", "curve": "one.csv", "mf": {"alpha": 2, "c": 0}}], {}, [],
     "dataset x: mf block has unknown field(s) 'c'"),
    ([{"name": "x", "curve": "one.csv", "mf": {**_MF, "alpha": "x"}}], {}, [],
     "dataset x: mf block: 'alpha' must be a number, got 'x'"),
    ([{"name": "x", "curve": "one.csv", "hmf": _MF}], {}, [], "dataset x: hmf block needs 'b1'"),
    ([{"name": "x", "curve": "one.csv", "mf": [2, 0, 0.3]}], {}, [], "dataset x: mf block must be an object"),
    # a bad block is found although the quantities asked for do not use it
    ([{"name": "x", "curve": "one.csv", "ln_tau": 1.0, "mf": {**_MF, "b": True}}], {},
     ["--quantities", "mono"], "dataset x: mf block: 'b' must be a number, got True"),
    ([{"name": "x", "curve": "one.csv", "ln_tau": "x"}], {}, [], "dataset x: ln_tau must be a number, got 'x'"),
    ([{"name": "x", "curve": "one.csv", "ln_tau": 1.0}], {"theta": "x"}, [],
     "theta must be a number, got 'x'"),
], ids=["duplicate-name", "quantity-not-computable", "dataset-not-an-object", "unknown-field",
        "field-not-a-number", "missing-field", "block-not-an-object", "unused-block",
        "ln-tau-not-a-number", "theta-not-a-number"])
def test_collapse_checks_its_dataset_table_before_any_output(tmp_path, datasets, top, args, message):
    before = _collapse_config(tmp_path, datasets, **top)
    r = run_cli(["collapse", "--config", "c.json", *args], tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"usage error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_collapse_law_out_of_its_domain_is_a_computation_error(tmp_path):
    # a well-formed block whose law does not exist fails as `moments --model mf` does, and before
    # the mono table, which comes first and does not use the block, is written
    before = _collapse_config(tmp_path, [{"name": "x", "curve": "one.csv", "ln_tau": 1.0,
                                          "mf": {**_MF, "alpha": 1}}])
    r = run_cli(["collapse", "--config", "c.json"], tmp_path)
    assert r.returncode == 1
    assert r.stderr == "error\tModelDomainError\talpha must exceed 1\n"
    assert sorted(os.listdir(tmp_path)) == before


def _write_curve(path, ln_tau):
    with open(path, "w") as fh:
        fh.write("q,log_norm_moment\n")
        for qi in np.round(np.arange(0, 36) * 0.1, 10):
            fh.write(f"{qi},{qi * ln_tau + 0.05 * qi ** 1.5}\n")


@pytest.mark.parametrize(
    "theta, reference, expected",
    [
        (None, None, ["mono", "mf", "hmf", "transform"]),
        (2.0, None, ["ratio", "mono", "mf", "hmf", "transform"]),
        (None, "aa", ["mono", "mf", "hmf", "transform", "scaled-q"]),
        (2.0, "aa", ["ratio", "mono", "mf", "hmf", "transform", "scaled-q"]),
    ],
)
def test_collapse_detects_computable_quantities(tmp_path, theta, reference, expected):
    hmf = {"alpha": 1.5, "c0": 1.0, "b": 0.05, "b1": 0.5}
    datasets = []
    for name, ln_tau in (("aa", 1.0), ("bb", 2.0)):
        _write_curve(tmp_path / f"{name}.csv", ln_tau)
        datasets.append({
            "name": name, "curve": f"{name}.csv", "ln_tau": ln_tau,
            "mf": {"alpha": 1.5, "c0": ln_tau, "b": 0.05}, "hmf": dict(hmf, c0=ln_tau),
        })
    cfg = {"datasets": datasets}
    if theta is not None:
        cfg["theta"] = theta
    if reference is not None:
        cfg["reference"] = reference
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    r = run_cli(["collapse", "--config", "c.json", "--out-prefix", "cc"], tmp_path)
    assert r.returncode == 0, r.stderr
    written = sorted(p.name for p in tmp_path.glob("cc.*.csv"))
    assert written == sorted(f"cc.{q}.csv" for q in expected)
    # notes follow the table's output order
    noted = [ln.rsplit("cc.", 1)[1][: -len(".csv")] for ln in r.stderr.splitlines()]
    assert noted == [q for q in expected if q != "ratio"]


def test_collapse_without_any_computable_quantity_is_usage_error(tmp_path):
    _write_curve(tmp_path / "aa.csv", 1.0)
    (tmp_path / "c.json").write_text(json.dumps({"datasets": [{"name": "aa", "curve": "aa.csv"}]}))
    r = run_cli(["collapse", "--config", "c.json"], tmp_path)
    assert r.returncode == 2
    assert r.stderr == "usage error: no collapse quantity is computable from the config\n"
    assert not list(tmp_path.glob("collapse.*.csv"))


@pytest.mark.parametrize("kind", ["mf", "hmf"])
def test_fit_rejects_nan_stderr_as_usage_error(tmp_path, kind):
    with open(tmp_path / "mom.csv", "w") as fh:
        fh.write("q,log_norm_moment,stderr,n_samples\n")
        for i, qi in enumerate(np.round(np.arange(0, 36) * 0.1, 10)):
            fh.write(f"{qi},{0.5 * qi + 0.05 * qi ** 1.5},{'nan' if i == 10 else 1e-3},1000\n")
    r = run_cli(["fit", "--kind", kind, "--input", "mom.csv"], tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("usage error: mom.csv: ")
    assert "stderr" in lines[0] and "NaN" in lines[0]


@pytest.mark.parametrize("column, row, cell", [("t", 5, "inf"), ("t", 2, "nan"), ("psi", 3, "nan")])
@pytest.mark.parametrize("kind", ["sojourn-weibull", "sojourn-qexp"])
def test_fit_rejects_non_finite_survival_as_usage_error(tmp_path, kind, column, row, cell):
    t = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0]
    with open(tmp_path / "soj.csv", "w") as fh:
        fh.write("t,psi\n")
        for i, ti in enumerate(t):
            cells = {"t": ti, "psi": math.exp(-ti)}
            if i == row:
                cells[column] = cell
            fh.write(f"{cells['t']},{cells['psi']}\n")
    r = run_cli(["fit", "--kind", kind, "--input", "soj.csv"], tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"usage error: soj.csv: column '{column}' has a non-finite value\n"


@pytest.mark.parametrize("t, psi, message", [
    ([0.1, 0.5, 0.3, 2.0], [0.9, 0.6, 0.4, 0.1], "t_grid must be nonnegative and strictly increasing"),
    ([0.1, 0.5, 1.0, 2.0], [1.2, 0.6, 0.4, 0.1], "psi_values must lie in (0, 1]"),
    ([0.1, 0.5, 1.0, 2.0], [0.9, 0.4, 0.6, 0.1], "psi_values must be nonincreasing"),
    # only zero-survival rows are dropped; a negative one was dropped with them
    ([0.1, 0.5, 1.0, 2.0], [0.9, -0.5, 0.3, 0.1], "psi_values must lie in (0, 1]"),
], ids=["t-not-increasing", "psi-above-1", "psi-increasing", "psi-negative"])
@pytest.mark.parametrize("kind", ["sojourn-weibull", "sojourn-qexp"])
def test_fit_rejects_survival_that_is_not_a_survival_function_as_usage_error(tmp_path, kind, t, psi, message):
    (tmp_path / "soj.csv").write_text("t,psi\n" + "".join(f"{a},{b}\n" for a, b in zip(t, psi)))
    r = run_cli(["fit", "--kind", kind, "--input", "soj.csv", "--out", "f.json"], tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"usage error: soj.csv: {message}\n"
    assert os.listdir(tmp_path) == ["soj.csv"]


_NAN_N_SAMPLES = "q,log_norm_moment,stderr,n_samples\n" + "".join(
    f"{qi},{0.5 * qi + 0.05 * qi ** 1.5},1e-3,nan\n" for qi in np.round(np.arange(0, 36) * 0.1, 10)
)


@pytest.mark.parametrize("args, text, message", [
    (["estimate"], "dt\n", "no data rows"),
    (["fit", "--kind", "sojourn-weibull"], "t,psi\n", "no data rows"),
    (["fit", "--kind", "mf"], "q,log_norm_moment\n", "no data rows"),
    (["fit", "--kind", "mf"], _NAN_N_SAMPLES, "column 'n_samples' has a non-finite value"),
], ids=["estimate-empty", "sojourn-empty", "mf-empty", "mf-nan-n-samples"])
def test_table_without_usable_rows_is_usage_error(tmp_path, args, text, message):
    (tmp_path / "in.csv").write_text(text)
    r = run_cli([*args, "--input", "in.csv"], tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"usage error: in.csv: {message}\n"


_FIT_MF = ["fit", "--kind", "mf", "--out", "f.json"]
_CURVE = "q,log_norm_moment\n" + "".join(f"{qi / 10},{qi / 20}\n" for qi in range(36))


@pytest.mark.parametrize("args, data, message", [
    # a decimal comma makes a row wider than the header; it was read as its first field
    (["estimate", "--out-moments", "m.csv"], b"dt\n1\n2,5\n4\n", "malformed numeric data (line 3: '2,5')\n"),
    (["estimate", "--out-moments", "m.csv"], b"dt\n1\nx\n", "malformed numeric data (line 3: 'x')\n"),
    # past the first block of rows that the error path reads alone, and after a blank line
    (["estimate", "--out-moments", "m.csv"], b"dt\r\n\r\n" + b"1\r\n" * 5000 + b"1e\r\n",
     "malformed numeric data (line 5003: '1e')\n"),
    (["estimate", "--out-moments", "m.csv"], b"dt\n1,5\n2,5\n", "data rows have 2 field(s), the header 1"),
    (_FIT_MF, _CURVE.replace("\n1.0,", "\n1,0,").encode(),
     "malformed numeric data (line 12: '1,0,0.5')\n"),
    (["estimate", "--out-moments", "m.csv"], b"dt\n1\n\xff\n4\n", "not valid "),
    # past the first block that the header read decodes
    (["estimate", "--out-moments", "m.csv"], b"dt\n" + b"1\n" * 20_000 + b"\xff\n", "not valid "),
    (_FIT_MF, b"\xff" + _CURVE.encode(), "not valid "),
], ids=["decimal-comma", "bad-cell", "late-bad-cell", "every-row-wide", "curve-decimal-comma",
        "estimate-bad-byte", "estimate-late-bad-byte", "fit-bad-byte"])
def test_malformed_input_file_is_usage_error(tmp_path, args, data, message):
    (tmp_path / "in.csv").write_bytes(data)
    r = run_cli([*args, "--input", "in.csv"], tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith(f"usage error: in.csv: {message}") and r.stderr.count("\n") == 1, r.stderr
    assert "usecols" not in r.stderr  # numpy's advice names an argument the user cannot pass
    assert os.listdir(tmp_path) == ["in.csv"]


@pytest.mark.parametrize("kind", ["sojourn-weibull", "sojourn-qexp"])
@pytest.mark.parametrize("flags", [["--qmin", "1"], ["--qmax", "2"]])
def test_sojourn_fit_rejects_order_window(tmp_path, kind, flags):
    with open(tmp_path / "soj.csv", "w") as fh:
        fh.write("t,psi\n" + "".join(f"{t},{math.exp(-t)}\n" for t in (0.1, 0.5, 1.0, 2.0, 5.0)))
    r = run_cli(["fit", "--kind", kind, "--input", "soj.csv", *flags], tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"usage error: --qmin/--qmax set a moment-order window; --kind {kind} fits every t row\n"


@pytest.mark.parametrize("args", [
    ["--kind", "mf", "--qmin", "3", "--qmax", "2"],
    ["--kind", "mf", "--qmin", "nan"],
    ["--kind", "mono", "--qmin", "25"],  # above the default qmax 20
], ids=["reversed", "nan", "above-default-qmax"])
def test_fit_window_that_is_not_increasing_is_usage_error(tmp_path, args):
    _write_curve(tmp_path / "mom.csv", 1.0)
    r = run_cli(["fit", *args, "--input", "mom.csv"], tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")


@pytest.mark.parametrize("kind, qmin", [("mono", None), ("mf", None), ("hmf", None),
                                        ("mono", 12.0), ("mf", 0.5), ("hmf", 1.0)])
def test_fit_window_defaults_are_the_library_defaults(tmp_path, kind, qmin):
    # the grid runs past every default window, so a fit's domain is its window
    q = np.round(np.arange(-5, 251) * 0.1, 12)
    values = moments.HMFParams(alpha=1.78, c0=0.1, b=1.07, b1=0.2).log_norm_moment(q)
    rows = "".join(f"{a!r},{v!r}\n" for a, v in zip(q.tolist(), values.tolist()))
    (tmp_path / "mom.csv").write_text("q,log_norm_moment\n" + rows)
    r = run_cli(["fit", "--kind", kind, "--input", "mom.csv", *(["--qmin", qmin] if qmin is not None else [])],
                tmp_path)
    assert r.returncode == 0, r.stderr
    fit = {"mono": fitting.fit_monofractal, "mf": fitting.fit_mf, "hmf": fitting.fit_hmf}[kind]
    curve = cli._read_curve(str(tmp_path / "mom.csv"))
    expected = fit(curve)  # at the library's default q_range
    if qmin is not None:
        expected = fit(curve, (qmin, expected.q_domain[1]))
    assert json.loads(r.stdout) == json.loads(json.dumps(cli._fit_result_doc(expected)))


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("out", [None, "fit.json"])
def test_fit_without_residual_dof_writes_strict_json(tmp_path, out):
    # two rows for two parameters: no residual variance, so the stderrs are undefined
    (tmp_path / "soj.csv").write_text("t,psi\n1.0,0.5\n2.0,0.2\n")
    r = run_cli(["fit", "--kind", "sojourn-weibull", "--input", "soj.csv", *(["--out", out] if out else [])],
                tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / out).read_text() if out else r.stdout, parse_constant=_reject_constant)
    assert [p["stderr"] for p in doc["params"].values()] == [None, None]
    assert all(math.isfinite(p["estimate"]) for p in doc["params"].values())
    assert doc["flags"] == ["stderr_undefined_zero_dof"]


def test_help_exits_zero(tmp_path):
    r = run_cli(["--help"], tmp_path)
    assert r.returncode == 0
    for cmd in ("ptd", "moments", "simulate", "estimate", "fit", "collapse"):
        assert cmd in r.stdout


# Runs CLI commands in one fresh interpreter in which scipy cannot be imported, so that any
# import of it fails the command, then prints whether numpy.polynomial was loaded and which of
# the package's submodules were.
_IMPORT_PROBE = """
import json, sys
sys.modules["scipy"] = None
import interevent
for argv in json.loads(sys.argv[1]):
    assert interevent.cli.run(argv) == 0, argv
print(json.dumps("numpy.polynomial" in sys.modules))
print(json.dumps([m.partition(".")[2] for m in sys.modules if m.startswith("interevent.")]))
"""

_SIMULATE = ["simulate", "--weight", "stretched", "--sigma", "1", "--alpha", "1.5",
             "--n", "2000", "--seed", "3", "--out", "ev.csv"]
_ESTIMATE = ["estimate", "--input", "ev.csv", "--out-moments", "mom.csv", "--out-sojourn", "soj.csv"]


def _modules_after(commands, tmp_path):
    """Whether numpy.polynomial was loaded, and the set of the package's submodules loaded, by a
    fresh interpreter without scipy that imports the package and runs ``commands``."""
    r = run_cli([json.dumps(commands)], tmp_path, cmd=[sys.executable, "-c", _IMPORT_PROBE])
    assert r.returncode == 0, r.stderr
    polynomial, ours = map(json.loads, r.stdout.splitlines()[-2:])
    return polynomial, set(ours)


_MODEL_FLAGS = {"delta": ["--mu", "1.7"], "uniform": ["--half-width", "1"], "laplace": ["--sigma", "0.04"],
                "stretched": ["--sigma", "1", "--alpha", "1.5"]}
_COLLAPSE = {"datasets": [{"name": "a", "curve": "mom.csv", "mf": {"alpha": 2, "c0": 0, "b": 0.3},
                           "hmf": {"alpha": 1.91, "c0": -3, "b": 2.5, "b1": 0.33}}]}


@pytest.mark.parametrize("commands", [
    [],
    [_SIMULATE],
    [_ESTIMATE],
    [["fit", "--kind", kind, "--input", "soj.csv" if kind.startswith("sojourn") else "mom.csv",
      "--out", f"{kind}.json"] for kind in cli._FIT_KINDS],
    [["ptd", "--weight", w, *flags, "--points", "20", "--out", f"ptd-{w}.csv"]
     for w, flags in _MODEL_FLAGS.items()],
    [["moments", "--model", m, *_MODEL_FLAGS.get(m, _MODEL_FLAGS["stretched"]), "--out", f"{m}.csv"]
     for m in ("delta", "uniform", "laplace", "series", "saddle")]
    + [["moments", "--model", "gaussian", "--sigma", "1", "--alpha", "2", "--out", "gaussian.csv"],
       ["moments", "--model", "mf", "--alpha", "2", "--c0", "0", "--b", "0.3", "--out", "mf.csv"],
       ["moments", "--model", "hmf", "--alpha", "1.91", "--c0", "-3", "--b", "2.5", "--b1", "0.33",
        "--out", "hmf.csv"]],
    [["collapse", "--config", "collapse.json", "--out-prefix", "cc"]],
], ids=["import", "simulate", "estimate", "fit", "ptd", "moments", "collapse"])
def test_every_command_runs_without_scipy(tmp_path, monkeypatch, commands):
    # numpy is the only runtime dependency: each command, every fit kind, the ptd of each weight
    # family (the Uniform survival's exponential integral included) and every moments model
    monkeypatch.chdir(tmp_path)
    assert cli.run(_SIMULATE) == 0 and cli.run(_ESTIMATE) == 0  # the inputs, made in this process
    (tmp_path / "collapse.json").write_text(json.dumps(_COLLAPSE))
    assert _modules_after(commands, tmp_path)[0] is False
    for kind in ("mf", "hmf", "sojourn-weibull"):
        if (tmp_path / f"{kind}.json").exists():
            assert json.loads((tmp_path / f"{kind}.json").read_text())["converged"], kind


_FIT_LOADS = {"cli", "core", "densities", "fitting", "moments", "simulate"}


@pytest.mark.parametrize("command, loaded", [
    (None, {"core"}),
    (_SIMULATE, {"cli", "core", "simulate"}),
    (_ESTIMATE, {"cli", "core", "empirical", "simulate"}),
    (["fit", "--kind", "mf", "--input", "mom.csv", "--out", "f.json"], _FIT_LOADS),
    (["fit", "--kind", "sojourn-weibull", "--input", "soj.csv", "--out", "f.json"], _FIT_LOADS),
    (["ptd", "--weight", "stretched", "--sigma", "1", "--alpha", "1.5", "--points", "20",
      "--out", "ptd.csv"], {"cli", "core", "densities", "moments", "simulate"}),
], ids=["import", "simulate", "estimate", "fit-mf", "fit-sojourn-weibull", "ptd-stretched"])
def test_each_command_loads_only_the_submodules_it_runs(tmp_path, monkeypatch, command, loaded):
    monkeypatch.chdir(tmp_path)
    assert cli.run(_SIMULATE) == 0 and cli.run(_ESTIMATE) == 0  # the inputs, made in this process
    assert _modules_after([command] if command else [], tmp_path)[1] == loaded

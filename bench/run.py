"""Benchmark of the ``interevent`` package: one workload per run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cli_pipeline --seed 1 --seconds 50 --trace 0

``--trace 0`` repeats untraced passes of the workload for about
``--seconds`` (at least two timed passes; no pass starts that would not end in
time) and reports the end-to-end metrics as medians over the passes.  Before
each pass it times a fresh interpreter's ``import interevent``, so the
set-up samples are spread over the run like the passes.  ``--trace 1`` times
the import several times, then runs one untraced and one traced pass and
reports the per-layer metrics from the traced one.  Either way a first,
untimed pass comes before the others; its outputs are checked outside the
timed region, and every later pass must repeat them.  Human-readable lines,
including a machine record, come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, spans included, is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the end-to-end metrics BENCHMARK.json bounds, in its order; the rest are reported only
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
MIN_PASSES = 2

_IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import interevent\n"
    "print(time.perf_counter() - t0, len(sys.modules))\n"
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["cli_pipeline", "in_process"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's own test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


class ImportProbe:
    """Times ``import interevent`` in fresh interpreters, one per call."""

    def __init__(self, launcher, cwd: Path):
        self.launcher, self.cwd = launcher, cwd
        self.times: list[float] = []
        self.modules = 0
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, record: bool = True) -> None:
        self.attempted += 1
        try:
            proc = self.launcher.run(["-c", _IMPORT_PROBE], "import interevent", self.cwd)
        except (OSError, subprocess.TimeoutExpired) as e:
            self.failures.append(f"import: {type(e).__name__}: {e}")
            return
        if proc.returncode != 0:
            self.failures.append(f"import exited {proc.returncode}: {proc.stderr[-300:]}")
            return
        seconds, count = proc.stdout.split()
        if record:
            self.times.append(float(seconds))
            self.modules = int(count)

    def fill(self, count: int) -> None:
        """Probe until ``count`` times are recorded, or ``2 * count`` attempts failed to."""
        while len(self.times) < count and self.attempted <= 2 * count:
            self()


def _differing(first, other) -> list[str]:
    return [k for k, v in first.outputs.items() if other.outputs.get(k) != v]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "interevent" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/interevent; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from launcher import Launcher, limit_cores, machine_record, peak_rss_mb

    cores = limit_cores(2)  # before numpy starts its thread pool
    from spans import Recorder
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    launcher = Launcher(SRC)

    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        probe = ImportProbe(launcher, tmp)
        probe(record=False)  # warms the file caches, and the bytecode cache where one is written
        wl = workloads.WORKLOADS[args.workload](args.seed, sizes, launcher, tmp)

        # a first, untimed pass lets lazy imports and the allocator settle; it
        # is the pass the checks read, and every later pass must repeat its outputs
        first = wl.run_pass(in_process=bool(args.trace))
        passes, differ, spans = [first], [], []

        def repeat(in_process: bool) -> workloads.PassResult:
            res = wl.run_pass(in_process=in_process)
            differ.extend(_differing(first, res))
            # drop each pass's outputs before the next, so every timed pass
            # starts from the same live memory
            res.outputs, res.data = {}, {}
            passes.append(res)
            return res

        if args.trace:
            probe.fill(sizes.setup_imports)
            untraced = repeat(in_process=True)
            with Recorder() as rec:
                workloads.instrument(rec)
                root = rec.open("bench.pass", "unattributed")
                traced = repeat(in_process=True)
                rec.close(root)
            layers = workloads.layer_metrics(rec, traced, untraced, root.duration, probe.modules)
            spans = rec.dump()
        else:
            # at least two timed passes, so every timing is a median of repeats;
            # no pass starts that would end after --seconds
            rounds = []
            start = time.perf_counter()
            while len(rounds) < MIN_PASSES or (
                    time.perf_counter() - start + statistics.median(rounds) < args.seconds):
                t0 = time.perf_counter()
                probe()
                repeat(in_process=False)
                rounds.append(time.perf_counter() - t0)
            probe.fill(sizes.setup_imports)
        rss = peak_rss_mb()

        checks = wl.checks(first)
        label = ("untraced and traced outputs equal the first pass's" if args.trace
                 else "passes give identical outputs")
        checks.append((label, not differ, ", ".join(differ[:5])))
        if args.trace:
            parts = sum(layers[f"{layer}.self_s"] for layer in (*workloads.LAYERS, "unattributed"))
            checks.append(("layer self times sum to traced wall",
                           math.isclose(parts, layers["trace.wall_s"], rel_tol=1e-9), f"{parts} vs {layers['trace.wall_s']}"))

    ops, failures = probe.attempted, list(probe.failures)
    for p in passes:
        ops += p.ops
        failures += p.failures
    attempted = ops + len(checks)
    failed = len(failures) + sum(1 for _, ok, _ in checks if not ok)

    e2e = {"setup_s": (statistics.median(probe.times) if probe.times else math.nan, "s", len(probe.times))}
    timed = passes[1:2] if args.trace else passes[1:]  # untraced passes after the first
    e2e.update(wl.end_to_end(timed))
    e2e["peak_rss_mb"] = (rss, "MiB", 1)
    e2e["failed_ratio"] = (failed / attempted, "ratio", attempted)

    machine = machine_record(ROOT, cores)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(passes)}{' smoke' if args.smoke else ''}")
    print("pass_wall_s " + " ".join(f"{p.wall_s:.4g}" for p in passes))
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + ("" if ok or not detail else f": {detail}"))
    for f in failures:
        print(f"failure {f}")
    if args.trace:
        for name in sorted(layers):
            print(f"layer {name} = {layers[name]:.6g}")
    else:
        for name, (value, unit, n) in e2e.items():
            print(f"e2e {name} = {value:.6g} {unit} (n={n})")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": workloads.layer_unit(name)} for name in layers}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
              "machine": machine, "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
              "failures": failures, "exits": launcher.exits, "pass_counts": [p.counts for p in passes],
              "pass_wall_s": [p.wall_s for p in passes],
              "result": result}
    if args.trace:
        record["per_layer"] = layers
        record["spans"] = spans
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

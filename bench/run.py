"""Seeded closed-loop benchmark of the reebzeta CLI.

    python3 bench/run.py --workload orbit-zeta --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark writes seeded input
files under ``.bench_work/``, then one client in this process calls
``reebzeta.cli.main(argv)`` job after job, with stdout captured.  It runs
whole passes over the workload's job list (at least 100 jobs) until
``--seconds`` have elapsed, and at least two passes.  Every job's stdout is
compared with an answer computed at set-up by a different route (see
gen.py); a mismatch or a nonzero exit is a failed job.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced, then runs one traced pass and reports the per-layer
metrics (see tracing.py).  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2          # so that each job's time is the best of at least two
STARTUP_REPEATS = 5

# Per-layer self times: metric -> span names whose self time it sums.
SELF_MS = {
    "cli.self_ms": ("cli.main",),
    "serialize.load_ms": ("serialize.load",),
    "serialize.decode_ms": ("serialize.decode",),
    "serialize.encode_ms": ("serialize.encode",),
    "novikov.init_ms": ("novikov.init",),
    "novikov.mul_self_ms": ("novikov.mul",),
    "novikov.pow_self_ms": ("novikov.pow",),
    "novikov.inverse_self_ms": ("novikov.inverse",),
    "novikov.exp_ms": ("novikov.exp",),
    "orbits.exp_form_self_ms": ("orbits.exp_form",),
    "orbits.product_form_self_ms": ("orbits.product_form",),
    "orbits.ech_form_self_ms": ("orbits.ech_form", "orbits.ech_generators"),
    "orbits.good_orbits_ms": ("orbits.good_orbits",),
    "mobius.product_self_ms": ("mobius.product",),
    "persistence.validate_ms": ("persistence.validate",),
    "persistence.decompose_self_ms": ("persistence.decompose",),
    "persistence.zeta_self_ms": ("persistence.zeta",),
    "domains.toric_self_ms": ("domains.toric",),
    "domains.s1_self_ms": ("domains.s1",),
    "domains.distinguish_ms": ("domains.distinguish",),
}
CALLS = {
    "novikov.mul_calls": "novikov.mul",
    "novikov.pow_calls": "novikov.pow",
    "novikov.inverse_calls": "novikov.inverse",
    "persistence.validate_calls": "persistence.validate",
}

# Spans each workload must record.  No subcommand calls zeta_good_orbits:
# mobius-transform reads the good-orbit series from a file.
EXPECTED_SPANS = {
    "orbit-zeta": {"cli.main", "serialize.load", "serialize.decode",
                   "novikov.init", "novikov.mul", "novikov.pow",
                   "novikov.inverse", "novikov.exp", "orbits.exp_form",
                   "orbits.product_form", "orbits.ech_form",
                   "orbits.ech_generators"},
    "series-files": {"cli.main", "serialize.load", "serialize.decode",
                     "serialize.encode", "novikov.init", "novikov.mul",
                     "novikov.pow", "novikov.inverse", "orbits.product_form",
                     "mobius.product", "domains.toric", "domains.s1",
                     "domains.distinguish"},
    "persistence": {"cli.main", "serialize.load", "serialize.decode",
                    "serialize.encode", "novikov.init", "persistence.validate",
                    "persistence.decompose", "persistence.zeta"},
}


def check(job, code, stdout: str):
    """None when the job exited 0 with exactly the expected stdout, else
    the reason it failed."""
    if code != 0:
        return f"exit {code}"
    if stdout == job.expected:
        return None
    got, want = stdout.splitlines(True), job.expected.splitlines(True)
    for line, (a, b) in enumerate(zip(got, want), 1):
        if a != b:
            return f"line {line}: got {a!r}, expected {b!r}"
    return f"{len(got)} lines, expected {len(want)}"


def run_job(cli, job):
    """One closed-loop job: (seconds, exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:           # argparse exits on bad flags
            code = exc.code
        except Exception as exc:            # a crash is a failed job, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue()


class Loop:
    """Closed-loop results: per pass, each job's wall time in job order."""

    def __init__(self):
        self.passes: list = []
        self.failures: list = []

    @property
    def attempted(self) -> int:
        return sum(map(len, self.passes))

    def run_pass(self, cli, jobs, tracer=None, outputs=None):
        times = []
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            elapsed, code, stdout = run_job(cli, job)
            times.append(elapsed)
            reason = check(job, code, stdout)
            if reason is not None:
                self.failures.append((index, job, reason))
            if outputs is not None:
                outputs.append(stdout)
        self.passes.append(times)

    def run(self, cli, jobs, seconds: float, between=None):
        """Whole passes until the time is up; between() runs after each."""
        start = perf_counter()
        while perf_counter() - start < seconds or len(self.passes) < MIN_PASSES:
            self.run_pass(cli, jobs)
            if between is not None:
                between()

    def best(self) -> list:
        """Each job's fastest time over the passes.  Other tenants of a
        shared machine slow whole stretches of a run; a job's fastest pass
        is the figure that repeats from run to run."""
        return [min(times) for times in zip(*self.passes)]

    def median_pass(self) -> float:
        return statistics.median(sum(times) for times in self.passes)


def startup_seconds() -> float:
    """Wall time of a fresh interpreter running ``-m reebzeta.cli --help``
    with src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = perf_counter()
    subprocess.run([sys.executable, "-m", "reebzeta.cli", "--help"],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - start


def end_to_end(loop: Loop, setup: list) -> dict:
    best_ms = [t * 1000 for t in loop.best()]
    return {
        "job_p50_ms": (statistics.median(best_ms), "ms"),
        "job_p90_ms": (statistics.quantiles(best_ms, n=10)[8], "ms"),
        "jobs_per_s": (1000 * len(best_ms) / sum(best_ms), "1/s"),
        "success_rate": (1 - len(loop.failures) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def series_coeff_bits(stdout: str) -> int:
    bits = 0
    for line in stdout.splitlines()[:-1]:
        value = Fraction(line.split("\t")[1])
        bits = max(bits, value.numerator.bit_length(), value.denominator.bit_length())
    return bits


def per_layer(workload, jobs, tracer, outputs, traced: Loop, untraced: Loop):
    """Per-layer metrics of one traced pass, the per-job self times by span
    name, and the names of expected spans that never ran."""
    spans = tracer.spans()
    selfs = tracing.self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    by_job = defaultdict(lambda: defaultdict(float))
    inclusive = defaultdict(lambda: defaultdict(float))
    factor_pows = 0
    for (name, start, end, parent, job), own in zip(spans, selfs):
        total[name] += own
        calls[name] += 1
        by_job[job][name] += own
        inclusive[job][name] += end - start
        if name == "novikov.pow" and parent >= 0 and spans[parent][0] == "mobius.product":
            factor_pows += 1
    job_ms = 1000 * sum(traced.passes[0])
    m = {}
    for metric, names in SELF_MS.items():
        ms = 1000 * sum(total[n] for n in names)
        m[metric] = (ms, "ms")
        m[metric[:-3] + "_pct"] = (100 * ms / job_ms, "%")
    for metric, name in CALLS.items():
        m[metric] = (calls[name], "count")
    counts = tracer.counts
    series_out = [s for s in outputs if s.endswith("\n") and s.splitlines()[-1].startswith("cutoff\t")]
    m.update({
        "cli.stdout_bytes": (sum(len(s.encode()) for s in outputs), "bytes"),
        "serialize.in_bytes": (counts["serialize.in_bytes"], "bytes"),
        "serialize.written_bytes": (counts["serialize.written_bytes"], "bytes"),
        "novikov.mul_term_pairs": (counts["novikov.mul_term_pairs"], "count"),
        "novikov.out_terms": (sum(len(s.splitlines()) - 1 for s in series_out), "count"),
        "novikov.grid_q_max": (max(j.shape.get("grid_q", 1) for j in jobs), "count"),
        "novikov.coeff_bits_max": (max([series_coeff_bits(s) for s in series_out] or [0]), "bits"),
        "orbits.ech_generators": (counts["orbits.ech_generators"], "count"),
        "mobius.factor_pows": (factor_pows, "count"),
        "persistence.generators": (counts["persistence.generators"], "count"),
        "persistence.bars": (counts["persistence.bars"], "count"),
        "persistence.levels": (sum(j.shape.get("levels", 0) for j in jobs), "count"),
        "trace.overhead_frac": (traced.median_pass() / untraced.median_pass() - 1, "ratio"),
    })
    missing = sorted(EXPECTED_SPANS[workload] - set(calls))
    return m, by_job, inclusive, missing


def findings(workload, jobs, by_job, inclusive) -> list:
    """ROADMAP findings (a)-(c), checked in direction on this traced pass."""
    kinds = defaultdict(list)
    for index, job in enumerate(jobs):
        kinds[job.kind].append(index)
    lines = []
    if workload == "series-files":
        mob = 1000 * sum(by_job[i]["mobius.product"] for i in kinds["mobius-coarse"])
        prod = 1000 * sum(by_job[i]["orbits.product_form"] for i in kinds["product-out"])
        lines.append((mob > 2 * prod,
                      f"(a) mobius.product self {mob:.1f} ms vs orbits.product_form "
                      f"self {prod:.1f} ms on the same {len(kinds['product-out'])} flows"))
    if workload == "orbit-zeta":
        single = sorted((jobs[i].shape["out_terms"],
                         inclusive[i]["novikov.exp"] / inclusive[i]["orbits.product_form"])
                        for i in kinds["fine-both"] if jobs[i].shape["orbits"] == 1
                        and inclusive[i]["novikov.exp"] and inclusive[i]["orbits.product_form"])
        half = len(single) // 2
        if not half:
            return [(False, "(b) no one-orbit fine grid ran both exp and product")]
        low = statistics.mean(r for _, r in single[:half])
        high = statistics.mean(r for _, r in single[half:])
        lines.append((high > low,
                      f"(b) exp/product time on one-orbit fine grids: {low:.2f} at "
                      f"{single[0][0]}-{single[half - 1][0]} terms, {high:.2f} at "
                      f"{single[half][0]}-{single[-1][0]} terms"))
    if workload == "persistence":
        sized = sorted(kinds["zeta-persistence"], key=lambda i: jobs[i].shape["generators"])
        largest = sized[-(len(sized) // 4):]
        zeta = 1000 * sum(by_job[i]["persistence.zeta"] for i in largest)
        dec = 1000 * sum(by_job[i]["persistence.decompose"] for i in largest)
        lines.append((zeta > dec,
                      f"(c) persistence.zeta self {zeta:.1f} ms vs persistence.decompose "
                      f"self {dec:.1f} ms on the {len(largest)} largest complexes "
                      f"({jobs[largest[0]].shape['generators']}+ generators)"))
    return lines


def write_trace(path: Path, jobs, tracer) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump({"jobs": [{"kind": j.kind, "argv": j.argv, "shape": j.shape}
                            for j in jobs],
                   "span_fields": ["name", "start", "end", "parent", "job"],
                   "spans": tracer.spans()}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "reebzeta" / "cli.py").is_file():
        print(f"no reebzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("reebzeta.cli")

    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = gen.build(args.workload, args.seed, str(work))
        startup_seconds()                   # may compile bytecode; not counted
        setup = [startup_seconds() for _ in range(STARTUP_REPEATS)]
        # Warm-up, untimed: the largest job of each kind, so that the first
        # measured pass does not also pay for growing the heap.
        largest = {}
        for job in jobs:
            if job.kind not in largest or len(job.expected) > len(largest[job.kind].expected):
                largest[job.kind] = job
        for job in largest.values():
            run_job(cli, job)

        untraced = Loop()
        if not args.trace:
            # More start-up samples between passes, so that they span the
            # run rather than one moment of a shared machine.
            untraced.run(cli, jobs, args.seconds,
                         lambda: setup.extend(startup_seconds() for _ in range(2)))
            metrics = end_to_end(untraced, setup)
            loops, missing, notes = [untraced], [], []
        else:
            untraced.run(cli, jobs, args.seconds / 2)
            tracer, traced, outputs = tracing.Tracer(), Loop(), []
            tracer.install()
            try:
                traced.run_pass(cli, jobs, tracer, outputs)
            finally:
                tracer.uninstall()
            metrics, by_job, inclusive, missing = per_layer(
                args.workload, jobs, tracer, outputs, traced, untraced)
            notes = findings(args.workload, jobs, by_job, inclusive)
            write_trace(bench_dir / f"trace-{args.workload}-seed{args.seed}.json.gz",
                        jobs, tracer)
            loops = [untraced, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    kinds = defaultdict(int)
    for job in jobs:
        kinds[job.kind] += 1
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass "
          f"({', '.join(f'{n} {k}' for k, n in kinds.items())}), "
          f"{len(untraced.passes)} untraced passes, {untraced.attempted} jobs")
    print(f"error_rate {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    for index, job, reason in failures[:10]:
        print(f"FAILED job {index} {' '.join(job.argv)}: {reason}")
    for name in missing:
        print(f"FAILED no span recorded for {name}")
    for holds, text in notes:
        print(f"finding {text}: {'holds' if holds else 'does not hold'}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not failures and not missing,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

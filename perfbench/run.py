"""wavepack benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
NAME is one of catalogue, psi-grid, psi-scatter, cli-cold, or `all`, which
runs each workload in its own child process, one after another.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs a
fixed, seed-determined list of ops alternately untraced and traced, and
reports per-layer calls, evaluation counts and self times, plus the tracing
overhead.  Every op's output is checked.  A human-readable summary with
sample counts goes to stderr; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""
import os

# One BLAS/OpenMP thread in this process and in every child, set before numpy
# loads, so the numbers measure the program and not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("catalogue", "psi-grid", "psi-scatter", "cli-cold")
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
TRACE_SCATTER_BATCHES = 20   # 160 psi-scatter ops in the traced op list
P90_MIN_OPS = 100            # p90 needs at least ten samples beyond it

# The benchmark's own modules import wavepack, so import_program loads them.
tracing = workloads = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_program():
    """Import wavepack from this checkout's src/ and nowhere else, then the
    benchmark modules built on it."""
    global tracing, workloads
    package = SRC / "wavepack"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no wavepack sources at {package}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import wavepack
    if Path(wavepack.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported wavepack from {wavepack.__file__}, not {package}")
    import tracing
    import workloads


def fresh_interpreter_s(code):
    """Wall time of one fresh interpreter running `code`, which must print the
    path of the wavepack it imported."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True)
    elapsed = perf_counter() - t0
    if proc.returncode != 0 or Path(proc.stdout.strip()).resolve().parent != SRC / "wavepack":
        sys.exit(f"error: set-up child failed:\n{proc.stderr}")
    return elapsed


def measure_setup(uses_catalogue):
    """Median time from a fresh interpreter to `import wavepack` done (plus
    load_catalogue() for the catalogue workload)."""
    code = "import wavepack\n"
    if uses_catalogue:
        code += "wavepack.load_catalogue()\n"
    code += "print(wavepack.__file__)\n"
    times = [fresh_interpreter_s(code) for _ in range(SETUP_REPEATS)]
    return statistics.median(times), len(times)


def measure_cli_import():
    """(import ms, bare interpreter ms): medians of alternating fresh
    `import wavepack.cli` and bare-interpreter runs."""
    bare_code = f"print({str(SRC / 'wavepack' / '__init__.py')!r})"
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(fresh_interpreter_s(bare_code))
        full.append(fresh_interpreter_s("import wavepack.cli\nprint(wavepack.__file__)"))
    interp = statistics.median(bare)
    return (statistics.median(full) - interp) * 1e3, interp * 1e3


class Outcome:
    """Latencies (s), labels and failures of the ops one loop ran."""

    def __init__(self):
        self.latencies = []
        self.labels = []
        self.results = []
        self.failures = []

    @property
    def busy_s(self):
        return sum(self.latencies)


def run_ops(ops, outcome, tracer=None):
    for op in ops:
        index = len(outcome.latencies)
        if tracer is not None:
            tracer.op_id = index
        error = None
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception:   # a raising op is a failed op; the run goes on
            result, error = None, traceback.format_exc()
        outcome.latencies.append(perf_counter() - t0)
        outcome.labels.append(op.label)
        outcome.results.append(result)
        if error is None:
            try:
                if not op.check(result):
                    error = "output check failed"
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            outcome.failures.append((index, op.label, error))


def make_batches(name, rng):
    if name == "catalogue":
        return workloads.catalogue_batches(rng)
    if name == "psi-grid":
        return workloads.grid_batches(rng)
    if name == "psi-scatter":
        return workloads.scatter_batches(rng)
    return workloads.cli_batches(rng, child_env(), ROOT)


def report_failures(outcome):
    for index, label, error in outcome.failures[:5]:
        print(f"FAILED op {index} ({label}): {error}", file=sys.stderr)


def summarize(name, metrics, counts, outcome):
    print(f"# {name}: {len(outcome.latencies)} ops, {len(outcome.failures)} failed, "
          f"fail_ratio {len(outcome.failures) / max(len(outcome.latencies), 1):.4g}",
          file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:14.6g} {unit:9s} n={counts.get(key, 1)}", file=sys.stderr)


def untraced(name, seed, seconds):
    setup_s, setup_n = measure_setup(uses_catalogue=(name == "catalogue"))
    rng = random.Random(seed)
    batches = make_batches(name, rng)
    outcome = Outcome()
    for batch in batches:                      # references are built with the batch
        run_ops(batch, outcome)
        if outcome.busy_s >= seconds:
            break
    lat_ms = sorted(x * 1e3 for x in outcome.latencies)
    n = len(lat_ms)
    if name == "cli-cold":
        peak_kb = max(child.maxrss_kb for child in outcome.results if child is not None)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (n / outcome.busy_s, "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    counts = {"ops_per_s": n, "op_ms_p50": n, "setup_s": setup_n, "peak_rss_mb": 1}
    extra = {}
    if n >= P90_MIN_OPS:
        extra["op_ms_p90"] = (statistics.quantiles(lat_ms, n=10)[-1], "ms")
        counts["op_ms_p90"] = n
    by_label = {}
    for label, x in zip(outcome.labels, outcome.latencies):
        by_label.setdefault(label, []).append(x * 1e3)
    for label, xs in sorted(by_label.items()):
        extra[f"p50[{label}]"] = (statistics.median(xs), "ms")
        counts[f"p50[{label}]"] = len(xs)
    summarize(name, {**metrics, **extra}, counts, outcome)
    report_failures(outcome)
    return outcome, metrics


def traced_op_list(name, rng):
    if name == "cli-cold":
        return workloads.cli_replay_batch(rng)
    batches = make_batches(name, rng)
    count = TRACE_SCATTER_BATCHES if name == "psi-scatter" else 1
    return [op for _ in range(count) for op in next(batches)]


def glaisher_probe():
    """(evaluations, unconverged results) of the traced Glaisher free-tau probe."""
    with tracing.Tracer() as probe:
        probe.op_id = "probe"
        workloads.glaisher_free_probe()
    probe.write_spans(OUT / "psi-scatter-probe-spans.csv")
    return probe.evals.get("quadrature.integrate_interval", 0), probe.quad_unconverged


def traced(name, seed, seconds):
    rng = random.Random(seed)
    ops = traced_op_list(name, rng)
    outcome = Outcome()
    plain_s, traced_s, tracers = [], [], []
    start = perf_counter()
    while not tracers or perf_counter() - start < seconds:
        before = outcome.busy_s
        run_ops(ops, outcome)
        plain_s.append(outcome.busy_s - before)
        with tracing.Tracer() as tracer:
            before = outcome.busy_s
            run_ops(ops, outcome, tracer)
            traced_s.append(outcome.busy_s - before)
        if tracers:
            tracer.spans.clear()   # only the first traced pass's spans are written
        tracers.append(tracer)

    first = tracers[0]
    per_pass = [t.layer_metrics(len(ops)) for t in tracers]
    metrics = per_pass[0]   # counts from the first traced pass
    for key, (_value, unit) in metrics.items():
        if unit == "ms":    # self times: median over the traced passes
            metrics[key] = (statistics.median(m[key][0] for m in per_pass), unit)
    probe_evals, probe_unconverged = glaisher_probe() if name == "psi-scatter" else (0, 0)
    metrics["quadrature.probe.evals"] = (probe_evals, "count")
    metrics["quadrature.probe.unconverged"] = (probe_unconverged, "count")
    import_ms, interp_ms = measure_cli_import()
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.interp_ms"] = (interp_ms, "ms")
    untraced_rate = len(ops) / statistics.median(plain_s)
    traced_rate = len(ops) / statistics.median(traced_s)
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1.0) * 100.0, "%")
    first.write_spans(OUT / f"{name}-seed{seed}-spans.csv")

    counts = {key: len(tracers) for key, (_v, unit) in metrics.items() if unit == "ms"}
    counts.update({"cli.import_ms": IMPORT_REPEATS, "cli.interp_ms": IMPORT_REPEATS,
                   "trace.untraced_ops_per_s": len(plain_s),
                   "trace.traced_ops_per_s": len(traced_s),
                   "trace.overhead_pct": len(traced_s)})
    summarize(f"{name} (traced, {len(ops)} ops per pass, {len(tracers)} pass pairs)",
              metrics, counts, outcome)
    if name == "psi-scatter":
        print(f"# glaisher free-tau probe: {probe_evals} evaluations, "
              f"{probe_unconverged} unconverged", file=sys.stderr)
    report_failures(outcome)
    return outcome, metrics


def run_all(args):
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        metrics.update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    return correct, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description="wavepack benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    import_program()
    if args.workload == "all":
        correct, attempted, failed, metrics = run_all(args)
    else:
        runner = traced if args.trace else untraced
        outcome, raw = runner(args.workload, args.seed, args.seconds)
        attempted, failed = len(outcome.latencies), len(outcome.failures)
        correct = failed == 0
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()
                   if not (args.trace and tracing.summary_only(k))}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

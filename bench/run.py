#!/usr/bin/env python3
"""usdguard benchmark: seeded closed-loop workloads checked by independent oracles.

    python3 bench/run.py --workload attack-map --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run it from the repository root.  Load is a closed loop with one client in
one process: the next operation starts when the previous one ends.

Workloads (inputs in bench/inputs.py):
  attack-map    per design point: gram_from_preps, optimize_usd, solve_eve,
                aeb_table when feasible, max_loss
  decoy-screen  per signal amplitude: design_cat, minimize_delta,
                design_squeezed at r*, optimal_alpha
  sessions      one run_experiment on a shipped scenario, 1e4 to 1e7 pulses
  cli           one cold `python -m usdguard.cli` process per invocation
  all           each of the above in a fresh process, one after another

--trace 0 times the workload for --seconds, cycling over its inputs, and
reports the end-to-end metrics: setup_s, op_ms_p50 and op_ms_p90 (over
each input's best latency in the run; each input runs many times),
ops_per_s (the rate at those latencies) and peak_rss_mb.  BENCHMARK.json
names the workloads that are measured; the others run by hand.
--trace 1 makes one untraced and one traced pass over the workload's
inputs and reports the per-layer metrics of bench/tracing.py; a fixed
pass keeps every count identical from run to run.

Every operation is checked afterwards by bench/checks.py.  An operation
that raises or fails its check on an input in one of the known-defect
regions noted in bench/inputs.py is a known defect: it stays in the mix
and is reported on the `failed_ratio` line (and, traced, as
checks.known_defect_ops).  Any other failure, or a result that differs
from an earlier run of the same input, counts in `failed` and makes
`correct` false.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
WORKLOADS = ("attack-map", "decoy-screen", "sessions", "cli")
SETUP_PROBES = 4  # fresh processes that repeat the set-up; setup_s is the median with the run's own
CHILD_TIMEOUT_S = 170

sys.path[:0] = [str(ROOT), str(SRC)]


def attempt(op, case):
    """Run one operation; an exception is its result, to be counted as a failure."""
    try:
        return op(case)
    except Exception as exc:  # the loop must go on and report what failed
        return exc


def setup(name: str, seed: int, in_process: bool = False):
    """Import, generate the inputs and warm up; returns the workload and the seconds taken."""
    start = time.perf_counter()
    if name == "cli":
        from bench.cliops import Cli

        workload = Cli(seed, SCRATCH, in_process)
    else:
        from bench import library

        workload = library.WORKLOADS[name](seed)
    for case in workload.cases[: workload.warm_up_cases]:
        attempt(workload.op, case)
    return workload, time.perf_counter() - start


def probe_setup_s(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def verify(workload, outputs: dict[int, object], runs: Counter, differed: Counter) -> tuple[int, int, Counter]:
    """Check the first output of each case; every run of a case that fails its check fails.

    runs counts the runs of each case, differed those whose result differed
    from the first run's.  Returns the failed runs on inputs in a known
    defect region, all other failed runs, and the reasons.
    """
    known = unknown = 0
    reasons: Counter = Counter()
    for index, out in outputs.items():
        case = workload.cases[index]
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            problems = workload.check(case, out)
        if problems and case["known_defect"] is not None:
            known += runs[index]
            reasons[(case["known_defect"], problems[0].split(":")[0])] += runs[index]
        elif problems or differed[index]:
            bad = runs[index] if problems else differed[index]
            problem = problems[0] if problems else "result differs from an earlier run of the same input"
            unknown += bad
            reasons[("NEW", problem.split(":")[0])] += bad
    return known, unknown, reasons


def _fingerprint(workload, out):
    if isinstance(out, Exception):
        return type(out).__name__, str(out)
    return workload.fingerprint(out)


def timed_run(workload, name: str, seed: int, seconds: float, own_setup_s: float) -> dict:
    setups = [own_setup_s] + [probe_setup_s(name, seed) for _ in range(SETUP_PROBES)]
    n = len(workload.cases)
    samples: list[list[float]] = [[] for _ in range(n)]
    # the first output of each case is kept for its check; later runs are
    # reduced to a fingerprint and compared with the first run's at once
    outputs: dict[int, object] = {}
    reference: dict[int, object] = {}
    differed: Counter = Counter()
    start = time.perf_counter()
    i = 0
    while True:
        index = i % n
        t0 = time.perf_counter()
        out = attempt(workload.op, workload.cases[index])
        t1 = time.perf_counter()
        samples[index].append(t1 - t0)
        if index in reference:
            differed[index] += _fingerprint(workload, out) != reference[index]
        else:
            outputs[index] = out
            reference[index] = _fingerprint(workload, out)
        i += 1
        if t1 - start >= seconds:
            break
    wall = t1 - start
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    runs = Counter(k % n for k in range(i))
    pulses = sum(workload.pulses(workload.cases[index]) * count for index, count in runs.items())

    known, unknown, reasons = verify(workload, outputs, runs, differed)
    # An op's latency is the best of its input's runs in this measurement,
    # and ops_per_s the rate the ops reach at those latencies.  The host
    # switches between two speeds ~1.45x apart for seconds to minutes at a
    # time, and the share of a run spent in the slow one varies from run to
    # run; each input runs many times over the run, so its best run falls in
    # a fast stretch whenever the run holds one.
    best = [min(s) if s else 0.0 for s in samples]
    lat_ms = [best[k % n] * 1e3 for k in range(i)]
    p90 = quantile(lat_ms, 90)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (1e3 * i / sum(lat_ms), "1/s"),
        "op_ms_p50": (quantile(lat_ms, 50), "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"workload {name}  seed {seed}  trace 0  closed loop, 1 client, {wall:.2f} s timed")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<14} {value:12.4f} {unit}")
    print(f"  {'samples':<14} {len(lat_ms):12d} ops, {sum(t > p90 for t in lat_ms)} beyond p90, {i / n:.1f} passes over {n} inputs")
    print(f"  {'setup runs':<14} " + " ".join(f"{s:.4f}" for s in setups) + " s")
    print(f"  {'ops per wall s':<14} {i / wall:12.4f} 1/s, as timed")
    if name == "sessions":
        print(f"  {'pulses_per_s':<14} {pulses / wall:12.4g} 1/s")
    _print_failed_ratio(14, known, unknown, i)
    _print_reasons(reasons)
    _print_src_lines()
    return _result(unknown, i, metrics)


def traced_run(workload, name: str, seed: int) -> dict:
    from bench import tracing
    from bench.cliops import cold_start_ms

    cases = workload.cases
    start = time.perf_counter()
    for case in cases:
        attempt(workload.op, case)
    untraced = len(cases) / (time.perf_counter() - start)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        outs = []
        start = time.perf_counter()
        for i, case in enumerate(cases):
            tracer.op = i
            outs.append(attempt(workload.op, case))
        traced = len(cases) / (time.perf_counter() - start)
    finally:
        tracer.remove()

    known, unknown, reasons = verify(workload, dict(enumerate(outs)), Counter(range(len(outs))), Counter())
    layer = tracer.layer_metrics()
    interpreter_ms, import_ms = cold_start_ms()
    cli_outs = [o for o in outs if name == "cli" and not isinstance(o, Exception)]
    layer.update(
        {
            "cli.interpreter_ms": interpreter_ms,
            "cli.import_ms": import_ms,
            "cli.report_bytes": sum(len(stdout.encode()) for _, stdout, _ in cli_outs),
            "cli.tracebacks": sum("Traceback" in stderr for _, _, stderr in cli_outs),
            "trace.ops_per_s_untraced": untraced,
            "trace.ops_per_s_traced": traced,
            "trace.overhead_ops_per_s": untraced - traced,
            "checks.known_defect_ops": known,
        }
    )
    layer.update(tracing.src_lines(SRC))
    trace_path = SCRATCH / f"trace-{name}-seed{seed}.json"
    tracer.write(trace_path)

    metrics = {key: (layer[key], unit) for key, unit in tracing.PER_LAYER}
    print(f"workload {name}  seed {seed}  trace 1  {len(cases)} ops per pass, spans in {trace_path.relative_to(ROOT)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<32} {value:14.6g} {unit}")
    _print_failed_ratio(32, known, unknown, len(cases))
    _print_reasons(reasons)
    return _result(unknown, len(cases), metrics)


def _result(failed: int, attempted: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def _print_failed_ratio(width: int, known: int, unknown: int, attempted: int) -> None:
    """All failed ops over attempted ones; only those outside the known defects go into `failed`."""
    total = known + unknown
    print(
        f"  {'failed_ratio':<{width}} {total}/{attempted} = {total / attempted:.4f}"
        f"  ({known} in known defects, {unknown} new)"
    )


def _print_reasons(reasons: Counter) -> None:
    for (known, problem), count in reasons.most_common(8):
        print(f"    {count:6d} x {problem}  [{'NEW' if known == 'NEW' else 'known: ' + known}]")


def _print_src_lines() -> None:
    from bench.tracing import src_lines

    counts = src_lines(SRC)
    print("  src lines      " + " ".join(f"{k[4:-6]}={v}" for k, v in counts.items()))


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S + 10 * args.seconds)
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "usdguard" / "__init__.py").is_file():
        print(f"usdguard sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    SCRATCH.mkdir(exist_ok=True)
    workload, setup_s = setup(args.workload, args.seed, in_process=bool(args.trace))
    try:
        if args.setup_probe:
            print(setup_s)
            return 0
        if args.trace:
            result = traced_run(workload, args.workload, args.seed)
        else:
            result = timed_run(workload, args.workload, args.seed, args.seconds, setup_s)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

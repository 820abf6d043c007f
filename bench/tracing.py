"""Spans and counters around the calls into each usdguard layer.

Used only by the traced run.  ``Tracer.install`` swaps recording wrappers
for the functions below into every loaded usdguard module, and for two
numpy entry points into numpy; ``remove`` puts the originals back.
Spans are (name, start, end, parent, op) tuples kept in memory and
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (layer, function): a span for every call.
SPANS = (
    ("states", "gram_from_preps"),
    ("states", "realize"),
    ("states", "orthogonal_decoy_prep"),
    ("usd", "optimize_usd"),
    ("usd", "build_geometry"),
    ("decoy", "design_cat"),
    ("decoy", "design_squeezed"),
    ("decoy", "minimize_delta"),
    ("channel", "solve_eve"),
    ("channel", "ab_table"),
    ("channel", "aeb_table"),
    ("channel", "max_loss"),
    ("channel", "threshold_test"),
    ("montecarlo", "run_experiment"),
    ("montecarlo", "simulate"),
    ("cli", "main"),
)

# (module, function, enclosing span): a count for every call, and a second
# count for calls made inside the named span.
COUNTED = (
    ("numpy.linalg", "eigvalsh", "usd.optimize_usd"),
    ("numpy.random", "default_rng", None),
    ("usdguard.decoy", "delta_squeezed", "decoy.minimize_delta"),
    ("usdguard.states", "fock_coherent", None),
    ("usdguard.states", "fock_cat", None),
    ("usdguard.states", "fock_squeezed_vacuum", None),
)

STATES_ERRORS = ("CrossCheckError", "TruncationError")
FOCK_BYTES_PER_AMPLITUDE = 16  # complex128

SRC_MODULES = ("__init__", "channel", "cli", "config", "decoy", "golden", "montecarlo", "states", "tolerances", "usd")

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("usd.optimize_calls", "count"),
    ("usd.optimize_self_s", "s"),
    ("usd.optimize_ms_p50", "ms"),
    ("usd.eigvalsh_per_optimize", "count"),
    ("usd.geometry_self_s", "s"),
    ("usd.degenerate_ratio", "ratio"),
    ("states.gram_calls", "count"),
    ("states.gram_self_s", "s"),
    ("states.realize_calls", "count"),
    ("states.realize_self_s", "s"),
    ("states.fock_len_max", "count"),
    ("states.fock_bytes_computed", "B"),
    ("states.errors", "count"),
    ("decoy.design_calls", "count"),
    ("decoy.design_self_s", "s"),
    ("decoy.minimize_self_s", "s"),
    ("decoy.delta_evals_per_minimize", "count"),
    ("channel.solve_eve_calls", "count"),
    ("channel.solve_eve_self_s", "s"),
    ("channel.table_self_s", "s"),
    ("channel.max_loss_self_s", "s"),
    ("channel.threshold_self_s", "s"),
    ("channel.eve_feasible_ratio", "ratio"),
    ("montecarlo.simulate_calls", "count"),
    ("montecarlo.simulate_self_s", "s"),
    ("montecarlo.ns_per_pulse", "ns"),
    ("montecarlo.rng_streams", "count"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms_p50", "ms"),
    ("cli.report_bytes", "B"),
    ("cli.tracebacks", "count"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("checks.known_defect_ops", "count"),
    *((f"src.{m.strip('_')}_lines", "lines") for m in SRC_MODULES),
    ("src.total_lines", "lines"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.fock_len_max = 0
        self.op = -1
        self._open: list[int] = []
        self._open_names: list[str] = []
        self._patched: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        usdguard_modules = [m for n, m in list(sys.modules.items()) if n == "usdguard" or n.startswith("usdguard.")]
        for layer, attr in SPANS:
            module = sys.modules.get(f"usdguard.{layer}")
            if module is not None:
                original = getattr(module, attr)
                self._swap(usdguard_modules, original, self._span(f"{layer}.{attr}", original))
        for module_name, attr, inside in COUNTED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            modules = usdguard_modules if module_name.startswith("usdguard") else [module]
            self._swap(modules, original, self._counter(f"{module_name.split('.')[-1]}.{attr}", original, inside))

    def remove(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def _swap(self, modules, original, wrapper) -> None:
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._patched.append((namespace, key, original))

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            self._open_names.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                outer = not any(n.startswith("states.") for n in self._open_names[:-1])
                if name.startswith("states.") and outer and type(exc).__name__ in STATES_ERRORS:
                    self.counts["states.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._open.pop()
                self._open_names.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            self._observe(name, args, result)
            return result

        return traced

    def _counter(self, name: str, fn, inside: str | None):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1
            if inside is not None and inside in self._open_names:
                self.counts[f"{name}@{inside}"] += 1
            if name.startswith("states.fock_"):
                size = result.amplitudes.size
                self.counts["states.fock_bytes"] += FOCK_BYTES_PER_AMPLITUDE * size
                self.fock_len_max = max(self.fock_len_max, size)
            return result

        return counted

    def _observe(self, name: str, args, result) -> None:
        if name == "usd.optimize_usd":
            self.counts["usd.degenerate"] += bool(result.degenerate)
        elif name == "channel.solve_eve":
            self.counts["channel.eve_feasible"] += bool(result.feasible)
        elif name == "montecarlo.simulate":
            self.counts["montecarlo.pulses"] += args[0].n_pulses

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}))

    def layer_metrics(self) -> dict[str, float]:
        """The span- and counter-derived per-layer metrics."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        durations = defaultdict(list)
        self_s = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            durations[name].append(end - start)
            self_s[name] += end - start - child
        calls = {name: len(d) for name, d in durations.items()}
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def p50_ms(name: str) -> float:
            return statistics.median(durations[name]) * 1e3 if durations[name] else 0.0

        n_opt = calls.get("usd.optimize_usd", 0)
        n_min = calls.get("decoy.minimize_delta", 0)
        n_eve = calls.get("channel.solve_eve", 0)
        return {
            "usd.optimize_calls": n_opt,
            "usd.optimize_self_s": self_s["usd.optimize_usd"],
            "usd.optimize_ms_p50": p50_ms("usd.optimize_usd"),
            "usd.eigvalsh_per_optimize": ratio(c["linalg.eigvalsh@usd.optimize_usd"], n_opt),
            "usd.geometry_self_s": self_s["usd.build_geometry"],
            "usd.degenerate_ratio": ratio(c["usd.degenerate"], n_opt),
            "states.gram_calls": calls.get("states.gram_from_preps", 0),
            "states.gram_self_s": self_s["states.gram_from_preps"],
            "states.realize_calls": calls.get("states.realize", 0),
            "states.realize_self_s": self_s["states.realize"],
            "states.fock_len_max": self.fock_len_max,
            "states.fock_bytes_computed": c["states.fock_bytes"],
            "states.errors": c["states.errors"],
            "decoy.design_calls": calls.get("decoy.design_cat", 0) + calls.get("decoy.design_squeezed", 0),
            "decoy.design_self_s": self_s["decoy.design_cat"] + self_s["decoy.design_squeezed"],
            "decoy.minimize_self_s": self_s["decoy.minimize_delta"],
            "decoy.delta_evals_per_minimize": ratio(c["decoy.delta_squeezed@decoy.minimize_delta"], n_min),
            "channel.solve_eve_calls": n_eve,
            "channel.solve_eve_self_s": self_s["channel.solve_eve"],
            "channel.table_self_s": self_s["channel.ab_table"] + self_s["channel.aeb_table"],
            "channel.max_loss_self_s": self_s["channel.max_loss"],
            "channel.threshold_self_s": self_s["channel.threshold_test"],
            "channel.eve_feasible_ratio": ratio(c["channel.eve_feasible"], n_eve),
            "montecarlo.simulate_calls": calls.get("montecarlo.simulate", 0),
            "montecarlo.simulate_self_s": self_s["montecarlo.simulate"],
            "montecarlo.ns_per_pulse": ratio(self_s["montecarlo.simulate"] * 1e9, c["montecarlo.pulses"]),
            "montecarlo.rng_streams": c["random.default_rng"],
            "cli.main_ms_p50": p50_ms("cli.main"),
        }


def src_lines(src: Path) -> dict[str, int]:
    """Line count of each usdguard module (ROADMAP aim 2), and their total."""
    counts = {}
    total = 0
    for path in sorted((src / "usdguard").glob("*.py")):
        n = len(path.read_text().splitlines())
        total += n
        if path.stem in SRC_MODULES:
            counts[f"src.{path.stem.strip('_')}_lines"] = n
    out = {f"src.{m.strip('_')}_lines": 0 for m in SRC_MODULES}
    out.update(counts)
    out["src.total_lines"] = total
    return out

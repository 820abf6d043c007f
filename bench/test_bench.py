"""Tests of the benchmark itself: tiny runs of every workload, and checkers that reject wrong answers."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from bench import checks, inputs, library, run, tracing
from bench.cliops import Cli

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(run.WORKLOADS)  # the measured ones in BENCHMARK.json, and those run by hand


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_benchmark_json_names_every_metric():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_timed_run_reports_every_end_to_end_metric(workload):
    proc = bench_run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _traced(workload, n_cases: int) -> tuple[dict, dict]:
    workload.cases = workload.cases[:n_cases]
    try:
        result = run.traced_run(workload, workload.name, 3)
    finally:
        workload.close()
    return {k: v["value"] for k, v in result["metrics"].items()}, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_repeats_its_counts(workload):
    def make():
        if workload == "cli":
            return Cli(3, run.SCRATCH, in_process=True)
        return library.WORKLOADS[workload](3)

    run.SCRATCH.mkdir(exist_ok=True)
    first, result = _traced(make(), 4)
    second, _ = _traced(make(), 4)
    assert [k for k in result["metrics"]] == [name for name, _ in tracing.PER_LAYER]
    counts = [name for name, unit in tracing.PER_LAYER if unit in ("count", "B", "lines")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_same_seed_same_inputs():
    for make in (inputs.attack_map, inputs.decoy_screen, inputs.sessions, inputs.cli):
        assert make(5) == make(5)
        assert make(5) != make(6)


def test_only_failures_outside_the_known_defects_go_into_failed():
    class Workload:
        cases = [{"known_defect": "noted region"}, {"known_defect": None}, {"known_defect": "noted region"}]

        @staticmethod
        def check(case, out):
            return [] if out == "right" else ["wrong: answer"]

    outputs = {0: "wrong", 1: "wrong", 2: "right"}
    known, unknown, _ = run.verify(Workload, outputs, Counter({0: 3, 1: 2, 2: 4}), Counter({2: 1}))
    # a result that changes between runs is never a known defect
    assert (known, unknown) == (3, 2 + 1)


def test_cli_mix_covers_every_command_and_edge_case():
    cases = inputs.cli(1)
    assert {c["argv"][0] for c in cases} == {"overlaps", "usd", "eve", "simulate", "maxloss"}
    argvs = [c["argv"] for c in cases]
    assert all(list(edge) in argvs for edge, _, _ in inputs.EDGE_CASES)
    assert any(argvs.count(a) > 1 for a in argvs)


def _first(cases, **match):
    return next(c for c in cases if all(c[k] == v for k, v in match.items()) and not c["known_defect"])


@pytest.mark.parametrize("kind", ["squeezed", "orthogonal", "cat"])
def test_attack_map_check_rejects_p_s_plus_a_hundredth(kind):
    workload = library.AttackMap(1)
    case = _first(workload.cases, kind=kind)
    gram, sol, eve, masked = workload.op(case)
    assert checks.attack_map(case, (gram, sol, eve, masked)) == []
    wrong = dataclasses.replace(sol, p_s=sol.p_s + 0.01)
    assert checks.attack_map(case, (gram, wrong, eve, masked))


def test_decoy_screen_check_rejects_a_shifted_r_star():
    workload = library.DecoyScreen(1)
    case = workload.cases[1]
    cat, r_star, squeezed = workload.op(case)
    assert checks.decoy_screen(case, (cat, r_star, squeezed)) == []
    assert checks.decoy_screen(case, (cat, r_star + 1e-3, squeezed))


@pytest.mark.parametrize("scenario", inputs.SCENARIOS)
def test_session_check_rejects_permuted_counts(scenario):
    workload = library.Sessions(1)
    case = min((c for c in workload.cases if c["scenario"] == scenario), key=lambda c: c["n_pulses"])
    case = dict(case, n_pulses=200_000)
    verdict, counts = workload.op(case)
    assert workload.check(case, (verdict, counts)) == []
    permuted = counts.copy()
    permuted[:, [0, 2]] = permuted[:, [2, 0]]
    assert workload.check(case, (verdict, permuted))
    assert workload.check(case, (verdict, counts[[1, 2, 0]]))


def test_cli_check_rejects_a_flipped_exit_code():
    workload = Cli(1, run.SCRATCH, in_process=True)
    try:
        case = next(c for c in workload.cases if c["argv"][0] == "maxloss" and c["expect"] == 0)
        rc, stdout, stderr = workload.op(case)
        assert workload.check(case, (rc, stdout, stderr)) == []
        assert workload.check(case, (3, stdout, stderr))
        assert workload.check(case, (rc, stdout[:-5], stderr))
    finally:
        workload.close()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("--workload", "attack-map", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

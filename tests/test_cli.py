"""CLI tests: reports, schema round-trips, sweeps, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from usdguard.cli import SWEEP_STEPS_MAX, _sweep_values, main
from usdguard.config import REMOVED
from usdguard.states import R_MAX
from usdguard.tolerances import N_CUT_MAX

REPO = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((REPO / "schema" / "report.schema.json").read_text())
CONFIGS = REPO / "configs"

EXP_M05 = 0.6065306597126334
CAT_S13 = 0.8962507070325338
ALPHA_STAR_R05 = 0.7115279509250022
COH_SQ_OVERLAP = 0.8218357088605402


def run_cli(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    # round-trip: the emitted document re-serializes identically
    assert json.dumps(report, sort_keys=True) + "\n" == out
    return code, report


def test_overlaps_cat(capsys):
    code, report = run_cli(capsys, "overlaps", "--set", "alpha=0.5")
    assert code == 0
    gram = report["result"]["gram"]
    assert abs(gram["s12"]["numeric"]["re"] - EXP_M05) < 1e-9
    assert abs(gram["s13"]["numeric"]["re"] - CAT_S13) < 1e-9
    assert gram["s13"]["discrepancy"] < 1e-8
    assert report["result"]["symmetric"]


def test_overlaps_orthogonal_decoy(capsys):
    code, report = run_cli(capsys, "overlaps", "--set", "decoy.kind=orthogonal")
    assert code == 0
    s13 = report["result"]["gram"]["s13"]
    assert s13["analytic"] == {"re": 0.0, "im": 0.0}
    assert abs(complex(s13["numeric"]["re"], s13["numeric"]["im"])) < 1e-10


def test_overlaps_squeezed(capsys):
    code, report = run_cli(
        capsys, "overlaps", "--set", f"alpha={ALPHA_STAR_R05}",
        "--set", "decoy.kind=squeezed", "--set", "decoy.r=0.5",
    )
    assert code == 0
    s13 = report["result"]["gram"]["s13"]["numeric"]["re"]
    assert abs(s13 - COH_SQ_OVERLAP) < 1e-9


def test_usd_cat_degenerate_exit_code(capsys):
    code, report = run_cli(capsys, "usd", "--config", str(CONFIGS / "honest.json"))
    assert code == 3
    sol = report["result"]["solution"]
    assert (sol["p_s"], sol["p_d"], sol["p0"]) == (0.0, 0.0, 1.0)
    assert report["result"]["geometry"]["degenerate"]


@pytest.mark.parametrize("alpha", ["40", "60"])
def test_usd_cat_degenerate_at_large_alpha(capsys, alpha):
    code, report = run_cli(capsys, "usd", "--set", f"alpha={alpha}")
    assert code == 3
    assert report["result"]["geometry"] == {"l": 1.0, "m": 0.0, "degenerate": True}


def test_overlaps_reports_realized_cutoff(capsys):
    code, report = run_cli(capsys, "overlaps", "--set", "alpha=10")
    assert code == 0
    assert report["result"]["n_cut"] > 64
    assert report["result"]["gram"]["s13"]["discrepancy"] < 1e-8


def test_usd_orthogonal(capsys):
    code, report = run_cli(
        capsys, "usd", "--set", "decoy.kind=orthogonal", "--set", "nu=0.1"
    )
    assert code == 0
    sol = report["result"]["solution"]
    assert abs(sol["p_s"] - (1.0 - EXP_M05)) < 1e-6
    assert abs(sol["p_d"] - 1.0) < 1e-9


def test_usd_sweep_csv(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, report = run_cli(
        capsys, "usd",
        "--set", "decoy.kind=squeezed",
        "--set", 'sweep={"param": "r", "start": 0.2, "stop": 1.0, "steps": 5}',
        "--csv", str(out),
    )
    assert code == 0
    assert report["result"]["sweep"] == {"param": "r", "points": 5, "csv": str(out)}
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["r", "p_s", "p_d", "p0"]
    assert len(rows) == 6
    for row in rows[1:]:
        p_s, p_d, p0 = (float(x) for x in row[1:])
        assert abs(p0 - (1.0 - 0.99 * p_s - 0.01 * p_d)) < 1e-9


def test_usd_sweep_requires_csv(capsys):
    code = main([
        "usd", "--set", "decoy.kind=squeezed",
        "--set", 'sweep={"param": "r", "start": 0.2, "stop": 1.0, "steps": 3}',
    ])
    assert code == 2
    assert "csv" in capsys.readouterr().err.lower()


def test_eve_cat_attack_impossible(capsys):
    code, report = run_cli(capsys, "eve", "--config", str(CONFIGS / "honest.json"))
    assert code == 3
    solve = report["result"]["solve"]
    assert solve["attack_impossible"] and not solve["feasible"]
    assert report["result"]["source"] == "usd"


def test_eve_feasible_masking(capsys):
    code, report = run_cli(
        capsys, "eve", "--set", "decoy.kind=orthogonal", "--set", "nu=0.1"
    )
    assert code == 0
    assert report["result"]["solve"]["feasible"]
    assert report["result"]["masking_max_abs_diff"] < 1e-12
    assert not report["result"]["detection_rate_check"]["attack_excluded"]


def test_eve_decoy_rate_violation(capsys):
    code, report = run_cli(
        capsys, "eve",
        "--set", 'eve={"p_s": 0.3935, "p_d": 0.01}',
    )
    assert code == 3
    result = report["result"]
    assert result["source"] == "config"
    assert any("p_d < d" in v for v in result["solve"]["violations"])
    assert result["detection_rate_check"]["attack_excluded"]


def test_simulate_honest_config(capsys):
    code, report = run_cli(capsys, "simulate", "--config", str(CONFIGS / "honest.json"))
    assert code == 0
    verdict = report["result"]["verdict"]
    assert not verdict["attack_detected"]
    assert not verdict["bounds_separated"]  # no interceptor hypothesis configured
    stats = report["result"]["stats"]
    assert stats["n_pulses"] == 1_000_000
    assert stats["n_decoys_detected"] > 0


def test_simulate_cat_attack_config(capsys):
    code, report = run_cli(capsys, "simulate", "--config", str(CONFIGS / "cat_attack.json"))
    assert code == 0
    verdict = report["result"]["verdict"]
    assert verdict["bounds_separated"]
    assert verdict["attack_detected"]
    assert report["result"]["stats"]["n_decoys_detected"] == 0


def test_simulate_masked_eve_config(capsys):
    code, report = run_cli(capsys, "simulate", "--config", str(CONFIGS / "eve_masked.json"))
    assert code == 0
    verdict = report["result"]["verdict"]
    assert not verdict["bounds_separated"]
    assert not verdict["attack_detected"]


def test_simulate_deterministic_output(capsys):
    argv = ["simulate", "--config", str(CONFIGS / "honest.json"), "--set", "simulation.n_pulses=20000"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first.encode() == second.encode()


def test_simulate_seed_flag_overrides(capsys):
    base = ["simulate", "--config", str(CONFIGS / "honest.json"), "--set", "simulation.n_pulses=20000"]
    main(base)
    default_out = capsys.readouterr().out
    main(base + ["--seed", "4242"])
    seeded_out = capsys.readouterr().out
    assert json.loads(seeded_out)["inputs"]["simulation"]["seed"] == 4242
    assert default_out != seeded_out


def test_maxloss_report(capsys):
    code, report = run_cli(capsys, "maxloss")
    assert code == 0
    assert abs(report["result"]["max_loss_db"] - (-10.0 * math.log10(0.04))) < 1e-9


def test_maxloss_infeasible_exit(capsys):
    code, report = run_cli(capsys, "maxloss", "--set", "loss.p_d=0.2")
    assert code == 3
    assert report["result"]["max_loss_db"] is None
    assert not report["result"]["feasible"]


def test_maxloss_sweep(capsys, tmp_path):
    out = tmp_path / "loss.csv"
    code, report = run_cli(
        capsys, "maxloss",
        "--set", 'sweep={"param": "mu", "start": 0.05, "stop": 1.0, "steps": 4}',
        "--set", "loss.p_d=0.01",
        "--csv", str(out),
    )
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["mu", "max_loss_db", "feasible"]
    assert rows[1][1] == "" and rows[1][2] == "False"  # mu=0.05: 0.005 <= p_d
    assert float(rows[-1][1]) == pytest.approx(-10.0 * math.log10(0.1 - 0.01))


def test_validation_error_exit_code(capsys):
    code = main(["usd", "--set", "alpha=-1"])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_validation_error_in_channel(capsys):
    code = main(["simulate", "--set", "channel.g=1.5"])
    assert code == 2
    assert "channel" in capsys.readouterr().err


def test_unknown_decoy_kind(capsys):
    code = main(["usd", "--set", "decoy.kind=thermal"])
    assert code == 2
    assert "decoy.kind" in capsys.readouterr().err


def test_config_file_missing(capsys):
    code = main(["usd", "--config", "/nonexistent/cfg.json"])
    assert code == 2


@pytest.mark.parametrize("command", ["usd", "eve", "simulate"])
@pytest.mark.parametrize("override", ["alpha=NaN", "alpha=Infinity", "nu=0", "nu=1"])
def test_non_finite_and_boundary_inputs_exit_2(capsys, command, override):
    code = main([command, "--set", override])
    err = capsys.readouterr().err
    assert code == 2
    assert override.split("=")[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["usd", "eve"])
def test_non_symmetric_raw_decoy_exit_2(capsys, command):
    code = main([command, "--set", "decoy.kind=raw", "--set", "decoy.amplitudes=[[0, 0], [1, 0]]"])
    err = capsys.readouterr().err
    assert code == 2
    assert "decoy" in err and "symmetric" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        pytest.param(["usd", "--set", "alpha=1e200"], "alpha", id="usd-alpha-squared-overflows"),
        pytest.param(["overlaps", "--set", "alpha=1e200"], "alpha", id="overlaps-alpha-squared-overflows"),
        pytest.param(["usd", "--set", "decoy.kind=squeezed", "--set", "decoy.r=1000"], "decoy.r", id="r-1000"),
        pytest.param(["usd", "--set", 'sweep={"param": "alpha", "start": -1, "stop": 1, "steps": 3}', "--csv", "{tmp}"],
                     "alpha", id="alpha-sweep-from-negative"),
    ],
)
def test_out_of_domain_signal_and_decoy_exit_2(capsys, tmp_path, argv, field):
    code = main([a.replace("{tmp}", str(tmp_path / "x.csv")) for a in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


TWO_PHOTON = "decoy.amplitudes=[[0, 0], [0, 0], [1, 0]]"


@pytest.mark.parametrize("command", ["usd", "eve"])
@pytest.mark.parametrize(
    "decoy",
    [
        pytest.param(["--set", "decoy.kind=orthogonal"], id="orthogonal"),
        pytest.param(["--set", "decoy.kind=raw", "--set", TWO_PHOTON], id="raw-two-photon"),
    ],
)
def test_decoys_orthogonal_to_signals_at_large_alpha(capsys, command, decoy):
    code, report = run_cli(capsys, command, "--set", "alpha=100", *decoy)
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    p_d = report["result"]["solution"]["p_d"] if command == "usd" else report["result"]["p_d"]
    assert p_d == 1.0


def _usd_result(capsys, *argv: str) -> tuple[int, dict | None]:
    code = main(["usd", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)["result"] if out else None


@pytest.mark.parametrize("phi", [1e15, 1e17, -1.7e308])
@pytest.mark.parametrize("kind", ["cat", "squeezed", "orthogonal", "raw"])
def test_large_phase_acts_as_its_reduction(capsys, kind, phi):
    # phi + pi rounds to phi beyond ~1e15, so the signals are built from fmod(phi, 2 pi)
    decoy = ["--set", f"decoy.kind={kind}", "--set", TWO_PHOTON]  # only a raw decoy reads amplitudes
    code, result = _usd_result(capsys, *decoy, "--set", f"phi={phi!r}")
    code_0, result_0 = _usd_result(capsys, *decoy)
    assert code == code_0 and code in (0, 3)
    assert main(["eve", *decoy, "--set", f"phi={phi!r}"]) == main(["eve", *decoy])
    capsys.readouterr()
    if kind in ("cat", "orthogonal"):
        for key in ("p_s", "p_d"):
            assert abs(result["solution"][key] - result_0["solution"][key]) <= 1e-12
    if kind == "squeezed":
        reduced = _usd_result(capsys, *decoy, "--set", f"phi={math.fmod(phi, 2.0 * math.pi)!r}")
        assert json.dumps(result, sort_keys=True) == json.dumps(reduced[1], sort_keys=True)


@pytest.mark.parametrize(
    "argv, truncated",
    [
        pytest.param(["--set", "alpha=100", "--set", "decoy.kind=squeezed"], {0, 1}, id="alpha-100-squeezed"),
        pytest.param(["--set", "decoy.kind=squeezed", "--set", "decoy.r=5"], {2}, id="r-5"),
        pytest.param(["--set", "decoy.kind=orthogonal", "--set", "alpha=100"], {0, 1}, id="alpha-100-orthogonal"),
    ],
)
def test_overlaps_numeric_null_beyond_n_cut_max(capsys, argv, truncated):
    code, report = run_cli(capsys, "overlaps", *argv)
    assert code == 0
    result = report["result"]
    assert result["n_cut"] == N_CUT_MAX
    for k, tail in enumerate(result["tail_mass"]):
        assert (tail >= 1e-12) == (k in truncated), result["tail_mass"]
    for key, pair in {"s12": {0, 1}, "s13": {0, 2}, "s23": {1, 2}}.items():
        entry = result["gram"][key]
        assert (entry["numeric"] is None) == bool(pair & truncated), key
        assert (entry["discrepancy"] is None) == (entry["numeric"] is None)


def test_raw_decoy_amplitude_beyond_float_range_exit_2(capsys):
    code = main(["usd", "--set", "decoy.kind=raw", "--set", f"decoy.amplitudes=[[{10**400}, 0], [1, 0]]"])
    err = capsys.readouterr().err
    assert code == 2
    assert "decoy.amplitudes" in err and "Traceback" not in err


def test_config_file_with_unconvertible_integer_exit_2(capsys, tmp_path):
    cfg = tmp_path / "big.json"
    cfg.write_text('{"alpha": ' + "1" * 5000 + "}")
    assert main(["usd", "--config", str(cfg)]) == 2
    assert "config: invalid JSON" in capsys.readouterr().err


def _child(code: str, *args: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}, cwd=REPO,
    ).stdout


@pytest.mark.parametrize("module", ["usdguard", "usdguard.cli"])
def test_cold_import_leaves_numpy_unloaded(module):
    # importing numpy costs every command ~0.1 s before argparse runs
    assert _child(f"import sys, {module}; print('numpy' in sys.modules)").strip() == "False"


_NO_NUMPY_CHILD = """
import contextlib, io, json, sys
from usdguard.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, "numpy" in sys.modules, err.getvalue()]))
"""

MU_SWEEP = 'sweep={"param": "mu", "start": 0.05, "stop": 1.0, "steps": 20}'
R_SWEEP = '{"param": "r", "start": 0.2, "stop": 1.0, "steps": 3}'
EVE_MASKED = ["eve", "--config", "configs/eve_masked.json"]


# Config errors, maxloss, usd/eve for every decoy but raw (the optimizer's
# A0 spectrum is closed-form), the usd r-sweep and eve on a given
# (p_s, p_d) are closed forms: none of them loads numpy.
SQUEEZED_DESIGN = ["--config", "configs/squeezed_design.json"]
NO_NUMPY_CASES = [
    ("maxloss", ["maxloss"], 0, None),
    ("maxloss-infeasible", ["maxloss", "--set", "loss.p_d=0.2"], 3, None),
    ("maxloss-mu-sweep", ["maxloss", "--set", MU_SWEEP, "--csv", "{tmp}/loss.csv"], 0, None),
    ("alpha-nan", ["usd", "--set", "alpha=NaN"], 2, "alpha"),
    ("nu-0", ["usd", "--set", "nu=0"], 2, "nu"),
    ("decoy-kind-bogus", ["usd", "--set", "decoy.kind=bogus"], 2, "decoy.kind"),
    ("decoy-not-an-object", ["usd", "--set", "decoy=5"], 2, "decoy.kind"),
    ("config-missing", ["usd", "--config", "/nonexistent/cfg.json"], 2, "config"),
    ("eve-nu-1.5", ["eve", "--set", "nu=1.5"], 2, "nu"),
    ("n-pulses-0", ["simulate", "--set", "simulation.n_pulses=0"], 2, "simulation.n_pulses"),
    ("seed-on-non-object-simulation", ["simulate", "--set", "simulation=5", "--seed", "3"], 2, "simulation"),
    ("eve-p-e-list", ["simulate", "--set", 'eve={"solve": true, "p_s": 0.5, "p_d": 0.5, "p_e": [1]}'],
     2, "eve.p_e"),
    ("mu-negative", ["maxloss", "--set", "loss.mu=-1"], 2, "loss"),
    ("alpha-401-digits", ["usd", "--set", f"alpha={10**400}"], 2, "alpha"),
    ("mu-401-digits", ["maxloss", "--set", f"loss.mu={10**400}"], 2, "loss.mu"),
    ("mu-5000-digits", ["maxloss", "--set", "loss.mu=" + "1" * 5000], 2, "loss.mu"),
    ("usd-sweep-param-bogus", ["usd", "--set", "decoy.kind=squeezed", "--set", 'sweep={"param": "bogus"}'],
     2, "sweep.param"),
    ("usd-sweep-without-csv", ["usd", "--set", "decoy.kind=squeezed", "--set", f"sweep={R_SWEEP}"], 2, "--csv"),
    ("usd-r-sweep-on-cat", ["usd", "--set", f"sweep={R_SWEEP}", "--csv", "{tmp}/r.csv"], 2, "sweep.param"),
    ("n-cut-1e11", ["overlaps", "--set", f"n_cut={10**11}"], 2, "n_cut"),
    ("n-cut-max-plus-1", ["overlaps", "--set", f"n_cut={N_CUT_MAX + 1}"], 2, "n_cut"),
    (
        "sweep-steps-max-plus-1",
        ["maxloss", "--set", MU_SWEEP.replace('"steps": 20', f'"steps": {SWEEP_STEPS_MAX + 1}'), "--csv", "{tmp}/x.csv"],
        2,
        "sweep.steps",
    ),
    ("tail-tol-0", ["overlaps", "--set", "tolerances.tail_tol=0"], 2, "tolerances.tail_tol"),
    ("usd-cat-honest", ["usd", "--config", "configs/honest.json"], 3, None),
    ("eve-cat-honest", ["eve", "--config", "configs/honest.json"], 3, None),
    ("usd-cat-alpha-40", ["usd", "--set", "alpha=40"], 3, None),
    ("usd-cat-alpha-1e-4", ["usd", "--set", "alpha=1e-4"], 3, None),
    ("eve-cat-alpha-1e-7", ["eve", "--set", "alpha=1e-7"], 3, None),
    ("eve-given-feasible", [*EVE_MASKED, "--set", "eve.p_s=0.5", "--set", "eve.p_d=0.03"], 0, None),
    ("eve-given-p-d-below-d", [*EVE_MASKED, "--set", "eve.p_s=0.5", "--set", "eve.p_d=0.01"], 3, None),
    ("usd-squeezed-design", ["usd", *SQUEEZED_DESIGN], 0, None),
    ("eve-squeezed-design", ["eve", *SQUEEZED_DESIGN], 3, None),
    ("usd-orthogonal", ["usd", "--set", "decoy.kind=orthogonal"], 0, None),
    ("eve-orthogonal", ["eve", "--set", "decoy.kind=orthogonal"], 0, None),
    ("usd-r-sweep", ["usd", *SQUEEZED_DESIGN, "--set", f"sweep={R_SWEEP}", "--csv", "{tmp}/r.csv"], 0, None),
    ("maxloss-csv-no-such-dir", ["maxloss", "--set", MU_SWEEP, "--csv", "/nonexistent/x.csv"], 2, "--csv"),
    ("maxloss-csv-is-a-dir", ["maxloss", "--set", MU_SWEEP, "--csv", "{tmp}"], 2, "--csv"),
    ("usd-r-sweep-csv-is-a-dir", ["usd", *SQUEEZED_DESIGN, "--set", f"sweep={R_SWEEP}", "--csv", "{tmp}"], 2, "--csv"),
    ("eve-not-an-object", ["eve", "--set", "eve=5"], 2, "eve"),
    ("eve-lone-p-d", ["eve", "--set", "eve.p_d=0.5"], 2, "eve.p_s"),
    ("eve-lone-p-s", ["eve", "--set", "eve.p_s=0.5"], 2, "eve.p_d"),
    ("num-tol-max", ["usd", *SQUEEZED_DESIGN, "--set", "tolerances.num_tol=1e-06"], 2, "tolerances.num_tol"),
    ("num-tol-0.5", ["usd", *SQUEEZED_DESIGN, "--set", "tolerances.num_tol=0.5"], 2, "tolerances.num_tol"),
    ("num-tol-1e300", ["usd", *SQUEEZED_DESIGN, "--set", "tolerances.num_tol=1e300"], 2, "tolerances.num_tol"),
]


@pytest.mark.parametrize("argv, expect, field", [pytest.param(*case, id=name) for name, *case in NO_NUMPY_CASES])
def test_config_errors_and_maxloss_never_load_numpy(tmp_path, argv, expect, field):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, numpy_loaded, err = json.loads(_child(_NO_NUMPY_CHILD, json.dumps(argv)).splitlines()[-1])
    assert (code, numpy_loaded) == (expect, False)
    assert "Traceback" not in err
    if field is not None:
        assert err.startswith(f"config error: {field}")


@pytest.mark.parametrize("field", sorted(REMOVED))
def test_removed_field_rejected(tmp_path, field):
    *sections, key = field.split(".")
    doc = {key: 1}
    for section in reversed(sections):
        doc = {section: doc}
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps(doc))
    for argv in (["--config", str(cfg)], ["--set", f"{field}=1"]):
        code, numpy_loaded, err = json.loads(_child(_NO_NUMPY_CHILD, json.dumps(["usd", *argv])).splitlines()[-1])
        assert (code, numpy_loaded) == (2, False), argv
        assert err.startswith(f"config error: {field}: removed"), err


def test_non_degenerate_usd_loads_numpy():
    # numpy starts with the Fock vectors (the overlaps check column, a raw
    # decoy's overlaps) and with the sampler, not with the optimizer
    raw = ["--set", "decoy.kind=raw", "--set", "decoy.amplitudes=[[0, 0], [0, 0], [1, 0]]"]
    for argv in (["overlaps", *SQUEEZED_DESIGN], ["simulate"], ["usd", *raw]):
        code, numpy_loaded, err = json.loads(_child(_NO_NUMPY_CHILD, json.dumps(argv)).splitlines()[-1])
        assert (code, numpy_loaded, err) == (0, True, ""), argv


@pytest.mark.parametrize(
    "start, stop, steps",
    [
        (0.05, 1.0, 20), (0.0, 1.0, 2), (1.0, 0.3, 13), (-3.7, 11.1, 101), (0.1, 0.1, 5),
        (1e-300, -2.5e-301, 7),
        (0.0, 5e-324, 4),  # the step underflows to 0: numpy scales by i / (steps - 1) instead
    ],
)
def test_sweep_grid_is_linspace_bit_for_bit(start, stop, steps):
    cfg = {"sweep": {"param": "mu", "start": start, "stop": stop, "steps": steps}}
    _, values = _sweep_values(cfg, ("mu",))
    assert [v.hex() for v in values] == [v.hex() for v in np.linspace(start, stop, steps).tolist()]


VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def _validate_strict(out: str) -> None:
    """The report parses as strict JSON (no NaN or Infinity) and fits the schema."""
    def reject(constant):
        raise ValueError(f"non-finite {constant} in report")

    VALIDATOR.validate(json.loads(out, parse_constant=reject))


def test_domain_fuzz_overlaps_usd_eve(capsys):
    # seeded log-uniform alpha over the signal range, every decoy kind
    rng = np.random.default_rng(2026)
    decoys = {
        "cat": [],
        "squeezed": ["--set", "decoy.r=1.2"],
        "orthogonal": [],
        "raw": ["--set", "decoy.amplitudes=[[0, 0], [0, 0], [1, 0]]"],
    }
    for kind, extra in decoys.items():
        for alpha in np.exp(rng.uniform(math.log(0.05), math.log(60.0), 3)).tolist():
            codes = {}
            for command in ("overlaps", "usd", "eve"):
                argv = [command, "--set", f"alpha={alpha!r}", "--set", f"decoy.kind={kind}", *extra]
                codes[command] = main(argv)
                out = capsys.readouterr().out
                assert codes[command] in (0, 2, 3), argv
                if codes[command] in (0, 3):
                    _validate_strict(out)
            if kind == "cat":
                assert codes["usd"] == 3, alpha
            # the Fock check column never rejects what the exact Gram matrix accepts
            if codes["usd"] in (0, 3):
                assert codes["overlaps"] == 0, (kind, alpha)

    # simulate and maxloss at seeded extremes of every numeric input
    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    unit = [0.0, 5e-324, 1e-300, 1e-12, 0.02, 0.5, 1.0 - 1e-16, 1.0]
    nus = [5e-324, 1e-300, 1e-9, 0.01, 0.5, 1.0 - 1e-16]
    n_pulses = [1, 2, 10**6, 10**18, 2**63 - 1, 2**63]
    zs = [5e-324, 1.0, 5.0, 40.0, 1e300, 1.7e308]
    mus = [5e-324, 1e-300, 1e-3, 0.5, 1.0, 1e300, 1.7e308, 0.0, -1.0]
    for i in range(120):
        if i % 2:
            argv = ["maxloss", "--set", f"loss.mu={pick(mus)!r}"]
            argv += [f"--set=loss.{key}={pick(unit)!r}" for key in ("eta_b", "eta_d", "p_d")]
        else:
            argv = ["simulate", "--set", f"nu={pick(nus)!r}", "--set", f"simulation.n_pulses={pick(n_pulses)}"]
            argv += ["--set", f"simulation.z={pick(zs)!r}"]
            if i % 3 == 1:
                eve = {"solve": True, "p_s": pick(unit), "p_d": pick(unit)}
                argv += ["--set", "eve=" + json.dumps(eve)]
            elif i % 3 == 2:
                fields = ("p_e", "p_s", "p_d", "g_e", "e_e", "d0_e", "d1_e")
                argv += ["--set", "eve=" + json.dumps({key: pick(unit) for key in fields})]
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 2, 3), argv
        assert "Traceback" not in captured.err
        if code in (0, 3):
            _validate_strict(captured.out)

    # overlaps, usd and eve at seeded extremes of the state inputs
    rs = [-math.nextafter(R_MAX, 0.0), -5.0, -5e-324, 0.0, 1e-300, 1e-9, 2.5, math.nextafter(R_MAX, 0.0), R_MAX]
    phis = [-1.7e308, -math.pi, -5e-324, 0.0, 1e-300, math.pi / 2, 2.0 * math.pi, 1e16, 1.7e308]
    alphas = [0.0, 5e-324, 1e-7, 0.05, 1.0, 10.0, 60.0]
    seen = set()
    for i in range(90):
        argv = [("overlaps", "usd", "eve")[i % 3], "--set", f"decoy.kind={pick(['squeezed', 'squeezed', 'orthogonal', 'cat'])}"]
        argv += ["--set", f"decoy.r={pick(rs)!r}", "--set", f"phi={pick(phis)!r}", "--set", f"alpha={pick(alphas)!r}"]
        code = main(argv)
        captured = capsys.readouterr()
        seen.add(code)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in captured.err
        if code in (0, 3):
            _validate_strict(captured.out)
    assert seen == {0, 2, 3}

"""Report corpus: the exit code, report, stderr and CSV of fixed CLI runs.

Each case runs ``cli.main`` in-process and is compared with the entry
recorded in ``corpus.json``.  Exit codes, keys, strings and integers must
match exactly; floats must agree within ``ULPS`` units in the last place,
so that another libm does not fail the test (byte identity of reports
is the benchmark's check).  A change that means to move reports
regenerates the corpus with

    PYTHONPATH=src python tests/test_corpus.py

and names the moved entries in its change notes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "corpus.json"
ULPS = 4

CONFIG_FILES = ("cat_attack", "eve_masked", "honest", "squeezed_design")
COMMANDS = ("overlaps", "usd", "eve", "simulate", "maxloss")
R_SWEEP = {"param": "r", "start": 0.1, "stop": 2.0, "steps": 20}
MU_SWEEP = {"param": "mu", "start": 0.05, "stop": 1.0, "steps": 20}
DECOYS = {
    "cat": [],
    "squeezed": ["--set", "decoy.r=1.2"],
    "orthogonal": [],
    "raw": ["--set", "decoy.amplitudes=[[0.6, 0], [0, 0], [0.8, 0]]"],
}


def _cases() -> dict[str, list[str]]:
    """Case name -> argv; ``{repo}`` and ``{tmp}`` are filled in per run."""
    cases = {}
    for name in CONFIG_FILES:
        for command in COMMANDS:
            cases[f"{command}-{name}"] = [command, "--config", f"{{repo}}/configs/{name}.json"]
    squeezed = ["--config", "{repo}/configs/squeezed_design.json"]
    cases["usd-r-sweep"] = ["usd", *squeezed, "--set", f"sweep={json.dumps(R_SWEEP)}", "--csv", "{tmp}/r.csv"]
    cases["maxloss-mu-sweep"] = ["maxloss", "--set", f"sweep={json.dumps(MU_SWEEP)}", "--csv", "{tmp}/mu.csv"]
    for kind, extra in DECOYS.items():
        for command in ("overlaps", "usd", "eve"):
            cases[f"{command}-{kind}"] = [command, "--set", f"decoy.kind={kind}", *extra]
    for alpha in ("1e-4", "3.0", "40"):
        for kind in ("cat", "squeezed", "orthogonal"):
            cases[f"usd-{kind}-alpha-{alpha}"] = ["usd", "--set", f"alpha={alpha}", "--set", f"decoy.kind={kind}"]
    cases["usd-cat-phi-1"] = ["usd", "--set", "alpha=3.0", "--set", "phi=1.0"]
    cases["usd-cat-alpha-16.6-phi-1"] = ["usd", "--set", "alpha=16.61337261217824", "--set", "phi=1.0"]
    cases["overlaps-orthogonal-alpha-40"] = ["overlaps", "--set", "alpha=40", "--set", "decoy.kind=orthogonal"]
    cases["eve-given-feasible"] = ["eve", "--set", "eve.p_s=0.5", "--set", "eve.p_d=0.03"]
    cases["simulate-masked-seed-3"] = ["simulate", "--config", "{repo}/configs/eve_masked.json", "--seed", "3"]
    # invalid inputs: exit 2 with the field named on stderr
    cases["usd-alpha-nan"] = ["usd", "--set", "alpha=NaN"]
    cases["usd-nu-0"] = ["usd", "--set", "nu=0"]
    cases["usd-decoy-kind-bogus"] = ["usd", "--set", "decoy.kind=bogus"]
    cases["simulate-config-missing"] = ["simulate", "--config", "{repo}/configs/missing.json"]
    cases["eve-nu-1.5"] = ["eve", "--set", "nu=1.5"]
    cases["simulate-n-pulses-0"] = ["simulate", "--set", "simulation.n_pulses=0"]
    cases["maxloss-mu-negative"] = ["maxloss", "--set", "loss.mu=-1"]
    cases["usd-raw-asymmetric"] = ["usd", "--set", "decoy.kind=raw", "--set", "decoy.amplitudes=[[0.6, 0], [0.8, 0]]"]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> dict:
    """Run one case in-process; paths in its outputs read ``{repo}`` and ``{tmp}``."""
    from usdguard.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        subs = (("{repo}", str(REPO)), ("{tmp}", tmp))
        argv = [_fill(a, subs) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        back = tuple((value, key) for key, value in subs)
        csvs = {
            path.name: _fill(path.read_text(), back).splitlines()
            for path in sorted(Path(tmp).iterdir())
        }
    stdout = _fill(out.getvalue(), back)
    return {
        "exit": code,
        "report": json.loads(stdout) if stdout else None,
        "stderr": _fill(err.getvalue(), back),
        "csv": csvs,
    }


def _fill(text: str, subs: tuple[tuple[str, str], ...]) -> str:
    for old, new in subs:
        text = text.replace(old, new)
    return text


def _ordinal(x: float) -> int:
    """Position of x among the doubles, so that adjacent doubles differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _csv_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def mismatches(got, want, path: str = "$") -> list[str]:
    """Where got differs from want: floats by more than ULPS, anything else at all."""
    if isinstance(want, float) and isinstance(got, float):
        if abs(_ordinal(got) - _ordinal(want)) > ULPS:
            return [f"{path}: {got!r} != {want!r}"]
        return []
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _comparable(entry: dict) -> dict:
    """The entry with each CSV line split into cells and numeric cells read as floats."""
    csvs = {name: [[_csv_cell(c) for c in line.split(",")] for line in lines] for name, lines in entry["csv"].items()}
    return {**entry, "csv": csvs}


def _recorded() -> dict:
    return json.loads(CORPUS.read_text())


def test_corpus_lists_every_case():
    assert sorted(_recorded()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_corpus(name):
    want = _recorded()[name]
    assert want["argv"] == CASES[name]
    got = {"argv": CASES[name], **run_case(CASES[name])}
    assert "Traceback" not in got["stderr"]
    assert mismatches(_comparable(got), _comparable(want)) == []


def test_float_comparison_counts_ulps():
    x = 0.1
    near = struct.unpack("<d", struct.pack("<q", struct.unpack("<q", struct.pack("<d", x))[0] + ULPS))[0]
    far = math.nextafter(near, 1.0)
    assert mismatches(near, x) == [] and mismatches(far, x) != []
    assert mismatches(-0.0, 0.0) == [] and mismatches(5e-324, -5e-324) == []
    assert mismatches(1, 1.0) != [] and mismatches({"a": 1.0}, {"b": 1.0}) != []


def regenerate() -> None:
    corpus = {name: {"argv": argv, **run_case(argv)} for name, argv in CASES.items()}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()

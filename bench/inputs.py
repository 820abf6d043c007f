"""Seeded inputs for the four workloads.

Only this module reads the workload seed; the library sees the values it
generates.  Draws are stratified so that two seeds give the same mix of
cheap and expensive operations and differ only within each stratum: the
figures then move with the program, not with the seed.  The primary cost
axis of each workload is also put in a low-discrepancy order, so a run
that stops part-way through the list has still covered the whole range.

A case whose inputs fall in a region where usdguard is known to be wrong
carries a ``known_defect`` note.  Such cases stay in the mix and are
checked like every other; the note lets the report count their failures
apart from new ones, which alone go into the result's ``failed``.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

ALPHA_RANGE = (0.05, 10.0)
# Above this amplitude the cat verdict flips at alpha ~ 4.7 and 7.9, and
# Fock sums for squeezed decoys fail their cross-check or truncation.
KNOWN_BAD_ALPHA = 4.5
CAT_VERDICT = "cat decoy judged non-degenerate (Fock-sum noise in the Gram determinant)"
SQUEEZED_FOCK = "squeezed-decoy Fock sum fails its cross-check or truncation at large alpha"

SCENARIOS = ("honest", "eve_masked", "cat_attack")


def _radical_inverse(k: int) -> float:
    x, weight = 0.0, 0.5
    while k:
        if k & 1:
            x += weight
        k >>= 1
        weight *= 0.5
    return x


def spread_order(n: int) -> list[int]:
    """Permutation of range(n) whose every prefix is spread over range(n)."""
    ranked = sorted(range(n), key=_radical_inverse)
    order = [0] * n
    for stratum, k in enumerate(ranked):
        order[k] = stratum
    return order


def stratified(rng: random.Random, n: int, spread: bool = False) -> list[float]:
    """n uniform draws on [0, 1), one in each of n equal strata.

    The strata are visited in spread_order when spread is set, else in a
    seeded random order (a Latin-hypercube column).
    """
    if spread:
        order = spread_order(n)
    else:
        order = list(range(n))
        rng.shuffle(order)
    return [(s + rng.random()) / n for s in order]


def log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def uniform(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def shuffled_blocks(rng: random.Random, block: list, n_blocks: int) -> list:
    """n_blocks copies of block, each in its own seeded order."""
    out = []
    for _ in range(n_blocks):
        b = list(block)
        rng.shuffle(b)
        out.extend(b)
    return out


def attack_map(seed: int, n: int = 256) -> list[dict]:
    """Design points: squeezed, cat and orthogonal decoys in the ratio 2:1:1."""
    rng = random.Random(seed)
    alphas = [log_uniform(u, *ALPHA_RANGE) for u in stratified(rng, n, spread=True)]
    nus = [log_uniform(u, 1e-3, 0.5) for u in stratified(rng, n)]
    rs = [uniform(u, 0.05, 2.5) for u in stratified(rng, n)]
    kinds = shuffled_blocks(rng, ["squeezed", "squeezed", "cat", "orthogonal"], -(-n // 4))
    cases = []
    for alpha, nu, r, kind in zip(alphas, nus, rs, kinds):
        known = None
        if alpha > KNOWN_BAD_ALPHA and kind == "cat":
            known = CAT_VERDICT
        elif alpha > KNOWN_BAD_ALPHA and kind == "squeezed":
            known = SQUEEZED_FOCK
        r = r if kind == "squeezed" else None
        cases.append({"kind": kind, "alpha": alpha, "r": r, "nu": nu, "known_defect": known})
    return cases


def decoy_screen(seed: int, n: int = 4096) -> list[dict]:
    """Signal amplitudes to screen a cat and an optimal squeezed decoy against."""
    rng = random.Random(seed)
    cases = []
    for u in stratified(rng, n, spread=True):
        alpha = log_uniform(u, *ALPHA_RANGE)
        known = f"{CAT_VERDICT}; {SQUEEZED_FOCK}" if alpha > KNOWN_BAD_ALPHA else None
        cases.append({"alpha": alpha, "known_defect": known})
    return cases


def load_scenario(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text())


def sessions(seed: int, n: int = 48) -> list[dict]:
    """Simulated sessions of the shipped scenarios, 1e4 to 1e7 pulses each.

    Session sizes are the midpoints of n log-spaced strata, the same for
    every seed: the sampler's cost is linear in the size, so jittered sizes
    would move the figures from seed to seed.  The seed draws the scenario,
    z and the session's own RNG seed.
    """
    rng = random.Random(seed)
    pulses = [round(log_uniform((s + 0.5) / n, 1e4, 1e7)) for s in spread_order(n)]
    blocks = -(-n // 3)
    scenarios = shuffled_blocks(rng, list(SCENARIOS), blocks)
    zs = shuffled_blocks(rng, [3.0, 4.0, 5.0], blocks)
    return [
        {"scenario": s, "n_pulses": p, "z": z, "seed": rng.getrandbits(63), "known_defect": None}
        for p, s, z in zip(pulses, scenarios, zs)
    ]


# (argv, expected exit code, known defect) for invalid and edge inputs.
EDGE_CASES = (
    (["usd", "--set", "alpha=NaN"], 2, "NaN passes validation and ends in a traceback"),
    (["usd", "--set", "nu=0"], 2, "nu=0 passes validation and ends in a traceback"),
    (["usd", "--set", "alpha=40"], 3, CAT_VERDICT),
    (["usd", "--set", "decoy.kind=bogus"], 2, None),
    (["simulate", "--config", "configs/missing.json"], 2, None),
    (["eve", "--set", "nu=1.5"], 2, None),
    (["simulate", "--set", "simulation.n_pulses=0"], 2, None),
    (["maxloss", "--set", "loss.mu=-1"], 2, None),
)

# Shipped channel and loss figures the expected exit codes are derived from.
CHANNEL = {"g": 0.9, "e": 0.01, "d0": 0.01, "d1": 0.01}
LOSS = {"mu": 0.5, "eta_b": 0.5, "eta_d": 0.2}


def _eve_feasible(p_s: float, p_d: float) -> bool:
    # resend rates that keep every honest rate: g_e = 1 - (1-g)/p_s, e_e = e/p_s, d_e = d/p_d
    if p_s <= 0.0 or p_d <= 0.0:
        return False
    g_e = 1.0 - (1.0 - CHANNEL["g"]) / p_s
    e_e = CHANNEL["e"] / p_s
    d_e = (CHANNEL["d0"] + CHANNEL["d1"]) / p_d
    return g_e >= 0.0 and e_e <= 1.0 and g_e + e_e <= 1.0 and d_e <= 1.0


def _num(x: float) -> str:
    return repr(float(x))


def cli(seed: int, n_blocks: int = 1) -> list[dict]:
    """usdguard CLI invocations in blocks of 25 with a fixed mix.

    Each block has 3 overlaps, 3 usd, 3 eve, 3 simulate and 2 maxloss
    runs, one usd r-sweep and one maxloss mu-sweep of 20 steps, every
    invalid or edge input once and a repeat of one of the overlaps runs.
    The list is short so that each invocation runs at least three times
    in a measurement.  ``{tmp}`` in an argument stands for the run's
    scratch directory.
    """
    rng = random.Random(seed)

    def alpha() -> float:
        return log_uniform(rng.random(), *ALPHA_RANGE)

    def case(argv, expect, known=None):
        return {"argv": argv, "expect": expect, "known_defect": known}

    cases = []
    for b in range(n_blocks):
        block = []
        for kind in rng.sample(["cat", "squeezed", "orthogonal"], 3):
            a = alpha()
            known = None
            if a > KNOWN_BAD_ALPHA and kind != "orthogonal":
                known = CAT_VERDICT if kind == "cat" else SQUEEZED_FOCK
            argv = ["overlaps", "--set", f"alpha={_num(a)}", "--set", f"decoy.kind={kind}"]
            block.append(case(argv, 0, known))
        a = alpha()
        block.append(
            case(
                ["usd", "--config", "configs/honest.json", "--set", f"alpha={_num(a)}"],
                3,
                CAT_VERDICT if a > KNOWN_BAD_ALPHA else None,
            )
        )
        r = uniform(rng.random(), 0.05, 2.5)
        block.append(case(["usd", "--config", "configs/squeezed_design.json", "--set", f"decoy.r={_num(r)}"], 0))
        block.append(
            case(
                [
                    "usd", "--set", "decoy.kind=orthogonal",
                    "--set", f"alpha={_num(alpha())}",
                    "--set", f"nu={_num(log_uniform(rng.random(), 1e-3, 0.5))}",
                ],
                0,
            )
        )
        for _ in range(2):
            p_s, p_d = uniform(rng.random(), 0.05, 1.0), uniform(rng.random(), 0.0, 0.05)
            argv = ["eve", "--config", "configs/eve_masked.json"]
            argv += ["--set", f"eve.p_s={_num(p_s)}", "--set", f"eve.p_d={_num(p_d)}"]
            block.append(case(argv, 0 if _eve_feasible(p_s, p_d) else 3))
        a = alpha()
        block.append(
            case(
                ["eve", "--config", "configs/honest.json", "--set", f"alpha={_num(a)}"],
                3,
                CAT_VERDICT if a > KNOWN_BAD_ALPHA else None,
            )
        )
        for scenario in rng.sample(SCENARIOS, 3):
            seed_arg = str(rng.getrandbits(31))
            block.append(case(["simulate", "--config", f"configs/{scenario}.json", "--seed", seed_arg], 0))
        for _ in range(2):
            mu, p_d = uniform(rng.random(), 0.1, 1.0), uniform(rng.random(), 0.0, 0.08)
            margin = mu * LOSS["eta_b"] * LOSS["eta_d"] - p_d
            argv = ["maxloss", "--set", f"loss.mu={_num(mu)}", "--set", f"loss.p_d={_num(p_d)}"]
            block.append(case(argv, 0 if margin > 0.0 else 3))
        r0, r1 = uniform(rng.random(), 0.05, 0.5), uniform(rng.random(), 1.0, 2.0)
        sweep = {"param": "r", "start": r0, "stop": r1, "steps": 20}
        argv = ["usd", "--config", "configs/squeezed_design.json", "--set", f"sweep={json.dumps(sweep)}"]
        block.append(case(argv + ["--csv", f"{{tmp}}/r-sweep-{b}.csv"], 0))
        sweep = {"param": "mu", "start": 0.05, "stop": 1.0, "steps": 20}
        argv = ["maxloss", "--set", f"sweep={json.dumps(sweep)}"]
        block.append(case(argv + ["--csv", f"{{tmp}}/mu-sweep-{b}.csv"], 0))
        for argv, expect, known in EDGE_CASES:
            block.append(case(list(argv), expect, known))
        # the repeat is one of the three overlaps runs, so the mix of costs is the same for every seed
        block.append(dict(block[rng.randrange(3)]))
        rng.shuffle(block)
        cases.extend(block)
    return cases

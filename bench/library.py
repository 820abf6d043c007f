"""The in-process workloads: attack-map, decoy-screen and sessions.

Each class holds its seeded cases and does one operation per call to
``op``; ``check`` hands the output to the matching oracle in
``bench.checks`` and ``fingerprint`` reduces it to what must repeat
exactly when the same case runs again.  Library functions are looked up
on their modules at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import math

from usdguard import channel as ch
from usdguard import decoy as dc
from usdguard import montecarlo as mc
from usdguard import states as st
from usdguard import usd

from bench import checks, inputs


class _Library:
    # Cases run before timing.  The inputs are in spread order, so these
    # cover the whole amplitude range and fill every cached Fock cutoff.
    warm_up_cases = 8

    def pulses(self, case: dict) -> int:
        return 0

    def close(self) -> None:
        pass


class AttackMap(_Library):
    name = "attack-map"

    def __init__(self, seed: int):
        self.cases = inputs.attack_map(seed)
        self.model = ch.ChannelModel(**inputs.CHANNEL)

    def op(self, case: dict):
        alpha = case["alpha"]
        if case["kind"] == "squeezed":
            decoy = st.squeezed_prep(case["r"])
        elif case["kind"] == "cat":
            decoy = st.cat_prep(alpha)
        else:
            decoy = st.orthogonal_decoy_prep(alpha)
        gram = st.gram_from_preps(st.coherent_prep(alpha), st.coherent_prep(alpha, math.pi), decoy)
        sol = usd.optimize_usd(gram, case["nu"])
        eve = ch.solve_eve(self.model, sol.p_s, sol.p_d)
        masked = ch.aeb_table(self.model, eve.strategy) if eve.feasible else None
        ch.max_loss(inputs.LOSS["mu"], inputs.LOSS["eta_b"], inputs.LOSS["eta_d"], sol.p_d)
        return gram, sol, eve, masked

    @staticmethod
    def check(case: dict, out) -> list[str]:
        return checks.attack_map(case, out)

    @staticmethod
    def fingerprint(out):
        _, sol, eve, _ = out
        return sol.p_s, sol.p_d, sol.degenerate, eve.feasible


class DecoyScreen(_Library):
    name = "decoy-screen"

    def __init__(self, seed: int):
        self.cases = inputs.decoy_screen(seed)

    def op(self, case: dict):
        alpha = case["alpha"]
        cat = dc.design_cat(alpha)
        r_star, _ = dc.minimize_delta(alpha)
        squeezed = dc.design_squeezed(alpha, r_star)
        dc.optimal_alpha(r_star)
        return cat, r_star, squeezed

    @staticmethod
    def check(case: dict, out) -> list[str]:
        return checks.decoy_screen(case, out)

    @staticmethod
    def fingerprint(out):
        cat, r_star, squeezed = out
        return cat.usd_disabled, cat.m_value, r_star, squeezed.delta


def _scenario(config: dict):
    """Channel model, interceptor strategy and decoy fraction of a shipped scenario."""
    model = ch.ChannelModel(**config["channel"])
    eve = config["eve"]
    if eve is None:
        strategy = None
    elif eve.get("solve"):
        solved = ch.solve_eve(model, eve["p_s"], eve["p_d"]).strategy
        strategy = dataclasses.replace(solved, p_e=eve["p_e"])
    else:
        strategy = ch.EveStrategy(**eve)
    return model, strategy, config["nu"]


class Sessions(_Library):
    name = "sessions"
    # the three smallest-first cases in spread order: one of each scenario, under 1e6 pulses
    warm_up_cases = 3

    def __init__(self, seed: int):
        self.cases = inputs.sessions(seed)
        self.configs = {name: inputs.load_scenario(name) for name in inputs.SCENARIOS}
        self.scenarios = {name: _scenario(cfg) for name, cfg in self.configs.items()}

    def op(self, case: dict):
        model, eve, nu = self.scenarios[case["scenario"]]
        cfg = mc.SimConfig(n_pulses=case["n_pulses"], nu=nu, channel=model, eve=eve, seed=case["seed"])
        verdict, stats = mc.run_experiment(cfg, case["z"])
        return verdict, stats.counts

    def check(self, case: dict, out) -> list[str]:
        return checks.session(case, self.configs[case["scenario"]], out)

    @staticmethod
    def fingerprint(out):
        verdict, counts = out
        return verdict.attack_detected, counts.tobytes()

    def pulses(self, case: dict) -> int:
        return case["n_pulses"]


WORKLOADS = {w.name: w for w in (AttackMap, DecoyScreen, Sessions)}

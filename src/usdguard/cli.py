"""Command-line front end.

Subcommands: overlaps, usd, eve, simulate, maxloss.  Each prints one
JSON report document on stdout (keys sorted, no timestamps, so equal
configs give byte-identical output); sweeps additionally write a CSV
series to the path given with --csv.

Exit codes: 0 success, 2 validation error, 3 infeasible or degenerate
analytic outcome (the report is still printed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import TYPE_CHECKING

from .config import ConfigError, load_config, require_int, require_number

# channel, states, fock, usd and montecarlo, and the csv and dataclasses
# modules, are imported inside the commands that use them, after the
# command's own fields are validated: a config error loads none of them,
# and none of them loads numpy.
if TYPE_CHECKING:
    from . import channel as ch
    from . import states as st
    from . import usd

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

DECOY_KINDS = ("cat", "squeezed", "orthogonal", "raw")

# The sweep grid is held in memory, one float per point.
SWEEP_STEPS_MAX = 10**6


@contextlib.contextmanager
def _as_config_error(field: str, *errors: type[Exception]):
    """Report a library's ValueError (or one of errors) as a ConfigError naming field."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, *errors) as exc:
        raise ConfigError(field, str(exc))


def _cplx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _signal_params(cfg: dict) -> tuple[float, float]:
    return require_number(cfg, "alpha", lo=0.0), require_number(cfg, "phi")


def _decoy_kind(cfg: dict) -> str:
    decoy = cfg.get("decoy")
    kind = decoy.get("kind") if isinstance(decoy, dict) else None
    if kind not in DECOY_KINDS:
        raise ConfigError("decoy.kind", f"expected one of {DECOY_KINDS}, got {kind!r}")
    return kind


def _preps(cfg: dict, alpha: float, phi: float) -> tuple[st.StatePrep, ...]:
    """The two signal states and the configured decoy."""
    kind = _decoy_kind(cfg)
    from . import states as st

    with _as_config_error("alpha"):
        signals = st.signal_preps(alpha, phi)
    phi = signals[0].phi  # reduced modulo 2 pi: the orthogonal decoy's zero overlaps compare phases
    if kind == "cat":
        return *signals, st.cat_prep(alpha, phi)
    if kind == "squeezed":
        with _as_config_error("decoy.r"):
            return *signals, st.squeezed_prep(require_number(cfg, "decoy.r"))
    if kind == "orthogonal":
        return *signals, st.orthogonal_decoy_prep(alpha, phi)
    amps = cfg["decoy"].get("amplitudes")
    if not isinstance(amps, list) or len(amps) < 2 or not all(map(_is_number_pair, amps)):
        raise ConfigError("decoy.amplitudes", "raw decoy requires a list of [re, im] pairs")
    from . import fock

    with _as_config_error("decoy.amplitudes", OverflowError):  # an integer beyond float range
        return *signals, fock.raw_prep([complex(re, im) for re, im in amps])


def _is_number_pair(pair) -> bool:
    return (
        isinstance(pair, list)
        and len(pair) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    )


def _gram(preps: tuple[st.StatePrep, ...]) -> st.GramData:
    from . import states as st

    with _as_config_error("decoy"):
        return st.gram_from_preps(*preps)


def _channel(cfg: dict) -> ch.ChannelModel:
    rates = {key: require_number(cfg, f"channel.{key}", 0.0, 1.0) for key in ("g", "e", "d0", "d1")}
    from . import channel as ch

    with _as_config_error("channel"):
        return ch.ChannelModel(**rates)


def _eve_strategy(cfg: dict, model: ch.ChannelModel) -> ch.EveStrategy | None:
    eve_cfg = cfg.get("eve")
    if eve_cfg is None:
        return None
    if not isinstance(eve_cfg, dict):
        raise ConfigError("eve", "expected an object or null")
    from . import channel as ch

    with _as_config_error("eve"):
        if eve_cfg.get("solve"):
            result = ch.solve_eve(
                model,
                require_number(cfg, "eve.p_s", 0.0, 1.0),
                require_number(cfg, "eve.p_d", 0.0, 1.0),
            )
            if not result.feasible:
                raise ConfigError("eve", "; ".join(result.violations))
            p_e = require_number(cfg, "eve.p_e", 0.0, 1.0) if "p_e" in eve_cfg else 1.0
            import dataclasses

            return dataclasses.replace(result.strategy, p_e=p_e)
        return ch.EveStrategy(
            p_e=require_number(cfg, "eve.p_e", 0.0, 1.0),
            p_s=require_number(cfg, "eve.p_s", 0.0, 1.0),
            p_d=require_number(cfg, "eve.p_d", 0.0, 1.0),
            g_e=require_number(cfg, "eve.g_e", 0.0, 1.0),
            e_e=require_number(cfg, "eve.e_e", 0.0, 1.0),
            d0_e=require_number(cfg, "eve.d0_e", 0.0, 1.0),
            d1_e=require_number(cfg, "eve.d1_e", 0.0, 1.0),
        )


def _sweep_values(cfg: dict, allowed: tuple[str, ...]) -> tuple[str, list[float]] | None:
    sweep = cfg.get("sweep")
    if sweep is None:
        return None
    if not isinstance(sweep, dict):
        raise ConfigError("sweep", "expected an object or null")
    param = sweep.get("param")
    if param not in allowed:
        raise ConfigError("sweep.param", f"expected one of {allowed}, got {param!r}")
    start = require_number(cfg, "sweep.start")
    stop = require_number(cfg, "sweep.stop")
    steps = require_int(cfg, "sweep.steps", lo=2, hi=SWEEP_STEPS_MAX)
    # np.linspace(start, stop, steps), point for point in numpy's own arithmetic
    delta = stop - start
    step = delta / (steps - 1)
    if step == 0.0:  # numpy scales by i / (steps - 1) when the step underflows
        return param, [i / (steps - 1) * delta + start for i in range(steps - 1)] + [stop]
    return param, [i * step + start for i in range(steps - 1)] + [stop]


@contextlib.contextmanager
def _csv_writer(path: str, header: list[str]):
    """A CSV writer on path, opened before any point is solved.

    An unwritable path fails before the work; a command that fails after
    opening it leaves no partial file behind (only a regular file is removed).
    """
    with _as_config_error("--csv", OSError):
        fh = open(path, "w", newline="")
    import csv

    try:
        with fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            yield writer
    except BaseException as exc:
        if os.path.isfile(path):
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise ConfigError("--csv", str(exc)) from None
        raise


def _emit(report: dict) -> None:
    # every report echoes the resolved config, which holds only JSON
    # values, as "inputs" so that it is self-describing
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


def _overlap_entry(numeric: complex | None, analytic: complex) -> dict:
    return {
        "numeric": None if numeric is None else _cplx(numeric),
        "analytic": _cplx(analytic),
        "discrepancy": None if numeric is None else float(abs(numeric - analytic)),
    }


def cmd_overlaps(cfg: dict) -> int:
    alpha, phi = _signal_params(cfg)
    preps = _preps(cfg, alpha, phi)
    gram = _gram(preps)
    from . import fock
    from . import states as st

    # the numeric column is the independent Fock-space check of the exact
    # entries; it is null wherever a state keeps tail mass at N_CUT_MAX
    vecs, truncated = [], set()
    for index, prep in enumerate(preps):
        try:
            vecs.append(fock.realize(prep))
        except fock.TruncationError as exc:
            vecs.append(exc.vector)
            truncated.add(index)
    result = {
        "n_cut": max(v.n_cut for v in vecs),
        "tail_mass": [v.tail_mass for v in vecs],
        "gram": {
            key: _overlap_entry(
                None if truncated & {i, j} else fock.inner_product(vecs[i], vecs[j]), getattr(gram, key)
            )
            for key, (i, j) in st.GRAM_PAIRS.items()
        },
        "symmetric": gram.is_symmetric(),
    }
    _emit({"command": "overlaps", "inputs": cfg, "result": result})
    return EXIT_OK


def _nu(cfg: dict) -> float:
    nu = require_number(cfg, "nu", 0.0, 1.0)
    if nu in (0.0, 1.0):
        raise ConfigError("nu", f"must lie in the open interval (0, 1), got {nu}")
    return nu


def _optimize(gram: st.GramData, nu: float) -> usd.UsdSolution:
    from . import usd

    with _as_config_error("decoy"):  # the optimizer needs equal decoy overlaps
        return usd.optimize_usd(gram, nu)


def _solve_point(cfg: dict, alpha: float, phi: float) -> usd.UsdSolution:
    nu = _nu(cfg)
    return _optimize(_gram(_preps(cfg, alpha, phi)), nu)


def cmd_usd(cfg: dict, csv_path: str | None) -> int:
    alpha, phi = _signal_params(cfg)
    nu = _nu(cfg)
    sweep = _sweep_values(cfg, ("alpha", "r"))
    if sweep is not None:
        if csv_path is None:
            raise ConfigError("--csv", "sweep output needs a CSV path")
        if sweep[0] == "r" and _decoy_kind(cfg) != "squeezed":
            raise ConfigError("sweep.param", "r sweeps require a squeezed decoy")
    out = contextlib.nullcontext() if sweep is None else _csv_writer(csv_path, [sweep[0], "p_s", "p_d", "p0"])
    with out as writer:
        gram = _gram(_preps(cfg, alpha, phi))
        from . import usd

        geom = usd.build_geometry(gram)
        solution = _optimize(gram, nu)

        sweep_info = None
        if sweep is not None:
            param, values = sweep
            for value in values:
                point_cfg = json.loads(json.dumps(cfg))
                if param == "alpha":
                    point_cfg["alpha"] = value
                    sol = _solve_point(point_cfg, value, phi)
                else:
                    point_cfg["decoy"]["r"] = value
                    sol = _solve_point(point_cfg, alpha, phi)
                writer.writerow([value, sol.p_s, sol.p_d, sol.p0])
            sweep_info = {"param": param, "points": len(values), "csv": csv_path}

    import dataclasses

    result = {
        "gram": {"s12": _cplx(gram.s12), "s13": _cplx(gram.s13), "s23": _cplx(gram.s23)},
        "geometry": {"l": geom.l, "m": geom.m, "degenerate": geom.degenerate},
        "solution": dataclasses.asdict(solution),
        "sweep": sweep_info,
    }
    _emit({"command": "usd", "inputs": cfg, "result": result})
    return EXIT_INFEASIBLE if solution.degenerate else EXIT_OK


def cmd_eve(cfg: dict) -> int:
    alpha, phi = _signal_params(cfg)
    eve_cfg = cfg.get("eve")
    if eve_cfg is not None and not isinstance(eve_cfg, dict):
        raise ConfigError("eve", "expected an object or null")
    if eve_cfg and ("p_s" in eve_cfg or "p_d" in eve_cfg):  # a lone one is reported missing
        p_s = require_number(cfg, "eve.p_s", 0.0, 1.0)
        p_d = require_number(cfg, "eve.p_d", 0.0, 1.0)
        source = "config"
    else:
        solution = _solve_point(cfg, alpha, phi)
        p_s, p_d = solution.p_s, solution.p_d
        source = "usd"
    model = _channel(cfg)
    import dataclasses

    from . import channel as ch

    with _as_config_error("channel"):
        solve = ch.solve_eve(model, p_s, p_d)

    honest = ch.ab_table(model)
    attacked = None
    masking = None
    if solve.feasible:
        attacked = ch.aeb_table(model, solve.strategy)
        pairs = zip(attacked.rows, honest.rows)
        masking = max(abs(a - h) for row_a, row_h in pairs for a, h in zip(row_a, row_h))
    result = {
        "p_s": p_s,
        "p_d": p_d,
        "source": source,
        "solve": {
            "feasible": solve.feasible,
            "attack_impossible": solve.attack_impossible,
            "g_e": solve.g_e,
            "e_e": solve.e_e,
            "d_e": solve.d_e,
            "violations": list(solve.violations),
        },
        "strategy": None if solve.strategy is None else dataclasses.asdict(solve.strategy),
        "honest_table": honest.as_dict(),
        "attacked_table": None if attacked is None else attacked.as_dict(),
        "masking_max_abs_diff": masking,
        "detection_rate_check": {
            "d": model.d,
            "p_d": p_d,
            "attack_excluded": bool(p_d < model.d),
        },
    }
    _emit({"command": "eve", "inputs": cfg, "result": result})
    return EXIT_OK if solve.feasible else EXIT_INFEASIBLE


def cmd_simulate(cfg: dict) -> int:
    n_pulses = require_int(cfg, "simulation.n_pulses", lo=1)
    nu = _nu(cfg)
    seed = require_int(cfg, "simulation.seed", lo=0)
    z = require_number(cfg, "simulation.z", lo=0.0)
    model = _channel(cfg)
    eve = _eve_strategy(cfg, model)
    import dataclasses

    from . import montecarlo as mc

    with _as_config_error("simulation"):
        sim_cfg = mc.SimConfig(n_pulses=n_pulses, nu=nu, channel=model, eve=eve, seed=seed)
        verdict, stats = mc.run_experiment(sim_cfg, z)
    result = {
        "stats": stats.to_dict(),
        "verdict": {**dataclasses.asdict(verdict), "confidence": verdict.confidence},
    }
    _emit({"command": "simulate", "inputs": cfg, "result": result})
    return EXIT_OK


def cmd_maxloss(cfg: dict, csv_path: str | None) -> int:
    mu = require_number(cfg, "loss.mu")
    eta_b = require_number(cfg, "loss.eta_b", 0.0, 1.0)
    eta_d = require_number(cfg, "loss.eta_d", 0.0, 1.0)
    p_d = require_number(cfg, "loss.p_d", 0.0, 1.0)

    sweep = _sweep_values(cfg, ("mu",))
    if sweep is not None and csv_path is None:
        raise ConfigError("--csv", "sweep output needs a CSV path")
    from . import channel as ch

    out = contextlib.nullcontext() if sweep is None else _csv_writer(csv_path, ["mu", "max_loss_db", "feasible"])
    with out as writer:
        sweep_info = None
        if sweep is not None:
            _, values = sweep
            for value in values:
                with _as_config_error("sweep"):
                    loss = ch.max_loss(value, eta_b, eta_d, p_d)
                writer.writerow([value, "" if loss is None else loss, loss is not None])
            sweep_info = {"param": "mu", "points": len(values), "csv": csv_path}

        with _as_config_error("loss"):
            loss = ch.max_loss(mu, eta_b, eta_d, p_d)
    result = {
        "mu": mu,
        "eta_b": eta_b,
        "eta_d": eta_d,
        "p_d": p_d,
        "max_loss_db": loss,
        "feasible": loss is not None,
        "sweep": sweep_info,
    }
    _emit({"command": "maxloss", "inputs": cfg, "result": result})
    return EXIT_OK if loss is not None else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usdguard",
        description="Discrimination-attack analysis and decoy design for two-state phase-coded QKD",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("overlaps", "print analytic and Fock-numeric state overlaps"),
        ("usd", "solve the discrimination optimum for the configured decoy"),
        ("eve", "solve the statistics-preserving interception constraints"),
        ("simulate", "draw a seeded session's exact outcome counts and apply the threshold test"),
        ("maxloss", "evaluate the maximum tolerable channel loss"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--seed", type=int, help="override simulation.seed")
        cmd.add_argument("--csv", help="CSV output path for sweeps")
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config field (dotted path, repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, args.seed)
        if args.command == "overlaps":
            return cmd_overlaps(cfg)
        if args.command == "usd":
            return cmd_usd(cfg, args.csv)
        if args.command == "eve":
            return cmd_eve(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_maxloss(cfg, args.csv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

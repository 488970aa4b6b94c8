"""Command-line front end.

    tsvsim run <scenario-id | file.scn> [--seed N] [--trials N]
               [--g-sweep MIN:MAX:STEPS[:log]] [--format table|csv|jsonl]
               [--out PATH] [--option ...] [--g G]
    tsvsim list
    tsvsim check

Exit codes: 0 success, 2 usage error, 3 scenario/DSL diagnostics, 4 I/O
failure. Output bytes are deterministic for a fixed (scenario, seed, trials,
format); the seed only moves Monte Carlo statistics, never exact fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import acceptance, dsl, pointer as pt, scenarios as sc
from .errors import TsvsimError
from .scenarios import ScenarioResult

DEFAULT_SEED = 42
DEFAULT_TRIALS = 10_000


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    g_sweep: tuple[float, float, int, bool] | None = None  # (min, max, steps, log)
    output: str = "table"
    out_path: str | None = None
    option: str = "recombine_all"
    g: float = 0.05

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.g_sweep is not None and self.g_sweep[0] <= 0:
            raise ValueError("g sweep minimum must be > 0")


def _fmt(x: float) -> str:
    return f"{x + 0.0:.9f}"  # +0.0 folds IEEE negative zero into "0.000000000"


def _sweep_rows(config: RunConfig) -> list[tuple[float, float]]:
    context = sc.sweep_context(config.scenario)
    if context is None:
        raise ValueError(
            f"scenario {config.scenario!r} has no pointer context to sweep")
    pre, obs, post_proj = context
    g_min, g_max, steps, log = config.g_sweep
    if log:
        gs = np.geomspace(g_min, g_max, steps)
    else:
        gs = np.linspace(g_min, g_max, steps)
    ptr = pt.PointerWavefunction.gaussian()
    rows = []
    for g in gs:
        joint = pt.couple(pre, obs, ptr, float(g))
        rows.append((float(g), pt.pointer_mean(joint, post_proj) / float(g)))
    return rows


def emit(result: ScenarioResult, fmt: str, seed: int, trials: int,
         sweep: list[tuple[float, float]] | None = None, color: bool = False) -> bytes:
    """Render a result deterministically. Floats carry nine digits after the
    point; empty sections are omitted in every format."""
    if fmt == "jsonl":
        return _emit_jsonl(result, seed, sweep)
    if fmt == "csv":
        return _emit_csv(result, seed, trials, sweep)
    return _emit_table(result, seed, trials, sweep, color)


_SECTIONS = ("probabilities", "weak_values", "schmidt_ranks", "trial_stats")


def _emit_table(result: ScenarioResult, seed: int, trials: int,
                sweep, color: bool) -> bytes:
    bold = ("\x1b[1m", "\x1b[0m") if color else ("", "")
    lines = [f"# scenario={result.scenario_id} seed={seed} trials={trials}"]
    for section in _SECTIONS:
        data = getattr(result, section)
        if not data:
            continue
        lines.append(f"{bold[0]}{section}{bold[1]}")
        width = max(len(str(k)) for k in data) + 2
        for key, value in data.items():
            if section == "weak_values":
                rendered = f"{_fmt(value.real)}  {_fmt(value.imag)}i"
            elif section == "schmidt_ranks":
                rendered = str(value)
            else:
                rendered = _fmt(value)
            lines.append(f"  {key:<{width}}{rendered}")
    if sweep:
        lines.append(f"{bold[0]}g_sweep{bold[1]}")
        for g, value in sweep:
            lines.append(f"  {_fmt(g)}  {_fmt(value)}")
    return ("\n".join(lines) + "\n").encode()


def _emit_csv(result: ScenarioResult, seed: int, trials: int, sweep) -> bytes:
    lines = [f"# scenario={result.scenario_id} seed={seed} trials={trials}"]
    headers = {
        "probabilities": "name,value",
        "weak_values": "name,re,im",
        "schmidt_ranks": "epoch,rank",
        "trial_stats": "name,value",
    }
    for section in _SECTIONS:
        data = getattr(result, section)
        if not data:
            continue
        lines.append(f"# {section}")
        lines.append(headers[section])
        for key, value in data.items():
            if section == "weak_values":
                lines.append(f"{key},{_fmt(value.real)},{_fmt(value.imag)}")
            elif section == "schmidt_ranks":
                lines.append(f"{key},{value}")
            else:
                lines.append(f"{key},{_fmt(value)}")
    if sweep:
        lines.append("# g_sweep")
        lines.append("g,shift_over_g")
        for g, value in sweep:
            lines.append(f"{_fmt(g)},{_fmt(value)}")
    return ("\n".join(lines) + "\n").encode()


def _emit_jsonl(result: ScenarioResult, seed: int, sweep) -> bytes:
    records = [{"scenario": result.scenario_id, "name": "seed", "kind": "meta",
                "re": float(seed), "im": 0.0}]
    kinds = {
        "probabilities": "probability",
        "weak_values": "weak_value",
        "schmidt_ranks": "schmidt_rank",
        "trial_stats": "trial_stat",
    }
    for section in _SECTIONS:
        for key, value in getattr(result, section).items():
            if section == "weak_values":
                re_part, im_part = float(value.real), float(value.imag)
            else:
                re_part, im_part = float(value), 0.0
            records.append({"scenario": result.scenario_id, "name": key,
                            "kind": kinds[section], "re": re_part, "im": im_part})
    if sweep:
        for g, value in sweep:
            records.append({"scenario": result.scenario_id, "name": f"g={_fmt(g)}",
                            "kind": "g_sweep", "re": float(value), "im": 0.0})
    return ("\n".join(json.dumps(r) for r in records) + "\n").encode()


# ---------------------------------------------------------------------------


def _parse_sweep(text: str) -> tuple[float, float, int, bool]:
    parts = text.split(":")
    log = False
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError("sweep suffix must be 'log'")
        log = True
        parts = parts[:3]
    if len(parts) != 3:
        raise ValueError("expected MIN:MAX:STEPS[:log]")
    g_min, g_max, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ValueError("sweep needs at least one step")
    return g_min, g_max, steps, log


def _run_scenario(config: RunConfig) -> ScenarioResult:
    if config.scenario in sc.SCENARIOS:
        if config.scenario == "four_mirror":
            return sc.run_four_mirror(trials=config.trials, rng_seed=config.seed)
        if config.scenario == "three_path_photon":
            return sc.run_three_path_photon(option=config.option, g=config.g)
        return sc.SCENARIOS[config.scenario].runner()
    spec = dsl.load_file(config.scenario)
    for diag in spec.warnings:
        print(f"warning: {config.scenario}:{diag}", file=sys.stderr)
    return dsl.evaluate(spec, scenario_id=Path(config.scenario).stem)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        sweep_spec = _parse_sweep(args.g_sweep) if args.g_sweep else None
        config = RunConfig(scenario=args.scenario, seed=args.seed, trials=args.trials,
                           g_sweep=sweep_spec, output=args.format,
                           out_path=args.out, option=args.option, g=args.g)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if config.scenario not in sc.SCENARIOS and not Path(config.scenario).exists():
        print(f"error: unknown scenario or missing file {config.scenario!r} "
              "(see `tsvsim list`)", file=sys.stderr)
        return 2
    try:
        result = _run_scenario(config)
        sweep = _sweep_rows(config) if config.g_sweep else None
    except dsl.ScenarioFileError as e:
        for diag in e.diagnostics:
            print(f"{config.scenario}:{diag}", file=sys.stderr)
        return 3
    except TsvsimError as e:
        diag = getattr(e, "diagnostic", None)
        where = f"{config.scenario}:{diag}" if diag else str(e)
        print(f"error: {where}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    color = (config.out_path is None and config.output == "table"
             and sys.stdout.isatty() and not os.environ.get("NO_COLOR"))
    payload = emit(result, config.output, config.seed, config.trials,
                   sweep=sweep, color=color)
    try:
        if config.out_path:
            Path(config.out_path).write_bytes(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 4
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    width = max(len(s) for s in sc.SCENARIOS) + 2
    for scenario_id, info in sc.SCENARIOS.items():
        print(f"{scenario_id:<{width}}{info.description}")
    return 0


def _cmd_check(_: argparse.Namespace) -> int:
    failures = acceptance.run_all(print)
    total = len(acceptance.CRITERIA)
    print(f"{total - failures}/{total} criteria passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvsim",
        description="Simulate pre/post-selected quantum experiments: weak values, "
                    "interaction-free measurement, and the weak-to-strong continuum.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a built-in scenario or a .scn file")
    run.add_argument("scenario", help="scenario id (see `list`) or path to a .scn file")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="RNG seed for Monte Carlo parts (default 42)")
    run.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                     help="Monte Carlo trial count (default 10000)")
    run.add_argument("--g-sweep", metavar="MIN:MAX:STEPS[:log]",
                     help="sweep the coupling strength and report shift/g")
    run.add_argument("--format", choices=("table", "csv", "jsonl"), default="table")
    run.add_argument("--out", help="write output to this path instead of stdout")
    run.add_argument("--option", choices=("recombine_all", "recombine_two"),
                     default="recombine_all",
                     help="three_path_photon recombination choice")
    run.add_argument("--g", type=float, default=0.05,
                     help="pointer coupling strength for three_path_photon")
    run.set_defaults(func=_cmd_run)

    lst = sub.add_parser("list", help="list built-in scenarios")
    lst.set_defaults(func=_cmd_list)

    chk = sub.add_parser("check", help="run the acceptance suite")
    chk.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

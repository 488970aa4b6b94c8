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
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import acceptance, dsl, hilbert as hb, scenarios as sc
from .errors import TsvsimError
from .scenarios import ScenarioResult

DEFAULT_SEED = 42
DEFAULT_TRIALS = 10_000


def _fmt(x: float) -> str:
    return f"{x + 0.0:.9f}"  # +0.0 folds IEEE negative zero into "0.000000000"


def _sweep_rows(context: tuple[hb.Ket, hb.OperatorForm, hb.Operator],
                sweep: tuple[float, float, int, bool]) -> list[tuple[float, float]]:
    """(g, shift/g) rows of the sweep (min, max, steps, log) on a sweep_context."""
    g_min, g_max, steps, log = sweep
    if log:
        gs = np.geomspace(g_min, g_max, steps)
    else:
        gs = np.linspace(g_min, g_max, steps)
    return [(float(g), sc.weak_readout(context, g)) for g in gs]


# Each output section with its csv header and jsonl kind, in output order.
_SECTIONS = {
    "probabilities": ("name,value", "probability"),
    "weak_values": ("name,re,im", "weak_value"),
    "schmidt_ranks": ("epoch,rank", "schmidt_rank"),
    "trial_stats": ("name,value", "trial_stat"),
    "g_sweep": ("g,shift_over_g", "g_sweep"),
}


def _cells(section: str, value) -> list[str]:
    """Table and csv text of one value: a weak value's real and imaginary
    parts, a Schmidt rank as an int, anything else with nine decimals."""
    if section == "weak_values":
        return [_fmt(value.real), _fmt(value.imag)]
    return [str(value) if section == "schmidt_ranks" else _fmt(value)]


def emit(result: ScenarioResult, fmt: str, seed: int, trials: int,
         sweep: list[tuple[float, float]] | None = None, color: bool = False) -> bytes:
    """Render a result deterministically. Floats carry nine digits after the
    point; empty sections are omitted in every format."""
    sid = result.scenario_id
    bold, plain = ("\x1b[1m", "\x1b[0m") if color else ("", "")
    if fmt == "jsonl":
        lines = [json.dumps({"scenario": sid, "name": "seed", "kind": "meta",
                             "re": float(seed), "im": 0.0})]
    else:
        lines = [f"# scenario={sid} seed={seed} trials={trials}"]
    for section, (header, kind) in _SECTIONS.items():
        if section == "g_sweep":
            rows = [(_fmt(g), value) for g, value in sweep or ()]
        else:
            rows = list(getattr(result, section).items())
        if not rows:
            continue
        if fmt == "table":
            lines.append(f"{bold}{section}{plain}")
            # names are padded to one column; sweep rows are not
            width = 0 if section == "g_sweep" else max(len(key) for key, _ in rows)
        elif fmt == "csv":
            lines += [f"# {section}", header]
        for key, value in rows:
            if fmt == "jsonl":
                z = complex(value)
                name = f"g={key}" if section == "g_sweep" else key
                lines.append(json.dumps({"scenario": sid, "name": name, "kind": kind,
                                         "re": z.real, "im": z.imag}))
            elif fmt == "csv":
                lines.append(",".join([key, *_cells(section, value)]))
            else:
                imag = "i" if section == "weak_values" else ""
                lines.append(f"  {key:<{width}}  {'  '.join(_cells(section, value))}{imag}")
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------


def _parse_sweep(text: str) -> tuple[float, float, int, bool]:
    """(min, max, steps, log) of MIN:MAX:STEPS[:log]: both bounds finite and
    > 0, STEPS an integer >= 1; a ValueError names the first bad field."""
    parts = text.split(":")
    log = False
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError("sweep suffix must be 'log'")
        log = True
        parts = parts[:3]
    if len(parts) != 3:
        raise ValueError("expected MIN:MAX:STEPS[:log]")
    bounds = []
    for field, part in zip(("MIN", "MAX"), parts):
        try:
            bound = float(part)
        except ValueError:
            bound = math.nan  # rejected below like any other bad bound
        if not 0 < bound < math.inf:
            raise ValueError(f"g sweep {field} must be a finite number > 0, got {part!r}")
        bounds.append(bound)
    try:
        steps = int(parts[2])
    except ValueError:
        steps = 0
    if steps < 1:
        raise ValueError(f"g sweep STEPS must be an integer >= 1, got {parts[2]!r}")
    return bounds[0], bounds[1], steps, log


def _run_scenario(args: argparse.Namespace) -> ScenarioResult:
    if args.scenario in sc.SCENARIOS:
        if args.scenario == "four_mirror":
            return sc.run_four_mirror(trials=args.trials, rng_seed=args.seed)
        if args.scenario == "three_path_photon":
            return sc.run_three_path_photon(option=args.option, g=args.g)
        return sc.SCENARIOS[args.scenario].runner()
    spec = dsl.load_file(args.scenario)
    for diag in spec.warnings:
        print(f"warning: {args.scenario}:{diag}", file=sys.stderr)
    return dsl.evaluate(spec, scenario_id=Path(args.scenario).stem)


def _cmd_run(args: argparse.Namespace) -> int:
    """Every refusal is raised inside one try, and its handler picks the exit
    code: the usage checks come first, so nothing runs before they pass."""
    try:
        sweep_spec = _parse_sweep(args.g_sweep) if args.g_sweep else None
        if args.trials < 1:
            raise ValueError("trials must be >= 1")
        if args.seed < 0:
            raise ValueError("seed must be >= 0")
        if args.out == "":
            raise ValueError("--out needs a path")
        if args.scenario not in sc.SCENARIOS and not Path(args.scenario).exists():
            raise ValueError(f"unknown scenario or missing file {args.scenario!r} "
                             "(see `tsvsim list`)")
        context = sc.sweep_context(args.scenario) if sweep_spec else None
        if sweep_spec and context is None:
            raise ValueError(f"scenario {args.scenario!r} has no pointer context to sweep")
        result = _run_scenario(args)
        sweep = _sweep_rows(context, sweep_spec) if context else None
    except OSError as e:  # only the path check and dsl.load_file touch the file system
        print(f"error: cannot read {args.scenario}: {e.strerror}", file=sys.stderr)
        return 4
    except dsl.ScenarioFileError as e:
        for diag in e.diagnostics:
            print(f"{args.scenario}:{diag}", file=sys.stderr)
        return 3
    except TsvsimError as e:  # a built-in run's refusal; a .scn file's is positioned above
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as e:  # a bad request, or one too large to allocate
        print(f"error: {e}", file=sys.stderr)
        return 2

    color = (args.out is None and args.format == "table"
             and sys.stdout.isatty() and not os.environ.get("NO_COLOR"))
    payload = emit(result, args.format, args.seed, args.trials, sweep=sweep, color=color)
    try:
        if args.out is not None:
            Path(args.out).write_bytes(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 4
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    width = max(len(s) for s in sc.SCENARIOS) + 2
    for scenario_id, info in sc.SCENARIOS.items():
        print(f"{scenario_id:<{width}}{info.description}")
    return 0


def _cmd_check(_: argparse.Namespace) -> int:
    failures = acceptance.run_all()
    total = len(acceptance.CRITERIA)
    print(f"{total - failures}/{total} criteria passed")
    return 0 if failures == 0 else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The tsvsim argument parser, built once per process: parse_args reads it
    and changes nothing, so main(argv) may be called repeatedly."""
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

"""Evaluator turning a parsed ScenarioSpec into a ScenarioResult.

The pipeline is: build the labeled product space, prepare the initial ket,
and apply the gates epoch by epoch (recording the state after each epoch).
The evolved state and the optional post-selection then form one two-state
vector, which gives both the post-selection's Born probability and every
named observable's weak value. Without a POSTSELECT section the post ket
defaults to the evolved state itself, which reduces the weak value to an
ordinary expectation value.

Any error raised by the underlying state machinery (orthogonal selection,
zero-probability branch, ...) is re-raised with the source position of the
responsible line attached as a `diagnostic` attribute.
"""

from __future__ import annotations

from functools import reduce
from importlib import resources
from pathlib import Path

import numpy as np

from .. import hilbert as hb
from .. import tsvf
from ..errors import TsvsimError
from ..hilbert import Diagonal, Ket, Operator
from ..scenarios import ScenarioResult
from .parse import (AmplitudeEntry, Diagnostic, GateDecl, ScenarioSpec, ScenarioSyntaxError,
                    ScenarioValidationError, parse, selection_record)

# A custom_unitary passes the parser at 1e-8 and can move the norm that far, past
# later norm checks; rounding alone moves it under 1e-14, which is left as it is.
UNITARY_DRIFT = 1e-13


def load_file(path: str | Path) -> ScenarioSpec:
    """Read and parse a .scn file (UTF-8, after a byte-order mark if any)."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ScenarioSyntaxError(
            [Diagnostic(1, 1, f"file is not valid UTF-8: {e.reason} at byte {e.start}")]
        ) from None
    # not decode("utf-8-sig"), whose error offsets would not count the mark
    return parse(text.removeprefix("\ufeff"))


def builtin_scenario_path(scenario_id: str) -> Path:
    """Path of the shipped .scn fixture for a built-in scenario."""
    ref = resources.files("tsvsim") / "data" / f"{scenario_id}.scn"
    with resources.as_file(ref) as p:
        return Path(p)


def _with_position(exc: TsvsimError, line: int) -> TsvsimError:
    exc.diagnostic = Diagnostic(line, 1, str(exc))
    return exc


def _ket(sp: hb.Space, entries: tuple[AmplitudeEntry, ...], line: int) -> Ket:
    """from_amplitudes, with numpy's refusal of the state array (too many
    amplitudes to index, or no memory for them) reported at `line`."""
    try:
        return hb.from_amplitudes(sp, {e.labels: e.amplitude for e in entries})
    except TsvsimError:
        raise  # a label count that does not match the space, not the allocation
    except (ValueError, MemoryError):
        raise ScenarioValidationError([Diagnostic(
            line, 1, f"state space of {sp.dim} amplitudes is too large to allocate")]) from None


def _apply_gate(sp: hb.Space, g: GateDecl, state: Ket) -> Ket:
    """State after one unitary gate: swap_map as an index permutation,
    beamsplitter and custom_unitary as small matrices on their targets."""
    if g.kind == "swap_map":
        src, dst = g.params
        return hb.apply(hb.label_swap(sp, g.targets, src, dst), state)
    if g.kind == "beamsplitter":
        i1, i2, o1, o2 = g.params
        coupler = hb.mode_coupler(sp.factor(g.targets[0]), (i1, i2), (o1, o2))
        return hb.apply_to_factors(state, coupler, g.targets)
    state = hb.apply_to_factors(state, np.array(g.params, dtype=complex), g.targets)
    return state.unit() if abs(state.norm() - 1.0) > UNITARY_DRIFT else state


def evaluate(spec: ScenarioSpec, scenario_id: str = "scn") -> ScenarioResult:
    """Run the declared experiment and collect its exact outputs.

    states_by_epoch holds "t0" plus one entry per gate epoch (the state after
    that epoch's last gate, projections included). Probabilities come from
    projector_select gates and the final post-selection, under their declared
    names; the post-selection's, |<post|evolved>|^2, and the weak values,
    <post|A|evolved> / <post|evolved>, come from one two-state vector.
    """
    sp = hb.space(*((f.name, f.labels) for f in spec.factors))
    factors_line = spec.factors[0].line  # where an oversized state space is reported
    state = _ket(sp, spec.initial, factors_line).unit()
    states: dict[str, Ket] = {"t0": state}
    probabilities: dict[str, float] = {}

    for g in spec.gates:
        try:
            if g.kind == "projector_select":
                labels, name = g.params
                proj = Operator.projector(sp, {g.targets[0]: list(labels)})
                p, state = tsvf.post_select(state, proj)
                probabilities[selection_record(g.epoch, g.targets[0], labels, name)] = p
            else:
                state = _apply_gate(sp, g, state)
        except TsvsimError as e:
            raise _with_position(e, g.line)
        states[g.epoch] = state  # epochs are never revisited: keys keep their order

    post, weak_values = spec.postselect, {}
    if post is not None or spec.observables:
        post_ket = state if post is None else _ket(sp, post.entries, factors_line).unit()
        try:
            tsv = tsvf.TwoStateVector(state, post_ket)
            if post is not None:
                probabilities[post.name] = tsv.selection_probability()
            for obs in spec.observables:
                # a left fold from the first term: sum() would start at 0,
                # and 0 + -0.0 is +0.0; a sum past the float range is refused
                with np.errstate(over="ignore"):
                    diag = reduce(np.add, (
                        Operator.projector(sp, dict(constraints or ())).diagonal * coeff
                        for coeff, constraints in obs.terms))
                if not np.isfinite(diag).all():
                    raise ScenarioValidationError([Diagnostic(
                        obs.line, 1, f"observable {obs.name!r} sums past the float range")])
                weak_values[obs.name] = tsvf.weak_value(tsv, Diagonal(sp, diag))
        except TsvsimError as e:
            raise _with_position(e, 1 if post is None else post.line)

    return ScenarioResult(
        scenario_id=scenario_id,
        states_by_epoch=states,
        probabilities=probabilities,
        weak_values=weak_values,
    )


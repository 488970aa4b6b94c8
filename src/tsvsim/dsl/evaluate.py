"""Evaluator turning a parsed ScenarioSpec into a ScenarioResult.

The pipeline is: build the labeled product space, prepare the initial ket,
apply the gates epoch by epoch (recording the state after each epoch),
apply the optional post-selection (recording its Born probability), and
evaluate every named observable as a weak value between the evolved state
and the post-selection. Without a POSTSELECT section the post ket defaults
to the evolved state itself, which reduces the weak value to an ordinary
expectation value.

Any error raised by the underlying state machinery (orthogonal selection,
zero-probability branch, ...) is re-raised with the source position of the
responsible line attached as a `diagnostic` attribute.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from .. import hilbert as hb
from .. import tsvf
from ..errors import TsvsimError
from ..hilbert import Ket, Operator
from ..scenarios import ScenarioResult
from .parse import (Diagnostic, GateDecl, ScenarioSpec, ScenarioSyntaxError, parse,
                    selection_record)


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


def _with_position(exc: TsvsimError, line: int, column: int = 1) -> TsvsimError:
    exc.diagnostic = Diagnostic(line, column, str(exc))
    return exc


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
    return hb.apply_to_factors(state, np.array(g.params, dtype=complex), g.targets)


def evaluate(spec: ScenarioSpec, scenario_id: str = "scn") -> ScenarioResult:
    """Run the declared experiment and collect its exact outputs.

    states_by_epoch holds "t0" plus one entry per gate epoch (the state after
    that epoch's last gate, projections included). Probabilities come from
    projector_select gates and the final post-selection, under their declared
    names. Weak values are evaluated with the two-state rule
    <post|A|evolved> / <post|evolved>.
    """
    sp = hb.space(*((f.name, f.labels) for f in spec.factors))
    state = hb.from_amplitudes(sp, {e.labels: e.amplitude for e in spec.initial}).unit()
    states: dict[str, Ket] = {"t0": state}
    probabilities: dict[str, float] = {}

    current_epoch: str | None = None
    for g in spec.gates:
        if current_epoch is not None and g.epoch != current_epoch:
            states[current_epoch] = state
        current_epoch = g.epoch
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
    if current_epoch is not None:
        states[current_epoch] = state

    post_ket = state
    if spec.postselect is not None:
        post_ket = hb.from_amplitudes(
            sp, {e.labels: e.amplitude for e in spec.postselect.entries}).unit()
        probabilities[spec.postselect.name] = abs(hb.inner(post_ket, state)) ** 2

    weak_values: dict[str, complex] = {}
    if spec.observables:
        try:
            tsv = tsvf.TwoStateVector(state, post_ket)
            for obs in spec.observables:
                terms = [coeff * Operator.projector(sp, dict(constraints or ()))
                         for coeff, constraints in obs.terms]
                op = sum(terms[1:], terms[0])
                weak_values[obs.name] = tsvf.weak_value(tsv, op)
        except TsvsimError as e:
            line = spec.postselect.line if spec.postselect is not None else 1
            raise _with_position(e, line)

    return ScenarioResult(
        scenario_id=scenario_id,
        states_by_epoch=states,
        probabilities=probabilities,
        weak_values=weak_values,
    )


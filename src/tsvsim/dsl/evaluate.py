"""Evaluator turning a parsed ScenarioSpec into a ScenarioResult.

The pipeline is: build the labeled product space, prepare the initial ket,
and apply the gates epoch by epoch (recording the state after each epoch).
The evolved state and the optional post-selection then form one two-state
vector, which gives both the post-selection's Born probability and every
named observable's weak value. Without a POSTSELECT section the post ket
defaults to the evolved state itself, which reduces the weak value to an
ordinary expectation value.

Every refusal of a run is decided in one try and positioned as a parse error
is: a library refusal (orthogonal selection, zero-probability branch, ...) is
a ScenarioValidationError at the line being run, with the library error as
its __cause__, as is an unknown label or factor (a KeyError) in a spec built
in code, and a state space too large to allocate, found up front or as a
MemoryError anywhere in the run, is one at the first FACTORS line.
"""

from __future__ import annotations

import cmath
from functools import reduce
from importlib import resources
from math import prod
from pathlib import Path

import numpy as np

from .. import hilbert as hb
from .. import tsvf
from ..errors import TsvsimError
from ..hilbert import Diagonal, Ket, Operator
from ..scenarios import ScenarioResult
from .parse import (Diagnostic, GateDecl, ScenarioSpec, ScenarioSyntaxError,
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
    line = spec.factors[0].line if spec.factors else 1  # the step being run
    states: dict[str, Ket] = {}
    probabilities: dict[str, float] = {}
    post, weak_values = spec.postselect, {}
    try:
        sp = hb.space(*((f.name, f.labels) for f in spec.factors))
        if sp.dim > np.iinfo(np.intp).max // 16:  # numpy's byte count would overflow
            raise MemoryError
        state = hb.from_amplitudes(sp, spec.initial).unit()
        states["t0"] = state
        for g in spec.gates:
            line = g.line
            if g.kind == "projector_select":
                labels, name = g.params
                proj = Operator.projector(sp, {g.targets[0]: list(labels)})
                p, state = tsvf.post_select(state, proj)
                probabilities[selection_record(g.epoch, g.targets[0], labels, name)] = p
            else:
                state = _apply_gate(sp, g, state)
            states[g.epoch] = state  # epochs are never revisited: keys keep their order

        if post is not None or spec.observables:
            line = 1 if post is None else post.line
            post_ket = state if post is None else hb.from_amplitudes(sp, post.entries).unit()
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
                wv = tsvf.weak_value(tsv, Diagonal(sp, diag))
                if not cmath.isfinite(wv):  # a small overlap can divide past the range
                    raise ScenarioValidationError([Diagnostic(
                        obs.line, 1, f"observable {obs.name!r} has a weak value that is "
                        "not finite")])
                weak_values[obs.name] = wv
    except TsvsimError as e:
        raise ScenarioValidationError([Diagnostic(line, 1, str(e))]) from e
    except KeyError as e:  # an unknown label or factor in a spec built in code
        raise ScenarioValidationError([Diagnostic(line, 1, e.args[0])]) from e
    except MemoryError:
        dim = prod(len(f.labels) for f in spec.factors)  # sp is unset if building it failed
        raise ScenarioValidationError([Diagnostic(spec.factors[0].line, 1, (
            f"state space of {dim} amplitudes is too large to allocate"))]) from None

    return ScenarioResult(
        scenario_id=scenario_id,
        states_by_epoch=states,
        probabilities=probabilities,
        weak_values=weak_values,
    )


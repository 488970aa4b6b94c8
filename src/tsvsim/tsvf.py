"""Two-state-vector bookkeeping: post-selection, conditional probabilities,
and weak values.

A TwoStateVector pairs a forward-evolving pre-selected ket with a
backward-evolving post-selected one (stored as a ket, conjugated on use).
The weak value of an operator A in that context is

    wv(A) = <post| A |pre> / <post|pre>

which is complex in general and unbounded by A's spectrum. All functions here
are pure; inputs are immutable.
"""

from __future__ import annotations

import numpy as np

from . import hilbert
from .errors import (DimensionMismatch, IncompleteSet, OrthogonalSelection,
                     ZeroProbabilityBranch)
from .hilbert import Diagonal, Ket, OperatorForm

EPS_OVERLAP = 1e-10    # near-orthogonal selections amplify rounding noise quadratically
EPS_BRANCH = 1e-14
ATOL_RESOLUTION = 1e-10  # how far a projector family's diagonals may miss the identity


class TwoStateVector:
    """Pre- and post-selected pair defining a weak-value context.

    Both kets must be normalized and live on the same space. The overlap is
    checked at weak-value query time, not at construction, so orthogonal pairs
    can still be built and inspected.
    """

    __slots__ = ("pre", "post")

    def __init__(self, pre: Ket, post: Ket):
        if pre.space != post.space:
            raise DimensionMismatch("pre and post selections on different spaces")
        for name, k in (("pre", pre), ("post", post)):
            if abs(k.norm() - 1.0) > 1e-10:
                raise ValueError(f"{name}-selected ket is not normalized (norm {k.norm()!r})")
        self.pre = pre
        self.post = post

    def overlap(self) -> complex:
        return hilbert.inner(self.post, self.pre)

    def selection_probability(self) -> float:
        """Born probability of the post-selection given the pre-selected state."""
        return abs(self.overlap()) ** 2


def weak_value(tsv: TwoStateVector, a: OperatorForm) -> complex:
    """<post|A|pre> / <post|pre>.

    Raises OrthogonalSelection when |<post|pre>| <= EPS_OVERLAP: the weak value
    is undefined there and must not be interpreted.
    """
    if a.space != tsv.pre.space:
        raise DimensionMismatch("operator space differs from selection space")
    denom = tsv.overlap()
    if abs(denom) <= EPS_OVERLAP:
        raise OrthogonalSelection(
            f"|<post|pre>| = {abs(denom):.3e} <= {EPS_OVERLAP:.1e}; weak value undefined"
        )
    return complex(np.vdot(tsv.post.amplitudes, a.act(tsv.pre.amplitudes))) / denom


def _project(state: Ket, projector: OperatorForm) -> tuple[np.ndarray, float]:
    """(P|psi>, ||P psi||^2), with P checked to be a projector on psi's space."""
    if projector.space != state.space:
        raise DimensionMismatch("projector space differs from state space")
    if not projector.is_projector():
        raise ValueError("outcome operator is not a projector (P^2 = P = P+ to 1e-12)")
    v = projector.act(state.amplitudes)
    return v, float(np.vdot(v, v).real)


def born_probability(state: Ket, outcome_projector: OperatorForm) -> float:
    """||P|psi>||^2 without collapsing. P is validated as a projector."""
    return _project(state, outcome_projector)[1]


def post_select(state: Ket, outcome_projector: OperatorForm) -> tuple[float, Ket]:
    """Born rule plus renormalization: (||P psi||^2, P psi / ||P psi||).

    Raises ZeroProbabilityBranch when the probability falls below 1e-14; the
    collapsed state is undefined there.
    """
    v, p = _project(state, outcome_projector)
    if p < EPS_BRANCH:
        raise ZeroProbabilityBranch(f"branch probability {p:.3e} < {EPS_BRANCH:.1e}")
    return p, Ket(state.space, v / np.sqrt(p))


def projector_weak_value_sum(tsv: TwoStateVector, projectors: list[Diagonal]) -> complex:
    """Sum of weak values over a complete family of label projectors.

    The family's diagonals must add up to one on every basis state, i.e.
    resolve the identity (IncompleteSet otherwise); by linearity the sum then
    equals 1.
    """
    if not projectors:
        raise IncompleteSet("empty projector list")
    for p in projectors[1:]:
        if p.space != projectors[0].space:
            raise DimensionMismatch("projectors on different spaces")
    total = sum(p.diagonal for p in projectors)
    if np.max(np.abs(total - 1.0)) > ATOL_RESOLUTION:
        raise IncompleteSet("projectors do not sum to the identity")
    return sum(weak_value(tsv, p) for p in projectors)

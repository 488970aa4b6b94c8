"""Von Neumann measurement model: a discretized Gaussian pointer coupled to a
system observable, spanning the continuum from weak to projective measurement.

The coupling is the standard impulsive shift: on each eigenbranch of the
observable the pointer is translated by g times the eigenvalue,

    |psi> |ptr>  ->  sum_l  P_l |psi> (x) T_{g l} |ptr>

Observables are diagonal in the product basis, as every path, box and pair
occupation is, so the branches are one index map, owner[i] = the level of
index i: the coupling, the weak-measurement walk and the projective collapse
act index by index, and both measurements Born-draw with one sampler. Any
other observable is refused. To measure A = U diag(l) U^dagger, rotate the
pre- and post-selected states by U^dagger (hilbert.apply_to_factors) and
couple diag(l): <post|U Q_l U^dagger|pre> = <post|P_l|pre> for every branch.

Translations land between grid points in general; they are realized by linear
interpolation followed by per-branch renormalization, so branch weights (and
the joint norm) are preserved exactly and the interpolation error shows up
only as a tiny distortion of the pointer profile.

Everything here is a pure function of its arguments plus an explicit RNG seed;
trial batches are embarrassingly parallel.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatch, ShiftOutOfGrid, ZeroProbabilityBranch
from .hilbert import (Diagonal, Factor, Ket, Operator, OperatorForm, Space, dot, norm,
                      require_finite, usable)
from .tsvf import NOT_A_PROJECTOR

HERMITICITY_TOL = 1e-10
EIGENVALUE_CLUSTER_TOL = 1e-8

# Every pointer is a Gaussian of position standard deviation SIGMA. Weak-mode
# default grid: SIGMA much larger than typical g*lambda keeps the
# linear-response (weak) regime valid while the grid still resolves shifts.
SIGMA = 1.0
DEFAULT_BINS = 401
DEFAULT_SPACING = 0.05

# Smallest nonzero shift, in grid bins, that a coupling may ask for. Rounding
# noise in the interpolated profile (about 2e-16) reaches shift/g as that
# noise over the shift in bins: 2e-11 at this floor, below the printed digits.
MIN_SHIFT_BINS = 1e-5


def _g(value: float) -> float:
    """The coupling strength g, the pointer shift per unit eigenvalue, as a float.
    NaN fails the check too, since it compares false with 0."""
    if not value >= 0:
        raise ValueError(f"coupling strength must be >= 0, got {value}")
    return float(value)


@lru_cache(maxsize=32)
def _pointer_factor(name: str, n_bins: int, spacing: float) -> Factor:
    half = (n_bins - 1) // 2
    labels = tuple(f"x={(i - half) * spacing!r}" for i in range(n_bins))
    return Factor(name, labels)


@lru_cache(maxsize=32)
def _grid(n_bins: int, spacing: float) -> np.ndarray:
    """Read-only positions of the centred grid, shared by every caller. Each
    entry equals the float of its _pointer_factor label, since float(repr(x)) == x."""
    xs = (np.arange(n_bins) - (n_bins - 1) // 2) * float(spacing)
    xs.flags.writeable = False
    return xs


def grid_positions(factor: Factor) -> np.ndarray:
    """The position grid of a pointer factor, whose labels must be exactly
    the labels _pointer_factor writes for its name and bin count."""
    dim, expected = factor.dim, None
    if dim % 2:  # odd, so a centre bin exists
        try:
            # the bin right of centre sits at 1 x spacing; a 1-bin grid has none
            spacing = float(factor.labels[(dim + 1) // 2][2:]) if dim > 1 else 1.0
            expected = _pointer_factor(factor.name, dim, spacing).labels
        except ValueError:  # not a number, or a zero or NaN spacing (duplicate labels)
            pass
    if expected != factor.labels:
        raise ValueError(f"factor {factor.name!r} is not a pointer factor")
    return _grid(dim, spacing)


@lru_cache(maxsize=32)
def _profile(n_bins: int, spacing: float) -> np.ndarray:
    """Read-only l2-normalized ket amplitudes of the centred Gaussian of
    position standard deviation SIGMA: normalized with the grid measure
    (sum |a|^2 * spacing = 1), then scaled by sqrt(spacing). That order fixes
    the profile's bytes, which every printed pointer readout depends on."""
    amps = np.exp(-_grid(n_bins, spacing) ** 2 / (4.0 * SIGMA ** 2)).astype(complex)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2) * spacing)
    amps = amps * np.sqrt(spacing)
    amps.flags.writeable = False
    return amps


@dataclass(frozen=True)
class PointerWavefunction:
    """Gaussian pointer of width SIGMA on a uniform 1D grid: n_bins points
    (odd, so a centre bin sits at 0) spaced `spacing` apart."""

    n_bins: int = DEFAULT_BINS
    spacing: float = DEFAULT_SPACING

    def __post_init__(self) -> None:
        # a bool is an int, and so a Real, but neither a count nor a spacing
        if not (type(self.n_bins) is int and self.n_bins > 0 and self.n_bins % 2):
            raise ValueError(f"bin count must be an odd positive int, got {self.n_bins!r}")
        spacing = self.spacing  # NaN fails the comparison too
        if isinstance(spacing, bool) or not (isinstance(spacing, Real) and 0 < spacing < math.inf):
            raise ValueError(f"grid spacing must be finite and > 0, got {spacing!r}")
        object.__setattr__(self, "spacing", float(spacing))

    @property
    def positions(self) -> np.ndarray:
        return _grid(self.n_bins, self.spacing)

    @property
    def half_extent(self) -> float:
        return (self.n_bins - 1) / 2 * self.spacing

    def factor(self, name: str = "pointer") -> Factor:
        return _pointer_factor(name, self.n_bins, self.spacing)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Readout record of a weak-measurement sequence plus the surviving state."""

    readouts: np.ndarray
    final_state: Ket


# ---------------------------------------------------------------------------
# internals


def eigenbranches(observable: OperatorForm) -> tuple[np.ndarray, np.ndarray]:
    """Cluster the spectrum of an observable diagonal in the product basis.

    Returns (eigenvalues, owner) in O(d): one eigenvalue per distinct level
    (degenerate levels merged), and owner[i], read-only, the level of basis
    index i, so the projector onto level k is the 0/1 mask owner == k. The
    observable is a Diagonal or a dense Operator whose off-diagonal entries
    are all zero; its eigenvalues are its stably sorted real diagonal, the same
    bits a dense Hermitian eigensolver returns. Any other observable is refused
    (another form in O(1)); the module docstring says how to measure one by rotation.
    """
    if not isinstance(observable, (Diagonal, Operator)):  # a Permutation: no d x d matrix
        raise ValueError(f"observable is a {type(observable).__name__}; a pointer "
                         "couples only to a Diagonal or a dense Operator")
    # a diagonal is promoted to complex as .matrix is, so every dtype reads alike
    v = (observable.diagonal.astype(complex) if isinstance(observable, Diagonal)
         else observable.matrix)
    # NaN would pass the Hermiticity test below, and inf - inf warns in it;
    # on a 1-D diagonal .T is a no-op, so the test reads its imaginary parts
    if not np.isfinite(v).all():
        raise ValueError(f"observable {observable!r} has a non-finite entry")
    if np.max(np.abs(v - v.conj().T)) > HERMITICITY_TOL:
        raise ValueError("observable is not Hermitian to 1e-10")
    if v.ndim == 2:
        if np.count_nonzero(v) != np.count_nonzero(v.diagonal()):
            raise ValueError("observable is not diagonal in the product basis")
        v = v.diagonal()
    order = np.argsort(v.real, kind="stable")
    evals = v.real[order]
    # a level within the tolerance of the one below it joins that level's
    # group; the steps are np.diff(evals), spelled out to skip its call overhead
    steps = evals[1:] - evals[:-1]
    cuts = [i + 1 for i in (steps > EIGENVALUE_CLUSTER_TOL).nonzero()[0].tolist()]
    bounds = list(zip([0, *cuts], [*cuts, len(evals)]))
    lams = np.array([evals[a:b].sum() / (b - a) for a, b in bounds])
    owner = np.empty(len(v), dtype=np.intp)
    for k, (a, b) in enumerate(bounds):
        owner[order[a:b]] = k
    lams.flags.writeable = owner.flags.writeable = False
    return lams, owner


# Each observable's levels, resolved on its first pointer call and shared by
# every later one. Weak keys let an entry go with its operator (a d = 2048
# dense Operator holds 64 MiB); an operator's matrix or diagonal is a
# read-only copy, so an entry never goes stale.
_LEVELS = weakref.WeakKeyDictionary()


def _levels(observable: OperatorForm
            ) -> tuple[tuple[float, ...], np.ndarray, tuple[int, ...]]:
    """eigenbranches of an observable as the pointer calls use them: the
    eigenvalues as floats, owner, and owner as ints for the draws. Computed
    once per operator object; a refused observable raises on every call."""
    try:
        return _LEVELS[observable]
    except KeyError:
        lams, owner = eigenbranches(observable)
        levels = _LEVELS[observable] = (tuple(lams.tolist()), owner, tuple(owner.tolist()))
        return levels


def _translate(amps: np.ndarray, bins: float) -> np.ndarray:
    """Shift a grid profile right by a (possibly fractional) number of bins.

    Linear interpolation between neighbouring bins; values pushed past the
    edge are dropped. The result is rescaled to the input l2 norm, which keeps
    the ideal translation's unitarity (branch weights stay exact)."""
    n = amps.shape[0]
    k = int(np.floor(bins))
    f = bins - k
    out = np.zeros_like(amps)
    for weight, shift in ((1.0 - f, k), (f, k + 1)):
        lo, hi = max(shift, 0), min(n, n + shift)
        if weight != 0.0 and lo < hi:
            out[lo:hi] += weight * amps[lo - shift:hi - shift]
    nrm_in = norm(amps)
    nrm_out = norm(out)
    if nrm_out > 0:
        out *= nrm_in / nrm_out
    return out


@lru_cache(maxsize=32)
def _shifted(lams: tuple[float, ...], n_bins: int, spacing: float,
             g: float) -> tuple[np.ndarray, tuple[tuple[float, ...], ...]]:
    """Read-only g*lambda-shifted pointer profiles, one row per eigenvalue,
    and each row's cdf of |amplitude|^2 as a tuple of floats for bisect."""
    base = _profile(n_bins, spacing)
    rows = np.stack([_translate(base, g * lam / spacing) for lam in lams])
    rows.flags.writeable = False
    cdfs = np.cumsum(np.abs(rows) ** 2, axis=1).tolist()
    return rows, tuple(map(tuple, cdfs))


def _branch_table(observable: OperatorForm, ptr: PointerWavefunction, g: float
                  ) -> tuple[np.ndarray, np.ndarray, tuple[tuple[float, ...], ...]]:
    """A coupling's branch table (owner, rows, cdfs): eigenbranches' owner,
    the branch of each basis index, and _shifted's profiles and cdfs, one row
    per branch, shared read-only by every call on the same (eigenvalues,
    grid, g). Every shift is checked on the grid."""
    gval = _g(g)
    lams, owner, _ = _levels(observable)
    worst = gval * max(map(abs, lams))
    if worst > ptr.half_extent:
        raise ShiftOutOfGrid(
            f"shift g*|lambda| = {worst:g} exceeds half the grid extent {ptr.half_extent:g}"
        )
    if 0 < worst < MIN_SHIFT_BINS * ptr.spacing:
        raise ShiftOutOfGrid(
            f"shift g*|lambda| = {worst:g} is under {MIN_SHIFT_BINS:g} bins of width "
            f"{ptr.spacing:g}, below what the grid resolves"
        )
    return (owner,) + _shifted(lams, ptr.n_bins, ptr.spacing, gval)


def _draw_branch(owner: tuple[int, ...], amps: list[complex], n: int,
                 draw: float) -> int:
    """Born-draw one of n branches for a uniform draw in [0, 1), branch b
    weighing sum |amps[i]|^2 over the indices i with owner[i] == b. Python
    floats skip numpy's per-call overhead on 2- and 3-entry vectors; the
    weights add |z|^2 in einsum's order from 0.0 and accumulate adds in
    cumsum's order, as the all-numpy draw did. bisect_right takes the first
    cumulative weight > draw * total, the exact rule for a point in
    [0, total), so a branch of weight 0 is never drawn, even at draw 0.0."""
    w = [0.0] * n
    for k, z in zip(owner, amps):
        w[k] += z.real * z.real + z.imag * z.imag
    cw = list(accumulate(w))
    return bisect_right(cw, draw * cw[-1])


def _unique_pointer_name(sp: Space) -> str:
    taken = {f.name for f in sp.factors}
    if "pointer" not in taken:
        return "pointer"
    i = 2
    while f"pointer_{i}" in taken:
        i += 1
    return f"pointer_{i}"


# ---------------------------------------------------------------------------
# public operations


def couple(system: Ket, observable: OperatorForm, ptr: PointerWavefunction, g: float) -> Ket:
    """Impulsive von Neumann coupling; returns the joint system (x) pointer ket.

    The pointer enters as a new factor appended after the system factors. The
    observable may act on the full system space or on a leading subset of its
    factors (identity on the rest), so several pointers can be attached in
    turn without ever forming full-space matrices; pointer_mean then reads
    them all from one post-selection. With g = 0 the result is an exact
    product and the pointer is untouched. A zero ket couples to zero; one
    that hilbert.require_finite refuses raises ZeroProbabilityBranch.
    """
    k = len(observable.space.factors)
    if system.space.factors[:k] != observable.space.factors:
        raise DimensionMismatch(
            "observable must act on the full system space or its leading factors"
        )
    psi = require_finite(system.amplitudes, "couple")
    owner, shifted, _ = _branch_table(observable, ptr, g)
    t = psi.reshape(observable.space.dim, -1)
    # index i rides on its own branch's profile alone, so each amplitude is
    # one product; + 0.0 turns -0.0 into +0.0, as the sum over branches of
    # (P_b t) (x) row_b would, which keeps the joint's bytes those of that sum
    joint = t[:, :, None] * shifted[owner][:, None, :]
    joint += 0.0
    factor = ptr.factor(_unique_pointer_name(system.space))
    joined = Space(system.space.factors + (factor,))
    return Ket(joined, joint.reshape(-1))


def pointer_mean(joint: Ket, post_projector: OperatorForm) -> tuple[float, ...]:
    """Mean position of every pointer, conditioned on one post-selection.

    post_projector acts on the leading (system) factors, and every factor
    after them must be a pointer. The joint state is projected and squared
    once; the tuple holds one mean per pointer, in factor order. As g -> 0,
    each mean/g -> Re(weak value) of its observable with O(g^2) error.
    """
    k = len(post_projector.space.factors)
    if joint.space.factors[:k] != post_projector.space.factors:
        raise DimensionMismatch(
            "post-selection projector must cover the leading (system) factors"
        )
    if not post_projector.is_projector():
        raise ValueError(NOT_A_PROJECTOR)
    grids = [grid_positions(f) for f in joint.space.factors[k:]]
    if not grids:
        raise DimensionMismatch("joint state has no pointer factor")
    sys_dim = post_projector.space.dim
    t = post_projector.act(joint.amplitudes.reshape(sys_dim, -1))
    prob = (np.abs(t) ** 2).reshape([sys_dim] + [len(xs) for xs in grids])
    total = float(prob.sum())
    if not 1e-12 <= total < math.inf:  # NaN fails too
        raise ZeroProbabilityBranch(f"post-selection probability {total:.3e} < 1e-12")
    means = []
    for keep, xs in enumerate(grids, start=1):
        marg = prob.sum(axis=tuple(i for i in range(prob.ndim) if i != keep))
        means.append(dot(xs, marg).real / total)
    return tuple(means)


def strong_measure(system: Ket, observable: OperatorForm,
                   rng_seed: int) -> tuple[float, Ket]:
    """Projective measurement: Born-sample an eigenvalue with the weak walk's
    branch draw, and collapse. Deterministic given the seed; a ket that
    hilbert.usable refuses (zero, NaN or infinite) raises
    ZeroProbabilityBranch before the draw."""
    if observable.space != system.space:
        raise DimensionMismatch("observable space differs from system space")
    psi = usable(system.amplitudes, "draw outcomes from")
    lams, owner, owner_ints = _levels(observable)
    draw = np.random.default_rng(rng_seed).random()
    idx = _draw_branch(owner_ints, psi.tolist(), len(lams), draw)
    # P_idx psi, with Diagonal.act's bits: + 0.0 turns -0.0 into +0.0; then normalized
    collapsed = (owner == idx) * psi
    collapsed += 0.0
    collapsed /= norm(collapsed)
    return lams[idx], Ket(system.space, collapsed)


def weak_sequence(system: Ket, observable: OperatorForm, g: float,
                  steps: int, rng_seed: int,
                  ptr: PointerWavefunction | None = None) -> Trajectory:
    """Repeated weak measurement of one observable on a single system.

    Each step couples a fresh pointer, samples its position from the
    conditioned joint distribution, and projects the pointer onto the sampled
    bin; the induced Kraus map is the back-action on the system. Readouts
    drift like a biased random walk, and for long sequences the system is
    driven into an eigenstate with Born-rule frequencies across seeds. A ket
    that hilbert.usable refuses raises ZeroProbabilityBranch before any draw.
    """
    if isinstance(steps, bool) or not isinstance(steps, Integral) or steps < 1:
        raise ValueError(f"steps must be an int >= 1, got {steps!r}")
    if observable.space != system.space:
        raise DimensionMismatch("observable space differs from system space")
    psi = usable(system.amplitudes, "draw outcomes from").copy()  # updated in place
    if ptr is None:
        ptr = PointerWavefunction()
    owner, branch_amps, cdf_rows = _branch_table(observable, ptr, g)
    # P_b psi is psi on the indices branch b owns
    amp_rows = branch_amps[owner].T  # [bin, i]: index i's Kraus factor at that bin
    owner = _levels(observable)[2]  # as ints, for the draws
    n_branches = len(branch_amps)
    rng = np.random.default_rng(rng_seed)
    branch_draws, bin_draws = rng.random((steps, 2)).T.tolist()
    re, im = psi.real, psi.imag  # views, live as psi is updated in place
    bins = []
    # Each step stays bit-identical to the all-numpy loop, the draws as
    # _draw_branch says. On masks the Kraus product acts entry by entry.
    for branch_draw, bin_draw in zip(branch_draws, bin_draws):
        # sample the readout bin from the mixture sum_b w_b pmf_b
        cdf = cdf_rows[_draw_branch(owner, psi.tolist(), n_branches, branch_draw)]
        # cdf[-1] is about 1, so bin_draw * cdf[-1] < cdf[-1]: a bin of the grid
        bin_idx = bisect_right(cdf, bin_draw * cdf[-1])
        bins.append(bin_idx)
        # Kraus back-action: project the pointer onto the sampled bin
        psi *= amp_rows[bin_idx]
        # hilbert.norm's arithmetic, inline on views made once per walk: a
        # call per step cost 5% of a walk
        psi /= math.sqrt(re.dot(re) + im.dot(im))
    return Trajectory(readouts=ptr.positions[bins], final_state=Ket(system.space, psi))

"""Von Neumann measurement model: a discretized Gaussian pointer coupled to a
system observable, spanning the continuum from weak to projective measurement.

The coupling is the standard impulsive shift: on each eigenbranch of the
observable the pointer is translated by g times the eigenvalue,

    |psi> |ptr>  ->  sum_l  P_l |psi> (x) T_{g l} |ptr>

Translations land between grid points in general; they are realized by linear
interpolation followed by per-branch renormalization, so branch weights (and
the joint norm) are preserved exactly and the interpolation error shows up
only as a tiny distortion of the pointer profile.

Everything here is a pure function of its arguments plus an explicit RNG seed;
trial batches are embarrassingly parallel.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DimensionMismatch, ShiftOutOfGrid, ZeroProbabilityBranch
from .hilbert import Factor, Ket, OperatorForm, Space
from .tsvf import NOT_A_PROJECTOR

HERMITICITY_TOL = 1e-10
EIGENVALUE_CLUSTER_TOL = 1e-8

# Weak-mode defaults: sigma much larger than typical g*lambda keeps the
# linear-response (weak) regime valid while the grid still resolves shifts.
DEFAULT_BINS = 401
DEFAULT_SPACING = 0.05
DEFAULT_SIGMA = 1.0

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


@dataclass(frozen=True, eq=False)
class PointerWavefunction:
    """Uniform 1D grid (center 0, odd bin count) holding a complex amplitude
    profile, normalized with the grid measure: sum |a|^2 * spacing = 1."""

    spacing: float
    sigma: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        amps.flags.writeable = False
        if self.n_bins % 2 == 0:
            raise ValueError("bin count must be odd so a center bin exists")
        if not self.spacing > 0:  # NaN fails too
            raise ValueError("grid spacing must be positive")
        total = float(np.sum(np.abs(amps) ** 2) * self.spacing)
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"pointer not normalized: sum |a|^2 dx = {total!r}")

    @classmethod
    def gaussian(cls, n_bins: int = DEFAULT_BINS, spacing: float = DEFAULT_SPACING,
                 sigma: float = DEFAULT_SIGMA) -> "PointerWavefunction":
        """Gaussian with position standard deviation sigma, centered on the grid."""
        x = _grid(n_bins, spacing)
        amps = np.exp(-x ** 2 / (4.0 * sigma ** 2)).astype(complex)
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2) * spacing)
        return cls(spacing=spacing, sigma=sigma, amplitudes=amps)

    @property
    def n_bins(self) -> int:
        return len(self.amplitudes)

    @property
    def positions(self) -> np.ndarray:
        return _grid(self.n_bins, self.spacing)

    @property
    def half_extent(self) -> float:
        return (self.n_bins - 1) / 2 * self.spacing

    def ket_amplitudes(self) -> np.ndarray:
        """l2-normalized amplitudes for use as a tensor factor."""
        return self.amplitudes * np.sqrt(self.spacing)

    def factor(self, name: str = "pointer") -> Factor:
        return _pointer_factor(name, self.n_bins, self.spacing)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Readout record of a weak-measurement sequence plus the surviving state."""

    readouts: np.ndarray
    final_state: Ket


# ---------------------------------------------------------------------------
# internals


def eigenbranches(observable: OperatorForm) -> tuple[np.ndarray, list[np.ndarray]]:
    """Cluster the spectral decomposition of a Hermitian observable.

    Returns (eigenvalues, projector matrices), one entry per distinct
    eigenvalue (degenerate levels merged). Works on the observable's dense
    matrix, so it is meant for the small system spaces pointers couple to.
    """
    mat = observable.matrix
    if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
        raise ValueError("observable is not Hermitian to 1e-10")
    evals, evecs = np.linalg.eigh(mat)
    groups: list[list[int]] = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[groups[-1][-1]] <= EIGENVALUE_CLUSTER_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    lams = np.array([float(np.mean(evals[g])) for g in groups])
    projs = []
    for g in groups:
        v = evecs[:, g]
        projs.append(v @ v.conj().T)
    return lams, projs


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
        if weight == 0.0 or abs(shift) >= n:
            continue
        if shift >= 0:
            out[shift:] += weight * amps[: n - shift]
        else:
            out[: n + shift] += weight * amps[-shift:]
    nrm_in = np.linalg.norm(amps)
    nrm_out = np.linalg.norm(out)
    if nrm_out > 0:
        out *= nrm_in / nrm_out
    return out


def _branches(observable: OperatorForm, ptr: PointerWavefunction,
              g: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Eigenprojectors and g*lambda-shifted pointer profiles, shifts checked on the grid."""
    gval = _g(g)
    lams, projs = eigenbranches(observable)
    worst = gval * float(np.max(np.abs(lams)))
    if worst > ptr.half_extent:
        raise ShiftOutOfGrid(
            f"shift g*|lambda| = {worst:g} exceeds half the grid extent {ptr.half_extent:g}"
        )
    if 0 < worst < MIN_SHIFT_BINS * ptr.spacing:
        raise ShiftOutOfGrid(
            f"shift g*|lambda| = {worst:g} is under {MIN_SHIFT_BINS:g} bins of width "
            f"{ptr.spacing:g}, below what the grid resolves"
        )
    base = ptr.ket_amplitudes()
    return projs, np.stack([_translate(base, gval * lam / ptr.spacing) for lam in lams])


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
    product and the pointer is untouched.
    """
    k = len(observable.space.factors)
    if system.space.factors[:k] != observable.space.factors:
        raise DimensionMismatch(
            "observable must act on the full system space or its leading factors"
        )
    projs, shifted = _branches(observable, ptr, g)
    obs_dim = observable.space.dim
    t = system.amplitudes.reshape(obs_dim, -1)
    joint = np.zeros((obs_dim, t.shape[1], ptr.n_bins), dtype=complex)
    for proj, row in zip(projs, shifted):
        comp = proj @ t
        joint += comp[:, :, None] * row[None, None, :]
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
    if total < 1e-12:
        raise ZeroProbabilityBranch(f"post-selection probability {total:.3e} < 1e-12")
    means = []
    for keep, xs in enumerate(grids, start=1):
        marg = prob.sum(axis=tuple(i for i in range(prob.ndim) if i != keep))
        means.append(float(np.dot(xs, marg) / total))
    return tuple(means)


def strong_measure(system: Ket, observable: OperatorForm,
                   rng_seed: int) -> tuple[float, Ket]:
    """Projective measurement: Born-sample an eigenvalue and collapse.

    Deterministic given the seed."""
    if observable.space != system.space:
        raise DimensionMismatch("observable space differs from system space")
    lams, projs = eigenbranches(observable)
    comps = [p @ system.amplitudes for p in projs]
    weights = np.array([float(np.vdot(c, c).real) for c in comps])
    weights = weights / weights.sum()
    rng = np.random.default_rng(rng_seed)
    idx = int(np.searchsorted(np.cumsum(weights), rng.random()))
    idx = min(idx, len(lams) - 1)
    collapsed = comps[idx] / np.linalg.norm(comps[idx])
    return float(lams[idx]), Ket(system.space, collapsed)


def weak_sequence(system: Ket, observable: OperatorForm, g: float,
                  steps: int, rng_seed: int,
                  ptr: PointerWavefunction | None = None) -> Trajectory:
    """Repeated weak measurement of one observable on a single system.

    Each step couples a fresh pointer, samples its position from the
    conditioned joint distribution, and projects the pointer onto the sampled
    bin; the induced Kraus map is the back-action on the system. Readouts
    drift like a biased random walk, and for long sequences the system is
    driven into an eigenstate with Born-rule frequencies across seeds.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if observable.space != system.space:
        raise DimensionMismatch("observable space differs from system space")
    if ptr is None:
        ptr = PointerWavefunction.gaussian()
    # Per-branch translated pointer profiles, their bin pmfs and cdfs. These
    # are fixed for the whole sequence; only the branch weights evolve.
    projs, branch_amps = _branches(observable, ptr, g)
    cdf_rows = np.cumsum(np.abs(branch_amps) ** 2, axis=1).tolist()
    proj_stack = np.stack(projs)
    last_branch, last_bin = len(projs) - 1, ptr.n_bins - 1
    rng = np.random.default_rng(rng_seed)
    branch_draws, bin_draws = rng.random((steps, 2)).T.tolist()
    psi = system.amplitudes.copy()
    bins = []
    # Sampling runs on Python floats, which skips numpy's per-call overhead on
    # 2- and 3-entry vectors. Each step stays bit-identical to np.cumsum,
    # np.searchsorted(side="left") and np.linalg.norm: accumulate adds in
    # cumsum's order, bisect_left is searchsorted's rule, and the norm is
    # computed as np.linalg.norm does for a complex vector.
    for branch_draw, bin_draw in zip(branch_draws, bin_draws):
        comps = proj_stack @ psi
        w = np.einsum("bi,bi->b", comps.conj(), comps).real.tolist()
        # sample the readout bin from the mixture sum_b w_b pmf_b
        cw = list(accumulate(w))
        b = min(bisect_left(cw, branch_draw * cw[-1]), last_branch)
        cdf = cdf_rows[b]
        bin_idx = min(bisect_left(cdf, bin_draw * cdf[-1]), last_bin)
        bins.append(bin_idx)
        # Kraus back-action: project the pointer onto the sampled bin
        psi = branch_amps[:, bin_idx] @ comps
        re, im = psi.real, psi.imag
        psi /= math.sqrt(re.dot(re) + im.dot(im))
    return Trajectory(readouts=ptr.positions[bins], final_state=Ket(system.space, psi))

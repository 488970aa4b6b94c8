"""Pointer model: coupling, conditioned means, projective limit, sequences."""

import gc
import importlib.util
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from tsvsim import dsl, hilbert as hb, pointer as pt, scenarios as sc, tsvf
from tsvsim.errors import DimensionMismatch, ShiftOutOfGrid, ZeroProbabilityBranch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def boxes_context():
    sp = hb.space(("box", ["box1", "box2", "box3"]))
    pre = hb.Ket(sp, np.ones(3) / SQ3)
    post = hb.Ket(sp, np.array([1, 1, -1]) / SQ3)
    p3 = hb.Operator.projector(sp, {"box": "box3"})
    return sp, pre, post, p3


def two_level():
    sp = hb.space(("sys", ["lo", "hi"]))
    obs = hb.Operator(sp, np.diag([0.0, 1.0]))
    return sp, obs


# nonzero kets whose squared norm is subnormal or underflows to 0; times
# 2 ** 600, each is the same ket at a normal scale
SUBNORMAL_KETS = ([3e-162, 0.0], [5e-324, 0.0], [1e-200j, 3e-200])


def normal_scale(sp, amps):
    return hb.Ket(sp, np.asarray(amps, dtype=complex) * 2.0 ** 600)


def _reference_eigenbranches(observable):
    """eigenbranches as it was written on the dense matrix with eigh, kept to
    pin the diagonal masks' eigenvalues and projectors, and to couple a
    non-diagonal observable densely where a test checks its rotation."""
    mat = observable.matrix
    evals, evecs = np.linalg.eigh(mat)
    groups = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[groups[-1][-1]] <= pt.EIGENVALUE_CLUSTER_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    lams = np.array([float(np.mean(evals[g])) for g in groups])
    projs = []
    for g in groups:
        v = evecs[:, g]
        projs.append(v @ v.conj().T)
    return lams, projs


def _masks(observable, owner):
    """The eigenprojectors as Diagonal 0/1 masks, one per level of owner."""
    return [hb.Diagonal(observable.space, (owner == k).astype(float))
            for k in range(owner.max() + 1)]


def _reference_weak_sequence(system, observable, g, steps, rng_seed, ptr=None):
    """weak_sequence's step loop as it was written with numpy arrays, kept to
    pin the lean loop's results bit for bit."""
    if ptr is None:
        ptr = pt.PointerWavefunction()
    owner, branch_amps, _ = pt._branch_table(observable, ptr, g)
    projs = _masks(observable, owner)
    cdf = np.cumsum(np.abs(branch_amps) ** 2, axis=1)
    cdf_last = cdf[:, -1]
    xs = ptr.positions
    proj_stack = np.stack([p.matrix for p in projs])
    n_branches = len(projs)
    n_bins = cdf.shape[1]
    rng = np.random.default_rng(rng_seed)
    draws = rng.random((steps, 2))
    psi = system.amplitudes.copy()
    readouts = np.empty(steps, dtype=float)
    for step in range(steps):
        comps = proj_stack @ psi
        w = np.einsum("bi,bi->b", comps.conj(), comps).real
        # sample the readout bin from the mixture sum_b w_b pmf_b
        cw = np.cumsum(w)
        b = int(np.searchsorted(cw, draws[step, 0] * cw[-1]))
        if b >= n_branches:
            b = n_branches - 1
        bin_idx = int(np.searchsorted(cdf[b], draws[step, 1] * cdf_last[b]))
        if bin_idx >= n_bins:
            bin_idx = n_bins - 1
        readouts[step] = xs[bin_idx]
        # Kraus back-action: project the pointer onto the sampled bin
        psi = branch_amps[:, bin_idx] @ comps
        psi /= np.linalg.norm(psi)
    return readouts, psi


def _reference_couple(system, observable, ptr, g):
    """couple as it was written, zeros plus one proj.act(t) product per branch,
    kept to pin the mask product's joint kets bit for bit."""
    owner, shifted, _ = pt._branch_table(observable, ptr, g)
    projs = _masks(observable, owner)
    obs_dim = observable.space.dim
    t = system.amplitudes.reshape(obs_dim, -1)
    joint = np.zeros((obs_dim, t.shape[1], ptr.n_bins), dtype=complex)
    for proj, row in zip(projs, shifted):
        comp = proj.act(t)
        joint += comp[:, :, None] * row[None, None, :]
    factor = ptr.factor(pt._unique_pointer_name(system.space))
    return hb.Ket(hb.Space(system.space.factors + (factor,)), joint.reshape(-1))


def _reference_strong_measure(system, observable, rng_seed):
    """strong_measure as it was written with its own sampler over full-size
    masked copies, kept to pin the shared branch draw bit for bit."""
    lams, owner = pt.eigenbranches(observable)
    comps = [p.act(system.amplitudes) for p in _masks(observable, owner)]
    weights = np.array([float(np.vdot(c, c).real) for c in comps])
    total = float(weights.sum())
    weights = weights / total
    rng = np.random.default_rng(rng_seed)
    idx = int(np.searchsorted(np.cumsum(weights), rng.random()))
    idx = min(idx, len(lams) - 1)
    collapsed = comps[idx] / np.linalg.norm(comps[idx])
    return float(lams[idx]), hb.Ket(system.space, collapsed)


def _three_path_chain(g, couple=pt.couple):
    """The three-path scenario's joint state: a pointer on each path in turn."""
    pre, post = sc.three_boxes_selections("path")
    joint = pre
    for lab in pre.space.factor("path").labels:
        proj = hb.Operator.projector(pre.space, {"path": lab})
        joint = couple(joint, proj, sc.THREE_PATH_POINTER, g)
    return joint, hb.Operator.ket_projector(post)


def _couple_cases():
    """(id, system, observable, g, pointer, owner) for couple: signed and exact
    zeros, shifts of whole bins whose profile rows hold exact zeros, degenerate
    and label-projector owners, negative eigenvalues, an observable on the
    leading factor of a larger space."""
    seq = {case[0]: case[1:] for case in _sequence_cases()}
    sp2, obs2 = two_level()
    sp3 = hb.space(("box", ["box1", "box2", "box3"]))
    diag3 = hb.Operator(sp3, np.diag([1.0, 2.0, 3.0]))
    small = pt.PointerWavefunction(n_bins=41, spacing=0.25)
    zeros3 = hb.Ket(sp3, np.array([complex(-0.0, 0.0), complex(0.0, -0.0),
                                   complex(-0.0, -0.6)]))
    wide = hb.space(("a", ["x", "y"]), ("b", ["u", "v", "w"]))
    rng = np.random.default_rng(11)
    wide_ket = hb.Ket(wide, rng.normal(size=6) + 1j * rng.normal(size=6))
    return [
        ("signed-zeros", seq["signed-zeros"][0], diag3, 0.2, None, (0, 1, 2)),
        ("negative-zero", seq["negative-zero"][0], obs2, 0.2, None, (0, 1)),
        ("all-zero-parts", zeros3, diag3, 0.5, small, (0, 1, 2)),
        ("whole-bins", seq["three-level"][0], diag3, 0.5, small, (0, 1, 2)),
        ("whole-bins-zeros", seq["signed-zeros"][0], diag3, 0.25, small, (0, 1, 2)),
        ("degenerate", *seq["degenerate"][:2], 0.2, None, (0, 0, 1)),
        ("label-projector", *seq["label-projector"][:2], 0.3, None, (1, 0, 1)),
        ("negative", seq["label-projector"][0],
         hb.Diagonal(sp3, np.array([0.5, -2.0, -1.0])), 0.25, small, (2, 0, 1)),
        ("leading-factor", wide_ket,
         hb.Diagonal(hb.space(("a", ["x", "y"])), np.array([-1.0, 1.0])), 0.5, small,
         (0, 1)),
    ]


def _reference_pointer_mean(joint, post_projector, pointer=None):
    """pointer_mean as it was written to read one pointer per call, kept to
    pin the one-projection means bit for bit."""
    k = len(post_projector.space.factors)
    if joint.space.factors[:k] != post_projector.space.factors:
        raise DimensionMismatch(
            "post-selection projector must cover the leading (system) factors"
        )
    ptr_axes = list(range(k, len(joint.space.factors)))
    if not ptr_axes:
        raise DimensionMismatch("joint state has no pointer factor")
    if pointer is None:
        axis = ptr_axes[-1]
    else:
        axis = joint.space.factor_index(pointer)
        if axis not in ptr_axes:
            raise DimensionMismatch(f"{pointer!r} is not a pointer factor here")
    sys_dim = post_projector.space.dim
    t = joint.amplitudes.reshape(sys_dim, -1)
    t = post_projector.act(t)
    prob = (np.abs(t) ** 2).reshape([sys_dim] + [joint.space.dims[a] for a in ptr_axes])
    total = float(prob.sum())
    if total < 1e-12:
        raise ZeroProbabilityBranch(f"post-selection probability {total:.3e} < 1e-12")
    keep = 1 + ptr_axes.index(axis)
    marg = prob.sum(axis=tuple(i for i in range(prob.ndim) if i != keep))
    xs = pt.grid_positions(joint.space.factors[axis])
    return float(np.dot(xs, marg) / total)


def _assert_matches_reference(joint, post_proj, means):
    names = [f.name for f in joint.space.factors[len(post_proj.space.factors):]]
    assert means == tuple(_reference_pointer_mean(joint, post_proj, pointer=nm)
                          for nm in names)


def _sequence_cases():
    """(id, system, observable, g, pointer) covering two- and three-level
    diagonal observables, g = 0, a small pointer grid, a degenerate diagonal,
    a label projector on a complex start and starts holding signed zeros."""
    sp2, obs2 = two_level()
    half = hb.Ket(sp2, np.array([1, 1]) / SQ2)
    sp3 = hb.space(("box", ["box1", "box2", "box3"]))
    even3 = hb.Ket(sp3, np.ones(3) / SQ3)
    diag3 = hb.Operator(sp3, np.diag([1.0, 2.0, 3.0]))
    complex3 = hb.Ket(sp3, np.array([0.6, 0.48j, 0.64]))
    return [
        ("two-level", half, obs2, 0.2, None),
        ("three-level", even3, diag3, 0.2, None),
        ("g=0", even3, diag3, 0.0, None),
        ("small-pointer", half, obs2, 0.2,
         pt.PointerWavefunction(n_bins=41, spacing=0.25)),
        ("degenerate", hb.Ket(sp3, np.array([0.6, 0.48j, -0.64])),
         hb.Operator(sp3, np.diag([1.0, 1.0, 2.0])), 0.2, None),
        ("label-projector", complex3,
         hb.Operator.projector(sp3, {"box": ["box1", "box3"]}), 0.3, None),
        ("signed-zeros", hb.Ket(sp3, np.array([0.0, complex(-0.0, -0.8), 0.6])),
         diag3, 0.2, None),
        ("negative-zero", hb.Ket(sp2, np.array([-0.0, 1.0])), obs2, 0.2, None),
    ]


def _random_measure_cases():
    """(id, system, observable) for strong_measure: seeded complex kets on 3-
    and 6-dimensional spaces, under distinct, degenerate and label-projector
    levels."""
    sp3 = hb.space(("box", ["box1", "box2", "box3"]))
    sp6 = hb.space(("a", ["x", "y"]), ("b", ["u", "v", "w"]))
    observables = [hb.Diagonal(sp3, np.array([1.0, 2.0, 3.0])),
                   hb.Diagonal(sp3, np.array([2.0, -1.0, 2.0])),
                   hb.Diagonal(sp6, np.array([0.5, -2.0, 0.5, 1.0, -2.0, 3.0])),
                   hb.Operator.projector(sp6, {"b": ["u", "w"]})]
    rng = np.random.default_rng(23)
    return [(f"random-{i}", hb.Ket(obs.space, rng.normal(size=obs.space.dim)
                                   + 1j * rng.normal(size=obs.space.dim)).unit(), obs)
            for i, obs in enumerate(observables)]


def _random_pair(sp, seed):
    """Seeded complex unit pre- and post-selected kets on sp."""
    rng = np.random.default_rng(seed)
    return tuple(hb.Ket(sp, rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)).unit()
                 for _ in range(2))


def _non_diagonal_cases():
    """(id, observable, u, lams) with observable = u diag(lams) u^dagger:
    sigma-x, whose eigenvectors are SPLIT_REAL's columns, and a complex 3x3
    Hermitian matrix through its eigh eigenvectors."""
    sp2 = hb.space(("sys", ["1", "2"]))
    sp3 = hb.space(("box", ["box1", "box2", "box3"]))
    herm = np.array([[1.0, 0.5 - 0.3j, 0.2j],
                     [0.5 + 0.3j, -0.4, 0.7 + 0.1j],
                     [-0.2j, 0.7 - 0.1j, 0.9]])
    lams, u = np.linalg.eigh(herm)
    return [
        ("sigma-x", hb.Operator(sp2, np.array([[0, 1], [1, 0]], dtype=complex)),
         hb.SPLIT_REAL, np.array([1.0, -1.0])),
        ("complex-3x3", hb.Operator(sp3, herm), u, lams),
    ]


# every entry that refuses an unusable ket, with the verb its refusal names
KET_REFUSALS = {
    "unit": (lambda k, obs: k.unit(), "normalize"),
    "strong_measure": (lambda k, obs: pt.strong_measure(k, obs, 1), "draw outcomes from"),
    "weak_sequence": (lambda k, obs: pt.weak_sequence(k, obs, 0.2, 3, 1), "draw outcomes from"),
    "couple": (lambda k, obs: pt.couple(k, obs, pt.PointerWavefunction(), 0.1), "couple"),
    "born_probability": (lambda k, obs: tsvf.born_probability(k, obs), "project"),
    "post_select": (lambda k, obs: tsvf.post_select(k, obs), "project"),
}


@pytest.mark.parametrize("call,doing", KET_REFUSALS.values(), ids=KET_REFUSALS)
@pytest.mark.parametrize("amp,norm_sq", [(np.inf, "inf"), (np.nan, "nan")])
def test_non_finite_ket_names_its_squared_norm(call, doing, amp, norm_sq):
    # np.vdot folds inf * 0 into NaN on some BLAS kernels; an infinite entry
    # still reads inf. The observable [0, 1] is also the projector onto "hi".
    sp, obs = two_level()
    with pytest.raises(ZeroProbabilityBranch,
                       match=f"^cannot {doing} a ket of squared norm {norm_sq}$"):
        call(hb.Ket(sp, [amp, 0.0]), obs)


@pytest.mark.parametrize("entry", ["unit", "strong_measure", "weak_sequence"])
def test_zero_ket_names_its_squared_norm(entry):
    call, doing = KET_REFUSALS[entry]
    sp, obs = two_level()
    with pytest.raises(ZeroProbabilityBranch, match=f"^cannot {doing} a ket of squared norm 0.0$"):
        call(hb.Ket(sp, [0.0, 0.0]), obs)


class TestPointerWavefunction:
    def test_gaussian_is_measure_normalized(self):
        ptr = pt.PointerWavefunction()
        amps = pt._profile(ptr.n_bins, ptr.spacing)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert ptr.n_bins % 2 == 1
        assert ptr.positions[ptr.n_bins // 2] == 0.0
        # one read-only profile per grid, shared by equal pointers
        assert not amps.flags.writeable
        equal = pt.PointerWavefunction(401, 0.05)
        assert pt._profile(equal.n_bins, equal.spacing) is amps

    def test_even_bin_count_rejected(self):
        with pytest.raises(ValueError, match="^bin count must be an odd positive int, got 400$"):
            pt.PointerWavefunction(n_bins=400)

    def test_grid_validation(self):
        # a bool is an int, and "0.1" does not compare with 0: both are refused
        for n_bins in (0, -3, 5.0, True):
            with pytest.raises(ValueError, match="^bin count must be an odd positive int"):
                pt.PointerWavefunction(n_bins=n_bins)
        for spacing in (0.0, -1.0, float("nan"), float("inf"), "0.1", True):
            with pytest.raises(ValueError, match="^grid spacing must be finite and > 0"):
                pt.PointerWavefunction(n_bins=11, spacing=spacing)
        # an int spacing is stored as a float, so labels and grid read floats
        assert pt.PointerWavefunction(3, 1).factor().labels == ("x=-1.0", "x=0.0", "x=1.0")

    def test_nan_rejected(self):
        # NaN compares false with everything, so the spacing check must fail on it
        with pytest.raises(ValueError, match="^grid spacing must be finite and > 0, got nan$"):
            pt.PointerWavefunction(n_bins=11, spacing=float("nan"))

    def test_grid_positions_roundtrip(self):
        # default grid, the three-path grid, a single bin, and two inexact spacings
        for n_bins, spacing in ((401, 0.05), (41, 0.25), (1, 0.05), (401, 0.1), (41, 0.3)):
            ptr = pt.PointerWavefunction(n_bins=n_bins, spacing=spacing)
            factor = ptr.factor("pointer")
            from_labels = np.array([float(lab[2:]) for lab in factor.labels])
            xs = pt.grid_positions(factor)
            assert xs.dtype == from_labels.dtype
            assert xs.tobytes() == from_labels.tobytes()
            assert ptr.positions.tobytes() == from_labels.tobytes()
            assert not xs.flags.writeable and not ptr.positions.flags.writeable

    def test_coupling_strength_validation(self):
        sp, obs = two_level()
        ptr = pt.PointerWavefunction()
        for g in (-0.1, float("nan")):  # NaN compares false with 0 as well
            with pytest.raises(ValueError, match=f"coupling strength must be >= 0, got {g}$"):
                pt.couple(hb.basis_state(sp, "hi"), obs, ptr, g=g)


class TestCouple:
    def test_eigenstate_shift_recenters_pointer(self):
        sp, obs = two_level()
        ptr = pt.PointerWavefunction()
        joint = pt.couple(hb.basis_state(sp, "hi"), obs, ptr, 2.0)
        (mean,) = pt.pointer_mean(joint, hb.Operator.projector(sp, {}))
        assert mean == pytest.approx(2.0, abs=1e-9)

    def test_zero_coupling_is_exact_product(self):
        sp, obs = two_level()
        ptr = pt.PointerWavefunction(n_bins=101)
        system = hb.Ket(sp, np.array([1, 1j]) / SQ2)
        joint = pt.couple(system, obs, ptr, 0.0)
        expect = np.kron(system.amplitudes, pt._profile(ptr.n_bins, ptr.spacing))
        np.testing.assert_array_equal(joint.amplitudes, expect)

    def test_non_finite_ket_refused(self):
        # refused before the product, where inf * 0 would warn (an error
        # here); a zero ket still couples, to zero
        sp, obs = two_level()
        ptr = pt.PointerWavefunction()
        for amp in (np.nan, np.inf, 1e200):
            with pytest.raises(ZeroProbabilityBranch,
                               match="^cannot couple a ket of squared norm (nan|inf)$"):
                pt.couple(hb.Ket(sp, np.array([amp, 0.5])), obs, ptr, 0.1)
        assert not pt.couple(hb.Ket(sp, np.zeros(2)), obs, ptr, 0.1).amplitudes.any()

    def test_observable_off_the_leading_factors(self):
        sp, _ = two_level()
        joint = hb.basis_state(hb.space(("a", ["x", "y"]), ("sys", ["lo", "hi"])), "x", "hi")
        with pytest.raises(DimensionMismatch, match="^observable must act on the full "
                           "system space or its leading factors$"):
            pt.couple(joint, hb.Operator(sp, np.diag([0.0, 1.0])), pt.PointerWavefunction(), 0.1)

    def test_three_boxes_conditioned_mean_tracks_negative_weak_value(self):
        sp, pre, post, p3 = boxes_context()
        ptr = pt.PointerWavefunction()
        joint = pt.couple(pre, p3, ptr, 0.1)
        (mean,) = pt.pointer_mean(joint, hb.Operator.ket_projector(post))
        assert mean == pytest.approx(-0.1, abs=0.02)

    def test_norm_preserved_even_for_fractional_shifts(self):
        sp, pre, post, p3 = boxes_context()
        ptr = pt.PointerWavefunction()
        for g in (0.025, 0.037, 0.08):  # non-integer bin shifts included
            joint = pt.couple(pre, p3, ptr, g)
            assert abs(joint.norm() - 1.0) <= 1e-9

    def test_shift_out_of_grid(self):
        sp, obs = two_level()
        ptr = pt.PointerWavefunction(n_bins=41, spacing=0.25)  # extent 5
        with pytest.raises(ShiftOutOfGrid):
            pt.couple(hb.basis_state(sp, "hi"), obs, ptr, 6.0)

    def test_shift_below_grid_resolution(self):
        # spacing 0.05 and |lambda| = 1: the floor is g = 1e-5 * 0.05
        sp, obs = two_level()
        ptr = pt.PointerWavefunction()
        k = hb.basis_state(sp, "hi")
        for g in (1e-15, 1e-12, 4.9e-7):
            with pytest.raises(ShiftOutOfGrid, match="below what the grid resolves"):
                pt.couple(k, obs, ptr, g)
        assert pt.couple(k, obs, ptr, 1e-6).norm() == pytest.approx(1.0, abs=1e-12)
        exact = pt.couple(k, obs, ptr, 0.0)
        np.testing.assert_array_equal(exact.amplitudes.reshape(2, -1)[1],
                                      pt._profile(ptr.n_bins, ptr.spacing))

    def test_non_hermitian_rejected(self):
        sp, _ = two_level()
        bad = hb.Operator(sp, np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError):
            pt.couple(hb.basis_state(sp, "hi"), bad, pt.PointerWavefunction(), 0.1)

    def test_second_pointer_gets_fresh_factor_name(self):
        sp, pre, post, p3 = boxes_context()
        ptr = pt.PointerWavefunction(n_bins=21, spacing=0.5)
        joint = pt.couple(pre, p3, ptr, 0.1)
        joint2 = pt.couple(joint, p3, ptr, 0.1)
        names = [f.name for f in joint2.space.factors]
        assert names == ["box", "pointer", "pointer_2"]

    @pytest.mark.parametrize("g", [0.0, 0.05, 0.1, 0.13, 0.2])
    def test_three_path_chain_matches_reference_loop(self, g):
        got, _ = _three_path_chain(g)
        ref, _ = _three_path_chain(g, couple=_reference_couple)
        assert got.space == ref.space
        assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()

    @pytest.mark.parametrize("case", _couple_cases(), ids=lambda c: c[0])
    def test_joint_matches_reference_loop(self, case):
        _, system, obs, g, ptr, owner = case
        ptr = ptr or pt.PointerWavefunction()
        found, shifted, _ = pt._branch_table(obs, ptr, g)
        assert owner == tuple(found.tolist())
        if "bins" in case[0]:  # the premise: vacated bins hold exact zeros
            assert (shifted == 0).any()
        ref = _reference_couple(system, obs, ptr, g)
        got = pt.couple(system, obs, ptr, g)
        assert got.space == ref.space
        assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()
        # a second pointer on the joint: the observable's leading factors again
        ref2 = _reference_couple(ref, obs, ptr, g)
        got2 = pt.couple(ref, obs, ptr, g)
        assert got2.amplitudes.tobytes() == ref2.amplitudes.tobytes()

    def test_masks_couple_without_act(self, monkeypatch):
        # Diagonal masks take the one-product path: act is never called there
        def refuse(self, t):
            raise AssertionError("a mask projector was applied with act")

        contexts = [sc.sweep_context(name)
                    for name in ("three_boxes", "hardy", "three_path_photon")]
        monkeypatch.setattr(hb.Diagonal, "act", refuse)
        chain, chain_post = _three_path_chain(0.13)
        joints = [pt.couple(pre, obs, pt.PointerWavefunction(), 0.05)
                  for pre, obs, _ in contexts]
        monkeypatch.undo()
        ref_chain, _ = _three_path_chain(0.13, couple=_reference_couple)
        assert pt.pointer_mean(chain, chain_post) == pt.pointer_mean(ref_chain, chain_post)
        for joint, (pre, obs, post_proj) in zip(joints, contexts):
            ref = _reference_couple(pre, obs, pt.PointerWavefunction(), 0.05)
            assert pt.pointer_mean(joint, post_proj) == pt.pointer_mean(ref, post_proj)


class TestThreePathJointMemory:
    # the joint is 3 x 41^3 amplitudes (3.3 MB); each ket keeps the array its
    # producer computed, so building one allocates it about once

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_couple_and_apply_to_factors_allocate_the_joint_once(self):
        pre, _ = sc.three_boxes_selections("path")
        path = pre.space.factor("path")
        projs = [hb.Operator.projector(pre.space, {"path": lab}) for lab in path.labels]
        joint = pt.couple(pt.couple(pre, projs[0], sc.THREE_PATH_POINTER, 0.05),
                          projs[1], sc.THREE_PATH_POINTER, 0.05)
        joint, peak = self._peak(
            lambda: pt.couple(joint, projs[2], sc.THREE_PATH_POINTER, 0.05))
        assert joint.amplitudes.nbytes == 16 * 3 * 41 ** 3
        assert peak <= 1.25 * joint.amplitudes.nbytes
        merge = hb.mode_coupler(path, ("path2", "path3"), ("path2", "path3"),
                                block=hb.SPLIT_REAL)
        merged, peak = self._peak(lambda: hb.apply_to_factors(joint, merge, ["path"]))
        assert peak <= 1.25 * merged.amplitudes.nbytes


class TestPointerMean:
    def test_unconditioned_eigenstate_mean(self):
        sp = hb.space(("a", ["x", "y"]))
        obs = hb.Operator(sp, np.diag([0.0, 3.0]))
        ptr = pt.PointerWavefunction()
        joint = pt.couple(hb.basis_state(sp, "y"), obs, ptr, 1.0)
        (mean,) = pt.pointer_mean(joint, hb.Operator.projector(sp, {}))
        assert abs(mean - 3.0) <= ptr.spacing

    def test_hardy_pair_mean_over_g(self):
        sp = hb.space(("positron", ["O+", "NO+"]), ("electron", ["O-", "NO-"]))
        pre = hb.from_amplitudes(sp, {("O+", "NO-"): 1 / SQ3, ("NO+", "O-"): 1 / SQ3,
                                      ("NO+", "NO-"): 1 / SQ3})
        post = hb.from_amplitudes(sp, {("O+", "O-"): 0.5, ("O+", "NO-"): -0.5,
                                       ("NO+", "O-"): -0.5, ("NO+", "NO-"): 0.5})
        pair = hb.Operator.projector(sp, {"positron": "NO+", "electron": "NO-"})
        joint = pt.couple(pre, pair, pt.PointerWavefunction(), 0.05)
        (mean,) = pt.pointer_mean(joint, hb.Operator.ket_projector(post))
        assert -1.15 <= mean / 0.05 <= -0.85

    def test_three_boxes_positive_weak_value(self):
        sp, pre, post, _ = boxes_context()
        p1 = hb.Operator.projector(sp, {"box": "box1"})
        joint = pt.couple(pre, p1, pt.PointerWavefunction(), 0.05)
        (mean,) = pt.pointer_mean(joint, hb.Operator.ket_projector(post))
        assert 0.85 <= mean / 0.05 <= 1.15

    def test_zero_probability_post_selection(self):
        sp, obs = two_level()
        joint = pt.couple(hb.basis_state(sp, "hi"), obs,
                          pt.PointerWavefunction(), 0.1)
        with pytest.raises(ZeroProbabilityBranch):
            pt.pointer_mean(joint, hb.Operator.projector(sp, {"sys": "lo"}))

    def test_projector_must_cover_leading_factors(self):
        sp, obs = two_level()
        joint = pt.couple(hb.basis_state(sp, "hi"), obs,
                          pt.PointerWavefunction(), 0.1)
        other = hb.space(("zzz", ["a", "b"]))
        with pytest.raises(DimensionMismatch):
            pt.pointer_mean(joint, hb.Operator.projector(other, {}))

    def test_trailing_factors_must_all_be_pointers(self):
        # labels that parse as floats after two characters are still refused
        # unless they are exactly a centred pointer grid's labels
        for labels in (["u", "v"], ["n=0", "n=1"], ["ab1", "cd2"], ["u", "v", "w"],
                       ["x=0.0", "x=1.0", "x=2.0"]):
            sp = hb.space(("a", ["x", "y"]), ("b", labels))
            joint = pt.couple(hb.basis_state(sp, "y", labels[0]),
                              hb.Operator.projector(sp, {}),
                              pt.PointerWavefunction(), 0.1)
            with pytest.raises(ValueError, match="^factor 'b' is not a pointer factor$"):
                pt.pointer_mean(joint,
                                hb.Operator.projector(hb.space(("a", ["x", "y"])), {}))
            (mean,) = pt.pointer_mean(joint, hb.Operator.projector(sp, {}))
            assert mean == pytest.approx(0.1, abs=1e-12)

    def test_joint_without_pointer_refused(self):
        sp, _ = two_level()
        with pytest.raises(DimensionMismatch, match="^joint state has no pointer factor$"):
            pt.pointer_mean(hb.basis_state(sp, "hi"), hb.Operator.projector(sp, {}))

    def test_nan_or_inf_joint_refused(self):
        # a NaN or infinite probability is refused as a zero one is; a total
        # that overflows warns first, so that warning is silenced here
        sp, obs = two_level()
        whole = hb.Operator.projector(sp, {})
        # couple refuses a NaN ket, so the NaN joint is built on the joint space
        joint = pt.couple(hb.basis_state(sp, "hi"), obs, pt.PointerWavefunction(), 0.1)
        nan_joint = hb.Ket(joint.space, np.full(joint.space.dim, np.nan))
        with pytest.raises(ZeroProbabilityBranch, match="^post-selection probability nan"):
            pt.pointer_mean(nan_joint, whole)
        huge = hb.Ket(joint.space, np.full(joint.space.dim, 1e154))
        with np.errstate(over="ignore"):
            with pytest.raises(ZeroProbabilityBranch, match="^post-selection probability inf"):
                pt.pointer_mean(huge, whole)

    def test_non_projector_rejected(self):
        sp, obs = two_level()
        joint = pt.couple(hb.basis_state(sp, "hi"), obs,
                          pt.PointerWavefunction(), 0.1)
        for bad in (hb.Diagonal(sp, 5 * hb.Operator.projector(sp, {"sys": "hi"}).diagonal),
                    hb.Operator(sp, np.array([[0, 1], [0, 0]], dtype=complex)),
                    hb.flag_flip(sp, {}, "sys", "lo", "hi")):
            with pytest.raises(ValueError, match="is not a projector"):
                pt.pointer_mean(joint, bad)

    @pytest.mark.parametrize("option", ["recombine_all", "recombine_two"])
    @pytest.mark.parametrize("g", [0.0, 0.05, 0.13])
    def test_three_path_means_match_one_pointer_reference(self, monkeypatch, option, g):
        calls = []
        pointer_mean = pt.pointer_mean

        def recording(joint, post_proj):
            means = pointer_mean(joint, post_proj)
            calls.append((joint, post_proj, means))
            return means

        monkeypatch.setattr(pt, "pointer_mean", recording)
        sc.run_three_path_photon(option=option, g=g)
        assert len(calls) == {"recombine_all": 1, "recombine_two": 2}[option]
        for joint, post_proj, means in calls:
            assert len(means) == 3
            _assert_matches_reference(joint, post_proj, means)

    @pytest.mark.parametrize("name", ["three_boxes", "hardy", "three_path_photon"])
    def test_sweep_context_mean_matches_reference(self, name):
        pre, obs, post_proj = sc.sweep_context(name)
        joint = pt.couple(pre, obs, pt.PointerWavefunction(), 0.05)
        _assert_matches_reference(joint, post_proj, pt.pointer_mean(joint, post_proj))

    @pytest.mark.parametrize("n_bins,spacing,gs", [
        (801, 0.025, (0.1, 0.05)),
        # the default grid, which every --g-sweep row uses: g = 0.025 is half a bin
        pytest.param(401, 0.05, (0.05, 0.025), marks=pytest.mark.xfail(
            raises=AssertionError,
            reason="off-grid shift: _translate interpolates between bins (ROADMAP item 4)")),
    ], ids=["whole-bins", "default-grid"])
    def test_weak_limit_error_halves_quadratically(self, n_bins, spacing, gs):
        # halving g must shrink the error at least 2.5x
        ptr = pt.PointerWavefunction(n_bins=n_bins, spacing=spacing)
        sp, pre, post, p3 = boxes_context()
        post_proj = hb.Operator.ket_projector(post)
        errs = []
        for g in gs:
            joint = pt.couple(pre, p3, ptr, g)
            (mean,) = pt.pointer_mean(joint, post_proj)
            errs.append(abs(mean / g - (-1.0)))
        assert errs[0] / errs[1] >= 2.5

    @pytest.mark.parametrize("g", [
        0.05, 0.1, 0.2,
        *(pytest.param(g, marks=pytest.mark.xfail(
            raises=AssertionError,
            reason="off-grid shift: _translate interpolates between bins"))
          for g in (0.01, 0.03, 0.07)),
    ])
    def test_mean_matches_continuum_closed_form(self, g):
        # pointer psi(x) = b phi(x) + a phi(x - g) after post-selection, with
        # a = <post|P3|pre> and b = <post|pre> - a; for the Gaussian phi of
        # width sigma, with e = exp(-g^2 / 8 sigma^2),
        # <x> = (|a|^2 g + Re(a b*) g e) / (|a|^2 + |b|^2 + 2 Re(a b*) e)
        ptr = pt.PointerWavefunction()
        _, pre, post, p3 = boxes_context()
        a = np.vdot(post.amplitudes, p3.act(pre.amplitudes))
        b = np.vdot(post.amplitudes, pre.amplitudes) - a
        e = np.exp(-g ** 2 / (8 * pt.SIGMA ** 2))
        cross = (a * np.conj(b)).real
        exact = (abs(a) ** 2 + cross * e) / (abs(a) ** 2 + abs(b) ** 2 + 2 * cross * e)
        joint = pt.couple(pre, p3, ptr, g)
        (mean,) = pt.pointer_mean(joint, hb.Operator.ket_projector(post))
        assert abs(mean / g - exact) <= 1e-12

    @staticmethod
    def _signed_zero_joint():
        """A three-box joint on a 9-bin pointer with -0.0 real and imaginary
        parts and an all-zero box1 row."""
        ptr = pt.PointerWavefunction(n_bins=9, spacing=0.25)
        system = hb.space(("box", ["box1", "box2", "box3"]))
        sp = hb.Space(system.factors + (ptr.factor(),))
        rng = np.random.default_rng(5)
        amps = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
        amps.real[::3] = -0.0
        amps.imag[1::4] = -0.0
        amps[:9] = complex(-0.0, -0.0)
        return system, hb.Ket(sp, amps)

    @pytest.mark.parametrize("diagonal", [[1.0, 0.0, 1.0], [0.0, 1.0, -0.0], [1, 1, 1]],
                             ids=["zero-row", "signed-zero-rows", "int-ones"])
    def test_label_projector_mask_keeps_the_projected_bits(self, monkeypatch, diagonal):
        # mask * |t|, squared, against |P t|^2 with P acting on the joint
        system, joint = self._signed_zero_joint()
        proj = hb.Diagonal(system, np.array(diagonal))
        assert pt._mask(proj) is proj.diagonal
        masked = pt.pointer_mean(joint, proj)
        monkeypatch.setattr(pt, "_mask", lambda projector: None)
        assert np.array(masked).tobytes() == np.array(pt.pointer_mean(joint, proj)).tobytes()

    @pytest.mark.parametrize("diagonal", [[1 + 1e-13, 0.0, 1.0],
                                          np.array([1.0, 0.0, 1.0], dtype=complex)],
                             ids=["near-one", "complex"])
    def test_other_projectors_act_on_the_joint(self, monkeypatch, diagonal):
        system, joint = self._signed_zero_joint()
        proj = hb.Diagonal(system, np.array(diagonal))
        assert proj.is_projector() and pt._mask(proj) is None
        act, acted = hb.Diagonal.act, []
        monkeypatch.setattr(hb.Diagonal, "act", lambda op, t: acted.append(op) or act(op, t))
        pt.pointer_mean(joint, proj)
        assert acted == [proj]

    def test_masks_are_label_projectors_alone(self):
        system, _ = self._signed_zero_joint()
        assert pt._mask(hb.Operator.projector(system, {"box": ["box1", "box3"]})) is not None
        assert pt._mask(hb.Operator.projector(system, {})) is not None
        assert pt._mask(hb.Operator(system, np.eye(3))) is None
        assert pt._mask(hb.Diagonal(system, np.array([1.0, 0.5, 0.0]))) is None

    def test_strong_limit_multimodal_weights_match_born(self):
        # separation 30 = 30 sigma: sample pointer readouts, classify by mode
        rng = np.random.default_rng(17)
        sp, obs = two_level()
        amps = np.array([0.8, 0.6], dtype=complex)
        system = hb.Ket(sp, amps)
        ptr = pt.PointerWavefunction(n_bins=1601, spacing=0.05)  # extent 40
        joint = pt.couple(system, obs, ptr, 30.0)
        t = np.abs(joint.amplitudes.reshape(sp.dim, -1)) ** 2
        pmf = t.sum(axis=0)
        pmf /= pmf.sum()
        xs = ptr.positions
        draws = rng.choice(xs, size=10_000, p=pmf)
        hi_fraction = float(np.mean(draws > 15.0))
        assert hi_fraction == pytest.approx(0.36, abs=0.03)


class TestStrongMeasure:
    def test_eigenstate_is_certain(self):
        sp, obs = two_level()
        for seed in range(5):
            lam, collapsed = pt.strong_measure(hb.basis_state(sp, "hi"), obs, seed)
            assert lam == 1.0
            assert collapsed.amplitude(("hi",)) == pytest.approx(1.0, abs=1e-14)

    def test_split_pair_positron_statistics(self):
        # product of two 50/50 splits: the positron path observable clicks
        # "near arm" half the time (Born oracle: |1/2|^2 * 2 branches = 0.5)
        sp = hb.space(("electron", ["1'", "1''"]), ("positron", ["2'", "2''"]))
        state = hb.Ket(sp, np.full(4, 0.5))
        near = hb.Operator.projector(sp, {"positron": "2'"})
        hits = sum(pt.strong_measure(state, near, seed)[0] for seed in range(10_000))
        assert hits / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_silent_final_electron_statistics(self):
        # electron back in (|1'> + |1''>)/sqrt2: each path half the time
        sp = hb.space(("electron", ["1'", "1''"]), ("positron", ["2'", "2''"]))
        state = hb.from_amplitudes(sp, {("1'", "2''"): 1 / SQ2, ("1''", "2''"): 1 / SQ2})
        which = hb.Operator.projector(sp, {"electron": "1'"})
        hits = sum(pt.strong_measure(state, which, 50_000 + s)[0] for s in range(10_000))
        assert hits / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_observable_on_another_space(self):
        sp, _ = two_level()
        other = hb.Operator(hb.space(("zzz", ["a", "b"])), np.diag([0.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            pt.strong_measure(hb.basis_state(sp, "hi"), other, 1)

    def test_zero_or_nan_ket_refused(self):
        # refused before the draw, with no numpy warning (warnings are errors here)
        sp, obs = two_level()
        for amps in ([0.0, 0.0], [np.nan, 0.0]):
            with pytest.raises(ZeroProbabilityBranch, match="^cannot draw outcomes"):
                pt.strong_measure(hb.Ket(sp, amps), obs, 1)

    @pytest.mark.parametrize("amps", SUBNORMAL_KETS, ids=str)
    def test_subnormal_norm_collapses_as_its_normal_scale(self, amps):
        # scaled by an exact power of two before the draw, the ket collapses
        # to unit norm with the bytes of the same ket at a normal scale
        sp, obs = two_level()
        tiny, normal = hb.Ket(sp, amps), normal_scale(sp, amps)
        for seed in range(20):
            lam, collapsed = pt.strong_measure(tiny, obs, seed)
            ref_lam, ref = pt.strong_measure(normal, obs, seed)
            assert lam == ref_lam
            assert collapsed.amplitudes.tobytes() == ref.amplitudes.tobytes()
            assert collapsed.norm() == pytest.approx(1.0, abs=1e-15)

    def test_collapse_renormalizes(self):
        sp, obs = two_level()
        system = hb.Ket(sp, np.array([0.6, 0.8]))
        lam, collapsed = pt.strong_measure(system, obs, 3)
        assert collapsed.norm() == pytest.approx(1.0, abs=1e-12)
        assert lam in (0.0, 1.0)

    @pytest.mark.parametrize("case", _sequence_cases() + _random_measure_cases(),
                             ids=lambda c: c[0])
    def test_bit_identical_to_reference(self, case):
        # eigenvalue and collapsed-state bytes as the numpy sampler drew them
        system, obs = case[1:3]
        for seed in range(500):
            lam, collapsed = pt.strong_measure(system, obs, seed)
            ref_lam, ref = _reference_strong_measure(system, obs, seed)
            assert lam == ref_lam
            assert collapsed.amplitudes.tobytes() == ref.amplitudes.tobytes()

    def test_one_branch_draw(self, monkeypatch):
        # the collapse and every step of the walk draw with the same sampler
        sp, obs = two_level()
        system = hb.Ket(sp, np.array([0.6, 0.8]))
        draws = []
        draw_branch = pt._draw_branch

        def recording(owner, amps, n, draw):
            draws.append(draw)
            return draw_branch(owner, amps, n, draw)

        monkeypatch.setattr(pt, "_draw_branch", recording)
        pt.strong_measure(system, obs, 3)
        assert draws == [np.random.default_rng(3).random()]
        pt.weak_sequence(system, obs, 0.2, 7, 3)
        assert draws[1:] == np.random.default_rng(3).random((7, 2))[:, 0].tolist()

    def test_draw_never_picks_a_zero_weight_branch(self):
        # the first cumulative weight > draw * total: at draw 0.0, and at a
        # draw landing exactly on a cumulative weight, a branch of weight 0
        # is skipped
        assert pt._draw_branch((0, 1), [0j, 1 + 0j], 2, 0.0) == 1
        owner, amps = (0, 1, 2, 3), [0j, 1 + 0j, 0j, 1 + 0j]
        assert [pt._draw_branch(owner, amps, 4, d) for d in (0.0, 0.25, 0.5, 0.75)] \
            == [1, 1, 3, 3]
        assert pt._draw_branch((1, 0), [1 + 0j, 0j], 2, 0.0) == 1

    def test_subnormal_norm_collapses_onto_its_weight(self):
        # every draw over 0.75 reads draw * total as total; the collapse must
        # still land on the branch that holds the weight, with no 0/0
        sp, obs = two_level()
        system = hb.Ket(sp, np.array([3e-162, 0.0]))
        seeds = [s for s in range(40) if np.random.default_rng(s).random() > 0.75]
        assert seeds
        for seed in seeds:
            lam, collapsed = pt.strong_measure(system, obs, seed)
            assert lam == 0.0 and collapsed.amplitudes[1] == 0


class TestWeakSequence:
    def test_eigenstate_untouched(self):
        sp, obs = two_level()
        traj = pt.weak_sequence(hb.basis_state(sp, "hi"), obs, 0.3, 50, 9)
        np.testing.assert_allclose(np.abs(traj.final_state.amplitudes), [0, 1],
                                   atol=1e-12)
        assert len(traj.readouts) == 50

    def test_seeded_determinism(self):
        sp, obs = two_level()
        system = hb.Ket(sp, np.array([1, 1]) / SQ2)
        a = pt.weak_sequence(system, obs, 0.2, 120, 77)
        b = pt.weak_sequence(system, obs, 0.2, 120, 77)
        np.testing.assert_array_equal(a.readouts, b.readouts)
        np.testing.assert_array_equal(a.final_state.amplitudes,
                                      b.final_state.amplitudes)
        c = pt.weak_sequence(system, obs, 0.2, 120, 78)
        assert not np.array_equal(a.readouts, c.readouts)

    def test_step_matches_explicit_couple_and_kraus(self):
        # one step of the sequence is exactly: couple, sample a bin from the
        # joint distribution, project the pointer onto it, renormalize
        sp, obs = two_level()
        system = hb.Ket(sp, np.array([0.6, 0.8]))
        ptr = pt.PointerWavefunction(n_bins=41, spacing=0.25)
        g = 0.2
        traj = pt.weak_sequence(system, obs, g, 1, 5, ptr=ptr)
        bin_idx = int(np.where(ptr.positions == traj.readouts[0])[0][0])
        joint = pt.couple(system, obs, ptr, g)
        t = joint.amplitudes.reshape(sp.dim, ptr.n_bins)
        kraus = t[:, bin_idx]
        kraus = kraus / np.linalg.norm(kraus)
        np.testing.assert_allclose(traj.final_state.amplitudes, kraus, atol=1e-12)

    def test_born_rule_collapse_frequencies(self):
        sp, obs = two_level()
        system = hb.Ket(sp, np.array([1, 1]) / SQ2)
        wins = 0
        n = 250
        for seed in range(n):
            traj = pt.weak_sequence(system, obs, 0.2, 400, 1000 + seed)
            weights = np.abs(traj.final_state.amplitudes) ** 2
            wins += int(np.argmax(weights) == 0)
        assert wins / n == pytest.approx(0.5, abs=0.09)

    def test_zero_or_nan_ket_refused(self):
        sp, obs = two_level()
        for amps in ([0.0, 0.0], [np.nan, 0.0]):
            with pytest.raises(ZeroProbabilityBranch, match="^cannot draw outcomes"):
                pt.weak_sequence(hb.Ket(sp, amps), obs, 0.2, 3, 1)

    @pytest.mark.parametrize("amps", SUBNORMAL_KETS, ids=str)
    def test_subnormal_norm_walks_as_its_normal_scale(self, amps):
        # no 0/0 on the first Kraus step: the walk is the normal-scale ket's
        sp, obs = two_level()
        tiny, normal = hb.Ket(sp, amps), normal_scale(sp, amps)
        for seed in range(20):
            traj = pt.weak_sequence(tiny, obs, 0.2, 50, seed)
            ref = pt.weak_sequence(normal, obs, 0.2, 50, seed)
            assert traj.readouts.tobytes() == ref.readouts.tobytes()
            assert traj.final_state.amplitudes.tobytes() == ref.final_state.amplitudes.tobytes()
            assert traj.final_state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_steps_validation(self):
        sp, obs = two_level()
        with pytest.raises(ValueError):
            pt.weak_sequence(hb.basis_state(sp, "hi"), obs, 0.1, 0, 1)
        # a float or a bool step count is refused before numpy reads it
        for steps in (2.5, True, "3"):
            with pytest.raises(ValueError, match=f"^steps must be an int >= 1, "
                                                 f"got {re.escape(repr(steps))}$"):
                pt.weak_sequence(hb.basis_state(sp, "hi"), obs, 0.1, steps, 1)

    def test_shift_out_of_grid(self):
        sp, obs = two_level()
        ptr = pt.PointerWavefunction(n_bins=11, spacing=0.1)
        with pytest.raises(ShiftOutOfGrid):
            pt.weak_sequence(hb.basis_state(sp, "hi"), obs, 10.0, 5, 1, ptr=ptr)

    def test_shift_below_grid_resolution(self):
        sp, obs = two_level()
        with pytest.raises(ShiftOutOfGrid, match="below what the grid resolves"):
            pt.weak_sequence(hb.basis_state(sp, "hi"), obs, 1e-12, 5, 1)

    def test_observable_on_another_space(self):
        sp, _ = two_level()
        other = hb.Operator(hb.space(("zzz", ["a", "b"])), np.diag([0.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            pt.weak_sequence(hb.basis_state(sp, "hi"), other, 0.1, 5, 1)

    @pytest.mark.parametrize("case", _sequence_cases(), ids=lambda c: c[0])
    def test_bit_identical_to_reference_loop(self, case):
        _, system, obs, g, ptr = case
        for seed in range(50):
            traj = pt.weak_sequence(system, obs, g, 400, seed, ptr=ptr)
            readouts, psi = _reference_weak_sequence(system, obs, g, 400, seed,
                                                    ptr=ptr)
            assert traj.readouts.tobytes() == readouts.tobytes()
            assert traj.final_state.amplitudes.tobytes() == psi.tobytes()

    def test_sampler_scales_each_draw_by_its_cdf_total(self, monkeypatch):
        # profiles times 2 and cdfs times 4 leave the sampler's law and every
        # rounding as they are (powers of two scale exactly), so readouts and
        # final states must not move; a sampler that drops "* cdf[-1]" would
        # draw every bin from the first quarter of its cdf
        shifted = pt._shifted

        def scaled(*key):
            rows, cdfs = shifted(*key)
            return rows * 2.0, tuple(tuple(4.0 * c for c in cdf) for cdf in cdfs)

        for _, system, obs, g, ptr in _sequence_cases():
            want = [pt.weak_sequence(system, obs, g, 400, seed, ptr=ptr) for seed in range(20)]
            monkeypatch.setattr(pt, "_shifted", scaled)
            got = [pt.weak_sequence(system, obs, g, 400, seed, ptr=ptr) for seed in range(20)]
            monkeypatch.undo()
            for a, b in zip(got, want):
                assert a.readouts.tobytes() == b.readouts.tobytes()
                assert a.final_state.amplitudes.tobytes() == b.final_state.amplitudes.tobytes()

    def test_bin_draw_of_zero_skips_empty_bins(self, monkeypatch):
        # on the default grid at g = 0.2 the branch rows of diag(0, 1) start
        # with 0 and 4 bins of zero weight; a first bin draw of 0.0 reads the
        # first bin of nonzero weight, never a zero one whose Kraus factor
        # would leave a 0/0 state (warnings are errors here)
        sp, obs = two_level()
        system = hb.Ket(sp, np.array([0.0, 1.0]))
        ptr = pt.PointerWavefunction()
        _, _, cdfs = pt._branch_table(obs, ptr, 0.2)
        first = next(i for i, c in enumerate(cdfs[1]) if c > 0)
        assert first == 4
        default_rng = np.random.default_rng

        def first_draws_zero(seed):
            rng = default_rng(seed)

            class Stub:
                def random(self, shape):
                    draws = rng.random(shape)
                    draws[0] = 0.0
                    return draws
            return Stub()

        monkeypatch.setattr(np.random, "default_rng", first_draws_zero)
        traj = pt.weak_sequence(system, obs, 0.2, 5, 1, ptr=ptr)
        monkeypatch.undo()
        assert traj.readouts[0] == ptr.positions[first]
        assert traj.final_state.amplitudes.tolist() == [0j, 1 + 0j]

    def test_diagonal_observables_take_the_mask_path(self, monkeypatch):
        # criterion 7's observables, dense as perfbench sends them, and a label
        # projector give owner maps; coupling, walk and collapse build no
        # Diagonal and make none dense
        sp2 = hb.space(("sys", ["1", "2"]))
        sp3 = hb.space(("box", ["box1", "box2", "box3"]))
        cases = {case[0]: case[1:] for case in _sequence_cases()}
        expect = [
            (hb.Ket(sp2, np.array([1, 1]) / SQ2), hb.Operator(sp2, np.diag([1.0, 2.0])),
             (0, 1)),
            (hb.Ket(sp3, np.ones(3) / SQ3), hb.Operator(sp3, np.diag([1.0, 2.0, 3.0])),
             (0, 1, 2)),
            (cases["degenerate"][0], cases["degenerate"][1], (0, 0, 1)),
            (cases["label-projector"][0], cases["label-projector"][1], (1, 0, 1)),
        ]
        seen = []
        eigenbranches = pt.eigenbranches

        def recording(observable):
            seen.append(eigenbranches(observable))
            return seen[-1]

        def no_matrix(self):
            raise AssertionError("a Diagonal projector was made dense")

        def no_mask(self, *args, **kwargs):
            raise AssertionError("a pointer path built a Diagonal")

        monkeypatch.setattr(pt, "eigenbranches", recording)
        monkeypatch.setattr(hb.Diagonal, "matrix", property(no_matrix))
        monkeypatch.setattr(hb.Diagonal, "__init__", no_mask)
        for system, obs, owner in expect:
            seen.clear()
            pt.weak_sequence(system, obs, 0.2, 3, 1)
            ((_, found),) = seen
            assert tuple(found.tolist()) == owner
            pt.couple(system, obs, pt.PointerWavefunction(), 0.2)
            pt.strong_measure(system, obs, 1)
            # resolved once per observable; couple and strong_measure reuse it
            assert len(seen) == 1

    def test_cached_tables_are_read_only_and_unchanged(self):
        sp3 = hb.space(("box", ["box1", "box2", "box3"]))
        system = hb.Ket(sp3, np.array([0.6, 0.48j, -0.64]))
        ptr = pt.PointerWavefunction()
        for obs in (hb.Operator(sp3, np.diag([1.0, 2.0, 3.0])),
                    hb.Operator(sp3, np.diag([1.0, 1.0, 2.0]))):
            _, rows, cdfs = pt._branch_table(obs, ptr, 0.2)
            before = (rows.tobytes(), cdfs)
            assert not rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 0.0
            assert isinstance(cdfs, tuple) and all(isinstance(c, tuple) for c in cdfs)
            pt.weak_sequence(system, obs, 0.2, 400, 5, ptr=ptr)
            pt.couple(system, obs, ptr, 0.2)
            # later calls share the same objects, bytes untouched
            _, later_rows, later_cdfs = pt._branch_table(obs, ptr, 0.2)
            assert later_rows is rows and later_cdfs is cdfs
            assert (rows.tobytes(), cdfs) == before


class TestBranchTable:
    """One weak-measurement step is a proper measurement, checked exactly by
    enumerating the bins of each branch table (no sampling): the Kraus set is
    complete, the sampler's bin law is the Born law, and on a diagonal
    observable each population is a martingale. Companion to criterion 7."""

    SP3 = hb.space(("box", ["box1", "box2", "box3"]))
    PSI = np.array([0.6, 0.48j, -0.64])  # unit norm

    @pytest.mark.parametrize("grid", [(401, 0.05), (41, 0.25), (801, 0.025)])
    @pytest.mark.parametrize("g", [0.025, 0.05, 0.13, 0.2])
    @pytest.mark.parametrize("obs", [
        hb.Operator(SP3, np.diag([1.0, 2.0, 3.0])),
        hb.Operator(SP3, np.diag([1.0, 1.0, 2.0])),
        hb.Operator.projector(SP3, {"box": ["box1", "box3"]}),
    ], ids=["diag123", "diag112", "label-projector"])
    def test_step_is_a_complete_measurement(self, grid, g, obs):
        ptr = pt.PointerWavefunction(*grid)
        owner, rows, cdfs = pt._branch_table(obs, ptr, g)
        cdfs = np.array(cdfs)
        born = np.abs(rows) ** 2  # born[b, x] = |phi_b(x)|^2
        # Kraus completeness: each branch's pointer profile has unit norm
        np.testing.assert_allclose(born.sum(axis=1), 1.0, rtol=0, atol=1e-14)
        # the sampler draws branch b with weight w_b, then bin x from the cdf
        # differences of row b over its last entry
        w = np.array([np.sum(np.abs(p.act(self.PSI)) ** 2) for p in _masks(obs, owner)])
        pmf = np.diff(cdfs, axis=1, prepend=0.0) / cdfs[:, -1:]
        law = w @ pmf / w.sum()
        np.testing.assert_allclose(law, w @ born / w.sum(), rtol=0, atol=1e-14)
        # martingale: bin x leaves phi_owner(i)(x) psi_i, renormalised; the
        # populations' expectation over the sampler's law is the start's
        kraus = rows[owner].T * self.PSI  # kraus[x, i]
        norm_sq = (np.abs(kraus) ** 2).sum(axis=1)
        hit = norm_sq > 0
        after = law[hit] @ ((np.abs(kraus[hit]) ** 2) / norm_sq[hit, None])
        np.testing.assert_allclose(after, np.abs(self.PSI) ** 2, rtol=0, atol=1e-14)


def _eigenbranch_cases():
    """(id, observable) pairs: diagonal ones in both forms, degenerate and
    clustering levels, signed zeros, a complex Diagonal as dsl.evaluate builds
    from complex coefficients, bool and float32 Diagonals, the sweep and
    three-path label projectors."""
    sp2 = hb.space(("sys", ["1", "2"]))
    sp3 = hb.space(("box", ["box1", "box2", "box3"]))
    out = []
    for sp, diag in ((sp2, [1.0, 2.0]), (sp3, [1.0, 2.0, 3.0])):
        out += [(f"dense-diag{len(diag)}", hb.Operator(sp, np.diag(diag))),
                (f"Diagonal-diag{len(diag)}", hb.Diagonal(sp, np.array(diag)))]
    out += [
        ("degenerate", hb.Operator(sp3, np.diag([1.0, 1.0, 2.0]))),
        ("near-degenerate", hb.Diagonal(sp3, np.array([1.0, 1.0 + 5e-9, 2.0]))),
        ("negative", hb.Diagonal(sp3, np.array([-2.5, 0.0, -1e-3]))),
        ("negative-zero", hb.Diagonal(sp3, np.array([-0.0, 1.0, -0.0]))),
        ("lone-negative-zero", hb.Operator(sp2, np.diag([-0.0, 1.0]))),
        ("complex-Diagonal", hb.Diagonal(sp3, np.array([1.0 + 1e-11j, -0.5 - 1e-11j,
                                                         1.0 - 1e-11j]))),
        # read as their complex .matrix is: a bool mask, and float32 levels
        # whose mean differs in float32 arithmetic
        ("bool-Diagonal", hb.Diagonal(sp3, np.array([True, False, True]))),
        ("float32-Diagonal", hb.Diagonal(sp3, np.full(3, 0.9, dtype=np.float32))),
    ]
    out += [(f"sweep-{name}", sc.sweep_context(name)[1])
            for name in ("three_boxes", "hardy", "three_path_photon")]
    pre, _ = sc.three_boxes_selections("path")
    out += [(f"three-path-{lab}", hb.Operator.projector(pre.space, {"path": lab}))
            for lab in pre.space.factor("path").labels]
    return out


class TestEigenbranches:
    @pytest.mark.parametrize("case", _eigenbranch_cases(), ids=lambda c: c[0])
    def test_matches_dense_reference(self, case):
        # bit-equal eigenvalues (the _shifted cache key) and equal projectors:
        # each mask owner == k is the reference projector's diagonal, and its
        # off-diagonal entries are exact zeros
        _, obs = case
        lams, owner = pt.eigenbranches(obs)
        ref_lams, ref_projs = _reference_eigenbranches(obs)
        assert lams.tobytes() == ref_lams.tobytes()
        assert owner.dtype == np.intp and not owner.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            lams[0] = 0.0
        assert owner.max() + 1 == len(ref_projs)
        for k, ref in enumerate(ref_projs):
            assert np.array_equal(np.diag(owner == k), ref)

    def test_diagonal_costs_order_d(self, monkeypatch):
        # d = 2048 with three levels: masks, with no dense matrix and no eigh
        sp = hb.space(*((f"q{i}", ["0", "1"]) for i in range(11)))
        diag = np.random.default_rng(3).choice([-1.5, 0.25, 2.0], size=sp.dim)

        def refuse(*args, **kwargs):
            raise AssertionError("dense work on a diagonal observable")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(hb.Diagonal, "matrix", property(refuse))
        lams, owner = pt.eigenbranches(hb.Diagonal(sp, diag))
        assert lams.tolist() == [-1.5, 0.25, 2.0]
        for k, lam in enumerate(lams):
            assert np.array_equal(owner == k, diag == lam)

    def test_degenerate_levels_merge(self):
        sp = hb.space(("a", ["x", "y", "z"]))
        obs = hb.Operator(sp, np.diag([1.0, 1.0, 2.0]))
        lams, owner = pt.eigenbranches(obs)
        assert list(lams) == [1.0, 2.0]
        assert owner.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("make", [
        lambda sp: hb.Operator(sp, np.diag([np.nan, 1.0])),
        lambda sp: hb.Operator(sp, np.array([[1, np.nan], [np.nan, 2]])),
        lambda sp: hb.Operator(sp, np.diag([np.inf, 1.0])),
        lambda sp: hb.Diagonal(sp, np.array([np.nan, 1.0])),
    ], ids=["nan-diagonal", "nan-off-diagonal", "inf", "nan-Diagonal"])
    def test_non_finite_observable_refused(self, make):
        # NaN passes a max|M - M^dagger| test, and inf - inf warns; both are
        # refused first, at every entry point (warnings are errors here)
        sp = hb.space(("a", ["x", "y"]))
        obs = make(sp)
        ket = hb.Ket(sp, np.array([0.6, 0.8]))
        msg = f"^observable {re.escape(repr(obs))} has a non-finite entry$"
        calls = [lambda: pt.eigenbranches(obs),
                 lambda: pt.strong_measure(ket, obs, 1),
                 lambda: pt.weak_sequence(ket, obs, 0.2, 5, 1),
                 lambda: pt.couple(ket, obs, pt.PointerWavefunction(), 0.2)]
        for call in calls:
            with pytest.raises(ValueError, match=msg):
                call()

    def test_complex_diagonal_not_hermitian_refused(self):
        # an imaginary part of 6e-11 puts max|v - v*| at 1.2e-10, over the tolerance
        sp = hb.space(("a", ["x", "y"]))
        obs = hb.Diagonal(sp, np.array([1.0 + 6e-11j, 2.0]))
        ket = hb.Ket(sp, np.array([0.6, 0.8]))
        calls = [lambda: pt.eigenbranches(obs),
                 lambda: pt.strong_measure(ket, obs, 1),
                 lambda: pt.weak_sequence(ket, obs, 0.2, 5, 1),
                 lambda: pt.couple(ket, obs, pt.PointerWavefunction(), 0.2)]
        for call in calls:
            with pytest.raises(ValueError, match="^observable is not Hermitian to 1e-10$"):
                call()

    def test_non_diagonal_observable(self):
        # sigma-x is refused as it stands; rotated by its eigenvectors U it is
        # diag(1, -1), whose branches U Q_b U^dagger are sigma-x's own projectors
        sp = hb.space(("a", ["x", "y"]))
        obs = hb.Operator(sp, np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(ValueError,
                           match="^observable is not diagonal in the product basis$"):
            pt.eigenbranches(obs)
        u = hb.SPLIT_REAL
        lams, owner = pt.eigenbranches(hb.Diagonal(sp, np.array([1.0, -1.0])))
        np.testing.assert_allclose(lams, [-1.0, 1.0], atol=1e-12)
        rotated = [u @ np.diag(owner == k) @ u.conj().T for k in range(len(lams))]
        np.testing.assert_allclose(rotated[0] + rotated[1], np.eye(2), atol=1e-12)
        for lam, proj in zip(lams, rotated):
            np.testing.assert_allclose(obs.matrix @ proj, lam * proj, atol=1e-12)

    @pytest.mark.parametrize("swap", [False, True], ids=["identity", "label_swap"])
    def test_permutation_refused_by_its_form(self, swap):
        # refused by its type, before its d x d complex matrix (64 MiB here) is built
        sp = hb.space(("a", [f"s{i}" for i in range(2048)]))
        obs = (hb.label_swap(sp, ["a"], ["s0"], ["s1"]) if swap
               else hb.Permutation(sp, np.arange(sp.dim)))
        ket = hb.Ket(sp, np.ones(sp.dim) / np.sqrt(sp.dim))
        calls = [lambda: pt.eigenbranches(obs),
                 lambda: pt.strong_measure(ket, obs, 1),
                 lambda: pt.weak_sequence(ket, obs, 0.2, 5, 1),
                 lambda: pt.couple(ket, obs, pt.PointerWavefunction(), 0.2)]
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="^observable is a Permutation; a pointer "
                                   "couples only to a Diagonal or a dense Operator$"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20

    @pytest.mark.parametrize("case", _non_diagonal_cases(), ids=lambda c: c[0])
    def test_non_diagonal_observable_refused(self, case):
        # after the finiteness and Hermiticity checks, at every entry point
        _, obs, _, _ = case
        ket = hb.Ket(obs.space, np.ones(obs.space.dim) / np.sqrt(obs.space.dim))
        calls = [lambda: pt.eigenbranches(obs),
                 lambda: pt.strong_measure(ket, obs, 1),
                 lambda: pt.weak_sequence(ket, obs, 0.2, 5, 1),
                 lambda: pt.couple(ket, obs, pt.PointerWavefunction(), 0.2)]
        for call in calls:
            with pytest.raises(ValueError,
                               match="^observable is not diagonal in the product basis$"):
                call()


def _refused_observables():
    """(id, observable) pairs every pointer entry point refuses: a
    Permutation, a non-Hermitian, a non-diagonal and a non-finite one."""
    sp = hb.space(("a", ["x", "y"]))
    return [
        ("Permutation", hb.Permutation(sp, np.array([1, 0]))),
        ("non-Hermitian", hb.Operator(sp, np.array([[1, 1], [0, 2]]))),
        ("non-diagonal", hb.Operator(sp, np.array([[0, 1], [1, 0]]))),
        ("non-finite", hb.Diagonal(sp, np.array([np.nan, 1.0]))),
    ]


class TestLevelsMemo:
    """Each observable's levels are resolved once per operator object and
    shared by couple, weak_sequence and strong_measure."""

    def test_memo_keeps_no_operator_alive(self):
        sp, obs = two_level()
        system = hb.Ket(sp, np.array([0.6, 0.8]))
        pt.strong_measure(system, obs, 1)
        pt.weak_sequence(system, obs, 0.2, 3, 1)
        pt.couple(system, obs, pt.PointerWavefunction(), 0.2)
        assert obs in pt._LEVELS
        gone = weakref.ref(obs)
        del obs
        gc.collect()
        assert gone() is None

    @pytest.mark.parametrize("case", _refused_observables(), ids=lambda c: c[0])
    def test_refusal_is_never_memoised(self, case):
        _, obs = case
        ket = hb.Ket(obs.space, np.array([0.6, 0.8]))
        calls = [lambda: pt.strong_measure(ket, obs, 1),
                 lambda: pt.weak_sequence(ket, obs, 0.2, 5, 1),
                 lambda: pt.couple(ket, obs, pt.PointerWavefunction(), 0.2)]
        for call in calls * 2:
            with pytest.raises(ValueError, match="^observable "):
                call()
        assert obs not in pt._LEVELS

    def test_alternating_observables_stay_bit_identical(self):
        # two observables on one space, with different level counts, take
        # turns seed by seed: an entry served for the wrong one would show
        sp3 = hb.space(("box", ["box1", "box2", "box3"]))
        system = hb.Ket(sp3, np.array([0.6, 0.48j, -0.64]))
        observables = (hb.Operator(sp3, np.diag([1.0, 2.0, 3.0])),
                       hb.Diagonal(sp3, np.array([2.0, -1.0, 2.0])))
        for seed in range(400):
            obs = observables[seed % 2]
            lam, collapsed = pt.strong_measure(system, obs, seed)
            ref_lam, ref = _reference_strong_measure(system, obs, seed)
            assert lam == ref_lam
            assert collapsed.amplitudes.tobytes() == ref.amplitudes.tobytes()


class TestRotatedObservable:
    """The README's recipe for an observable A = U diag(lams) U^dagger that is
    not diagonal: rotate pre and post by U^dagger and couple diag(lams). Since
    <post|U Q_b U^dagger|pre> = <post|P_b|pre>, the pointer reads what a dense
    coupling to A's own projectors reads, and mean/g tends to Re A_w."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", _non_diagonal_cases(), ids=lambda c: c[0])
    def test_rotated_coupling_matches_dense_coupling(self, case, seed):
        _, obs, u, lams = case
        sp = obs.space
        names = [f.name for f in sp.factors]
        pre, post = _random_pair(sp, seed)
        pre_u, post_u = (hb.apply_to_factors(k, u.conj().T, names) for k in (pre, post))
        want = tsvf.weak_value(tsvf.TwoStateVector(pre, post), obs).real
        ref_lams, ref_projs = _reference_eigenbranches(obs)
        ptr = pt.PointerWavefunction(n_bins=801, spacing=0.025)  # criterion 6's grid
        errs = []
        for g in (0.05, 0.025):
            joint = pt.couple(pre_u, hb.Diagonal(sp, lams), ptr, g)
            (mean,) = pt.pointer_mean(joint, hb.Operator.ket_projector(post_u))
            # sum_b (P_b t) (x) phi_b on the dense projectors of A itself
            rows, _ = pt._shifted(tuple(ref_lams.tolist()), ptr.n_bins, ptr.spacing, g)
            dense = sum(np.multiply.outer(proj @ pre.amplitudes, row)
                        for proj, row in zip(ref_projs, rows))
            (ref,) = pt.pointer_mean(hb.Ket(joint.space, dense.reshape(-1)),
                                     hb.Operator.ket_projector(post))
            assert abs(mean - ref) <= 1e-13
            errs.append(abs(mean / g - want))
        assert errs[0] <= 0.15  # criterion 6's bounds
        assert errs[0] / errs[1] >= 2.5


def _momentum_mean(psi, spacing):
    """<psi| -i d/dx |psi> / <psi|psi> on a grid, with the derivative taken
    spectrally."""
    k = 2 * np.pi * np.fft.fftfreq(len(psi), d=spacing)
    dpsi = np.fft.ifft(1j * k * np.fft.fft(psi))
    return float((np.vdot(psi, -1j * dpsi) / np.vdot(psi, psi)).real)


def _perfbench_gen():
    """perfbench/gen.py, which needs only the standard library, loaded
    without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _spec_cases(name, spec):
    """(id, pre, post, observable, weak value) of every observable of a
    parsed .scn, with the states and weak values dsl.evaluate gives."""
    res = dsl.evaluate(spec, name)
    pre = res.states_by_epoch[next(reversed(res.states_by_epoch))]
    post = hb.from_amplitudes(
        pre.space, {e.labels: e.amplitude for e in spec.postselect.entries}).unit()
    for decl in spec.observables:
        diag = sum(coeff * hb.Operator.projector(pre.space, dict(c or ())).diagonal
                   for coeff, c in decl.terms)
        yield (f"{name}-{decl.name}", pre, post, hb.Diagonal(pre.space, diag),
               res.weak_values[decl.name])


def _weak_value_cases():
    """The cases of _spec_cases for the fixtures that declare observables and
    for the eight seed-0 scn_scaling light files (d = 64), and seeded complex
    3-level pre/post pairs on diag(1, 2, 3)."""
    out = []
    for name in ("three_boxes", "hardy", "three_path_photon"):
        out += _spec_cases(name, dsl.load_file(dsl.builtin_scenario_path(name)))
    for k, text in enumerate(_perfbench_gen().scn_corpus(0)["light"]):
        out += _spec_cases(f"scn-light-{k}", dsl.parse(text))
    sp3 = hb.space(("box", ["box1", "box2", "box3"]))
    diag3 = hb.Diagonal(sp3, np.array([1.0, 2.0, 3.0]))
    for seed in range(4):
        pre, post = _random_pair(sp3, seed)
        out.append((f"complex-{seed}", pre, post, diag3,
                    tsvf.weak_value(tsvf.TwoStateVector(pre, post), diag3)))
    return out


class TestWeakValueOracle:
    """Both parts of a weak value read off the pointer on criterion 6's grid:
    Re A_w as <x>/g and Im A_w as 2 sigma^2 <p>/g, each with O(g^2) error
    (Jozsa, PRA 76, 044103 (2007))."""

    @pytest.mark.parametrize("case", _weak_value_cases(), ids=lambda c: c[0])
    def test_pointer_reads_both_parts(self, case):
        _, pre, post, obs, want = case
        ptr = pt.PointerWavefunction(n_bins=801, spacing=0.025)
        errs = []
        for g in (0.05, 0.025):
            joint = pt.couple(pre, obs, ptr, g)
            (mean,) = pt.pointer_mean(joint, hb.Operator.ket_projector(post))
            psi = post.amplitudes.conj() @ joint.amplitudes.reshape(pre.space.dim, -1)
            im = 2 * pt.SIGMA ** 2 * _momentum_mean(psi, ptr.spacing) / g
            errs.append((abs(mean / g - want.real), abs(im - want.imag)))
        for err, err_half in zip(*errs):
            assert err <= 0.15  # criterion 6's bounds
            # a part read exactly at g = 0.05, as a real weak value's Im is,
            # has no O(g^2) error left to halve
            if err > 1e-9:
                assert err / err_half >= 2.5

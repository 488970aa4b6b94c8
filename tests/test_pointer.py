"""Pointer model: coupling, conditioned means, projective limit, sequences."""

import numpy as np
import pytest

from tsvsim import hilbert as hb, pointer as pt, scenarios as sc
from tsvsim.errors import DimensionMismatch, ShiftOutOfGrid, ZeroProbabilityBranch

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


def _reference_weak_sequence(system, observable, g, steps, rng_seed, ptr=None):
    """weak_sequence's step loop as it was written with numpy arrays, kept to
    pin the lean loop's results bit for bit."""
    if ptr is None:
        ptr = pt.PointerWavefunction()
    projs, branch_amps = pt._branches(observable, ptr, g)
    cdf = np.cumsum(np.abs(branch_amps) ** 2, axis=1)
    cdf_last = cdf[:, -1]
    xs = ptr.positions
    proj_stack = np.stack(projs)
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
    """(id, system, observable, g, pointer) covering diagonal, non-diagonal
    and complex observables, g = 0 and a small pointer grid."""
    sp2, obs2 = two_level()
    half = hb.Ket(sp2, np.array([1, 1]) / SQ2)
    sp3 = hb.space(("box", ["box1", "box2", "box3"]))
    even3 = hb.Ket(sp3, np.ones(3) / SQ3)
    diag3 = hb.Operator(sp3, np.diag([1.0, 2.0, 3.0]))
    sigma_x = hb.Operator(sp2, np.array([[0, 1], [1, 0]], dtype=complex))
    herm = np.array([[1.0, 0.5 - 0.3j, 0.2j],
                     [0.5 + 0.3j, -0.4, 0.7 + 0.1j],
                     [-0.2j, 0.7 - 0.1j, 0.9]])
    complex3 = hb.Ket(sp3, np.array([0.6, 0.48j, 0.64]))
    return [
        ("two-level", half, obs2, 0.2, None),
        ("three-level", even3, diag3, 0.2, None),
        ("sigma-x", hb.Ket(sp2, np.array([0.6, 0.8j])), sigma_x, 0.2, None),
        ("complex-3x3", complex3, hb.Operator(sp3, herm), 0.3, None),
        ("g=0", even3, diag3, 0.0, None),
        ("small-pointer", half, obs2, 0.2,
         pt.PointerWavefunction(n_bins=41, spacing=0.25)),
    ]


class TestPointerWavefunction:
    def test_gaussian_is_measure_normalized(self):
        ptr = pt.PointerWavefunction()
        amps = ptr.ket_amplitudes()
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert ptr.n_bins % 2 == 1
        assert ptr.positions[ptr.n_bins // 2] == 0.0
        # one read-only profile per grid, shared by equal pointers
        assert not amps.flags.writeable
        assert pt.PointerWavefunction(401, 0.05).ket_amplitudes() is amps

    def test_even_bin_count_rejected(self):
        with pytest.raises(ValueError, match="^bin count must be an odd positive int, got 400$"):
            pt.PointerWavefunction(n_bins=400)

    def test_grid_validation(self):
        for n_bins in (0, -3, 5.0):
            with pytest.raises(ValueError, match="^bin count must be an odd positive int"):
                pt.PointerWavefunction(n_bins=n_bins)
        for spacing in (0.0, -1.0, float("nan"), float("inf")):
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
        expect = np.kron(system.amplitudes, ptr.ket_amplitudes())
        np.testing.assert_array_equal(joint.amplitudes, expect)

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
                                      ptr.ket_amplitudes())

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
        for labels in (["u", "v"], ["n=0", "n=1"], ["ab1", "cd2"],
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

    def test_weak_limit_error_halves_quadratically(self):
        # halving g from 0.1 to 0.05 must shrink the error at least 2.5x
        ptr = pt.PointerWavefunction(n_bins=801, spacing=0.025)
        sp, pre, post, p3 = boxes_context()
        post_proj = hb.Operator.ket_projector(post)
        errs = []
        for g in (0.1, 0.05):
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

    def test_collapse_renormalizes(self):
        sp, obs = two_level()
        system = hb.Ket(sp, np.array([0.6, 0.8]))
        lam, collapsed = pt.strong_measure(system, obs, 3)
        assert collapsed.norm() == pytest.approx(1.0, abs=1e-12)
        assert lam in (0.0, 1.0)


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

    def test_steps_validation(self):
        sp, obs = two_level()
        with pytest.raises(ValueError):
            pt.weak_sequence(hb.basis_state(sp, "hi"), obs, 0.1, 0, 1)

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


class TestEigenbranches:
    def test_degenerate_levels_merge(self):
        sp = hb.space(("a", ["x", "y", "z"]))
        obs = hb.Operator(sp, np.diag([1.0, 1.0, 2.0]))
        lams, projs = pt.eigenbranches(obs)
        assert list(lams) == [1.0, 2.0]
        assert np.trace(projs[0]).real == pytest.approx(2.0)

    def test_non_diagonal_observable(self):
        sp = hb.space(("a", ["x", "y"]))
        obs = hb.Operator(sp, np.array([[0, 1], [1, 0]], dtype=complex))
        lams, projs = pt.eigenbranches(obs)
        np.testing.assert_allclose(lams, [-1.0, 1.0], atol=1e-12)
        total = projs[0] + projs[1]
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

"""Pointer model: coupling, conditioned means, projective limit, sequences."""

import numpy as np
import pytest

from tsvsim import hilbert as hb, pointer as pt
from tsvsim.errors import DimensionMismatch, ShiftOutOfGrid, ZeroProbabilityBranch

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def boxes_context():
    sp = hb.space(("box", ["box1", "box2", "box3"]))
    pre = hb.Ket(sp, np.ones(3) / SQ3)
    post = hb.Ket(sp, np.array([1, 1, -1]) / SQ3)
    p3 = hb.Operator.projector(sp, {"box": "box3"}, tag="P3")
    return sp, pre, post, p3


def two_level():
    sp = hb.space(("sys", ["lo", "hi"]))
    obs = hb.Operator(sp, np.diag([0.0, 1.0]), tag="which")
    return sp, obs


def _reference_weak_sequence(system, observable, g, steps, rng_seed, ptr=None):
    """weak_sequence's step loop as it was written with numpy arrays, kept to
    pin the lean loop's results bit for bit."""
    if ptr is None:
        ptr = pt.PointerWavefunction.gaussian()
    gval = pt._g(g)
    lams, projs = pt.eigenbranches(observable)
    pt._check_shift(ptr, gval, lams)
    branch_amps = pt._branch_pointer_amps(ptr, gval, lams)
    cdf = np.cumsum(np.abs(branch_amps) ** 2, axis=1)
    cdf_last = cdf[:, -1]
    xs = ptr.positions
    proj_stack = np.stack(projs)
    n_branches = len(lams)
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
         pt.PointerWavefunction.gaussian(n_bins=41, spacing=0.25)),
    ]


class TestPointerWavefunction:
    def test_gaussian_is_measure_normalized(self):
        ptr = pt.PointerWavefunction.gaussian()
        total = np.sum(np.abs(ptr.amplitudes) ** 2) * ptr.spacing
        assert total == pytest.approx(1.0, abs=1e-12)
        assert ptr.n_bins % 2 == 1
        assert ptr.positions[ptr.n_bins // 2] == 0.0

    def test_even_bin_count_rejected(self):
        with pytest.raises(ValueError):
            pt.PointerWavefunction.gaussian(n_bins=400)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            pt.PointerWavefunction(spacing=0.1, sigma=1.0,
                                   amplitudes=np.ones(11, dtype=complex))

    def test_grid_positions_roundtrip(self):
        ptr = pt.PointerWavefunction.gaussian(n_bins=41, spacing=0.25)
        factor = ptr.factor("pointer")
        np.testing.assert_array_equal(pt.grid_positions(factor), ptr.positions)

    def test_coupling_strength_validation(self):
        sp, obs = two_level()
        ptr = pt.PointerWavefunction.gaussian()
        for g in (-0.1, float("nan")):  # NaN compares false with 0 as well
            with pytest.raises(ValueError, match=f"coupling strength must be >= 0, got {g}$"):
                pt.couple(hb.basis_state(sp, "hi"), obs, ptr, g=g)


class TestCouple:
    def test_eigenstate_shift_recenters_pointer(self):
        sp, obs = two_level()
        ptr = pt.PointerWavefunction.gaussian()
        joint = pt.couple(hb.basis_state(sp, "hi"), obs, ptr, 2.0)
        mean = pt.pointer_mean(joint, hb.Operator.identity(sp))
        assert mean == pytest.approx(2.0, abs=1e-9)

    def test_zero_coupling_is_exact_product(self):
        sp, obs = two_level()
        ptr = pt.PointerWavefunction.gaussian(n_bins=101)
        system = hb.Ket(sp, np.array([1, 1j]) / SQ2)
        joint = pt.couple(system, obs, ptr, 0.0)
        expect = np.kron(system.amplitudes, ptr.ket_amplitudes())
        np.testing.assert_array_equal(joint.amplitudes, expect)

    def test_three_boxes_conditioned_mean_tracks_negative_weak_value(self):
        sp, pre, post, p3 = boxes_context()
        ptr = pt.PointerWavefunction.gaussian()
        joint = pt.couple(pre, p3, ptr, 0.1)
        mean = pt.pointer_mean(joint, hb.Operator.ket_projector(post))
        assert mean == pytest.approx(-0.1, abs=0.02)

    def test_norm_preserved_even_for_fractional_shifts(self):
        sp, pre, post, p3 = boxes_context()
        ptr = pt.PointerWavefunction.gaussian()
        for g in (0.025, 0.037, 0.08):  # non-integer bin shifts included
            joint = pt.couple(pre, p3, ptr, g)
            assert abs(joint.norm() - 1.0) <= 1e-9

    def test_shift_out_of_grid(self):
        sp, obs = two_level()
        ptr = pt.PointerWavefunction.gaussian(n_bins=41, spacing=0.25)  # extent 5
        with pytest.raises(ShiftOutOfGrid):
            pt.couple(hb.basis_state(sp, "hi"), obs, ptr, 6.0)

    def test_non_hermitian_rejected(self):
        sp, _ = two_level()
        bad = hb.Operator(sp, np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError):
            pt.couple(hb.basis_state(sp, "hi"), bad, pt.PointerWavefunction.gaussian(), 0.1)

    def test_second_pointer_gets_fresh_factor_name(self):
        sp, pre, post, p3 = boxes_context()
        ptr = pt.PointerWavefunction.gaussian(n_bins=21, spacing=0.5)
        joint = pt.couple(pre, p3, ptr, 0.1)
        joint2 = pt.couple(joint, p3, ptr, 0.1)
        names = [f.name for f in joint2.space.factors]
        assert names == ["box", "pointer", "pointer_2"]


class TestPointerMean:
    def test_unconditioned_eigenstate_mean(self):
        sp = hb.space(("a", ["x", "y"]))
        obs = hb.Operator(sp, np.diag([0.0, 3.0]))
        ptr = pt.PointerWavefunction.gaussian()
        joint = pt.couple(hb.basis_state(sp, "y"), obs, ptr, 1.0)
        mean = pt.pointer_mean(joint, hb.Operator.identity(sp))
        assert abs(mean - 3.0) <= ptr.spacing

    def test_hardy_pair_mean_over_g(self):
        sp = hb.space(("positron", ["O+", "NO+"]), ("electron", ["O-", "NO-"]))
        pre = hb.from_amplitudes(sp, {("O+", "NO-"): 1 / SQ3, ("NO+", "O-"): 1 / SQ3,
                                      ("NO+", "NO-"): 1 / SQ3})
        post = hb.from_amplitudes(sp, {("O+", "O-"): 0.5, ("O+", "NO-"): -0.5,
                                       ("NO+", "O-"): -0.5, ("NO+", "NO-"): 0.5})
        pair = hb.Operator.projector(sp, {"positron": "NO+", "electron": "NO-"})
        joint = pt.couple(pre, pair, pt.PointerWavefunction.gaussian(), 0.05)
        mean = pt.pointer_mean(joint, hb.Operator.ket_projector(post))
        assert -1.15 <= mean / 0.05 <= -0.85

    def test_three_boxes_positive_weak_value(self):
        sp, pre, post, _ = boxes_context()
        p1 = hb.Operator.projector(sp, {"box": "box1"}, tag="P1")
        joint = pt.couple(pre, p1, pt.PointerWavefunction.gaussian(), 0.05)
        mean = pt.pointer_mean(joint, hb.Operator.ket_projector(post))
        assert 0.85 <= mean / 0.05 <= 1.15

    def test_zero_probability_post_selection(self):
        sp, obs = two_level()
        joint = pt.couple(hb.basis_state(sp, "hi"), obs,
                          pt.PointerWavefunction.gaussian(), 0.1)
        with pytest.raises(ZeroProbabilityBranch):
            pt.pointer_mean(joint, hb.Operator.projector(sp, {"sys": "lo"}))

    def test_projector_must_cover_leading_factors(self):
        sp, obs = two_level()
        joint = pt.couple(hb.basis_state(sp, "hi"), obs,
                          pt.PointerWavefunction.gaussian(), 0.1)
        other = hb.space(("zzz", ["a", "b"]))
        with pytest.raises(DimensionMismatch):
            pt.pointer_mean(joint, hb.Operator.identity(other))

    def test_weak_limit_error_halves_quadratically(self):
        # halving g from 0.1 to 0.05 must shrink the error at least 2.5x
        ptr = pt.PointerWavefunction.gaussian(n_bins=801, spacing=0.025)
        sp, pre, post, p3 = boxes_context()
        post_proj = hb.Operator.ket_projector(post)
        errs = []
        for g in (0.1, 0.05):
            joint = pt.couple(pre, p3, ptr, g)
            errs.append(abs(pt.pointer_mean(joint, post_proj) / g - (-1.0)))
        assert errs[0] / errs[1] >= 2.5

    @pytest.mark.parametrize("g", [
        0.05, 0.1, 0.2,
        *(pytest.param(g, marks=pytest.mark.xfail(
            reason="off-grid shift: _translate interpolates between bins"))
          for g in (0.01, 0.03, 0.07)),
    ])
    def test_mean_matches_continuum_closed_form(self, g):
        # pointer psi(x) = b phi(x) + a phi(x - g) after post-selection, with
        # a = <post|P3|pre> and b = <post|pre> - a; for the Gaussian phi of
        # width sigma, with e = exp(-g^2 / 8 sigma^2),
        # <x> = (|a|^2 g + Re(a b*) g e) / (|a|^2 + |b|^2 + 2 Re(a b*) e)
        ptr = pt.PointerWavefunction.gaussian()
        _, pre, post, p3 = boxes_context()
        a = np.vdot(post.amplitudes, p3.act(pre.amplitudes))
        b = np.vdot(post.amplitudes, pre.amplitudes) - a
        e = np.exp(-g ** 2 / (8 * ptr.sigma ** 2))
        cross = (a * np.conj(b)).real
        exact = (abs(a) ** 2 + cross * e) / (abs(a) ** 2 + abs(b) ** 2 + 2 * cross * e)
        joint = pt.couple(pre, p3, ptr, g)
        mean = pt.pointer_mean(joint, hb.Operator.ket_projector(post))
        assert abs(mean / g - exact) <= 1e-12

    def test_strong_limit_multimodal_weights_match_born(self):
        # separation 3 = 30 sigma: sample pointer readouts, classify by mode
        rng = np.random.default_rng(17)
        sp, obs = two_level()
        amps = np.array([0.8, 0.6], dtype=complex)
        system = hb.Ket(sp, amps)
        ptr = pt.PointerWavefunction.gaussian(sigma=0.1)
        joint = pt.couple(system, obs, ptr, 3.0)
        t = np.abs(joint.amplitudes.reshape(sp.dim, -1)) ** 2
        pmf = t.sum(axis=0)
        pmf /= pmf.sum()
        xs = ptr.positions
        draws = rng.choice(xs, size=10_000, p=pmf)
        hi_fraction = float(np.mean(draws > 1.5))
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
        ptr = pt.PointerWavefunction.gaussian(n_bins=41, spacing=0.25)
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

    def test_steps_validation(self):
        sp, obs = two_level()
        with pytest.raises(ValueError):
            pt.weak_sequence(hb.basis_state(sp, "hi"), obs, 0.1, 0, 1)

    def test_shift_out_of_grid(self):
        sp, obs = two_level()
        ptr = pt.PointerWavefunction.gaussian(n_bins=11, spacing=0.1)
        with pytest.raises(ShiftOutOfGrid):
            pt.weak_sequence(hb.basis_state(sp, "hi"), obs, 10.0, 5, 1, ptr=ptr)

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

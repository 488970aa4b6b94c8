"""Built-in scenarios against frozen expected values."""

import hashlib
import warnings

import numpy as np
import pytest

from tsvsim import hilbert as hb, scenarios as sc

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def assert_state(state, entries, atol=1e-12):
    want = np.zeros(state.space.dim, dtype=complex)
    for labels, amp in entries.items():
        want[state.space.index_of(labels)] = amp
    np.testing.assert_allclose(state.amplitudes, want, atol=atol)


def _reference_probe(states, mode, rng):
    """_probe as it was written with boolean-mask gathers and scatters, kept to
    pin the in-place collapse bit for bit."""
    p = np.abs(states[:, mode]) ** 2
    clicked = rng.random(len(states)) < p
    hit = states[clicked]
    if len(hit):
        amps = hit[:, mode].copy()
        hit[:] = 0.0
        hit[:, mode] = amps / np.abs(amps)
        states[clicked] = hit
    miss = states[~clicked]
    if len(miss):
        keep = np.sqrt(1.0 - p[~clicked])
        miss[:, mode] = 0.0
        # a probability-1 click leaves no silent branch to renormalize
        good = keep > 1e-9
        miss[good] /= keep[good, None]
        states[~clicked] = miss
    return clicked


def _recorded_trials(monkeypatch, probe, trials, seed):
    """trial_stats of the four-mirror run with `probe` in _probe's place, and
    a digest of the click mask and the state bytes after every probe call."""
    digests = []

    def recording(states, mode, rng):
        clicked = probe(states, mode, rng)
        digests.append(hashlib.sha256(clicked.tobytes() + states.tobytes()).digest())
        return clicked

    monkeypatch.setattr(sc, "_probe", recording)
    return sc._four_mirror_trials(trials, seed), digests


class TestOblivion:
    def test_epoch_states(self):
        res = sc.run_oblivion()
        ready = ("READY1", "READY2")
        assert_state(res.states_by_epoch["t0"], {
            ("1'", "2'") + ready: 0.5, ("1'", "2''") + ready: 0.5,
            ("1''", "2'") + ready: 0.5, ("1''", "2''") + ready: 0.5})
        assert_state(res.states_by_epoch["t1"], {
            ("1'", "2'") + ready: 1 / SQ3, ("1'", "2''") + ready: 1 / SQ3,
            ("1''", "2''") + ready: 1 / SQ3})
        assert_state(res.states_by_epoch["t2"], {
            ("1'", "2''") + ready: 1 / SQ2, ("1''", "2''") + ready: 1 / SQ2})

    def test_probabilities(self):
        res = sc.run_oblivion()
        assert res.probabilities["click1"] == pytest.approx(0.25, abs=1e-14)
        assert res.probabilities["click2_given_no_click1"] == pytest.approx(1 / 3, abs=1e-14)
        assert res.probabilities["no_clicks"] == pytest.approx(0.5, abs=1e-14)

    def test_entanglement_rises_and_erases(self):
        res = sc.run_oblivion()
        assert [res.schmidt_ranks[e] for e in ("t0", "t1", "t2")] == [1, 2, 1]

    def test_time_reversal_returns(self):
        res = sc.run_oblivion()
        electron_ret, positron_ret = sc.time_reversal_check(res)
        assert electron_ret == pytest.approx(1.0, abs=1e-10)
        assert positron_ret == pytest.approx(0.5, abs=1e-10)

    def test_time_reversal_before_interaction_is_perfect(self):
        res = sc.run_oblivion()
        electron_ret, positron_ret = sc.time_reversal_check(res, epoch="t0")
        assert electron_ret == pytest.approx(1.0, abs=1e-10)
        assert positron_ret == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_and_seed_free(self):
        a = sc.run_oblivion()
        b = sc.run_oblivion()
        np.testing.assert_array_equal(a.states_by_epoch["t2"].amplitudes,
                                      b.states_by_epoch["t2"].amplitudes)
        assert a.probabilities == b.probabilities


class TestElasticCollision:
    def test_critical_interval_state(self):
        res = sc.run_elastic_collision()
        assert_state(res.states_by_epoch["t2"], {
            ("1'", "2''", "READY"): 0.5, ("1''", "2''", "READY"): 0.5,
            ("1'''", "2'''", "READY"): 0.5, ("1''''", "2'''", "READY"): 0.5})

    def test_branch_probabilities(self):
        res = sc.run_elastic_collision()
        assert res.probabilities["no_collision"] == pytest.approx(0.5, abs=1e-14)
        assert res.probabilities["collision"] == pytest.approx(0.5, abs=1e-14)

    def test_silence_restores_first_atom(self):
        res = sc.run_elastic_collision()
        assert_state(res.states_by_epoch["final"], {
            ("1'", "2''", "READY"): 1 / SQ2, ("1''", "2''", "READY"): 1 / SQ2})
        assert res.schmidt_ranks["final"] == 1
        assert res.schmidt_ranks["t2"] == 2

    def test_collision_branch_is_momentum_exchanged(self):
        res = sc.run_elastic_collision()
        assert_state(res.states_by_epoch["collision"], {
            ("1'''", "2'''", "CLICK"): 1 / SQ2, ("1''''", "2'''", "CLICK"): 1 / SQ2})


class TestThreeBoxes:
    def test_weak_values(self):
        res = sc.run_three_boxes()
        assert res.weak_values["P1"] == pytest.approx(1.0, abs=1e-12)
        assert res.weak_values["P2"] == pytest.approx(1.0, abs=1e-12)
        assert res.weak_values["P3"] == pytest.approx(-1.0, abs=1e-12)
        assert res.weak_values["projector_sum"] == pytest.approx(1.0, abs=1e-12)

    def test_postselection_probability(self):
        res = sc.run_three_boxes()
        assert res.probabilities["postselect"] == pytest.approx(1 / 9, abs=1e-12)


class TestHardy:
    def test_pair_weak_values(self):
        res = sc.run_hardy()
        assert res.weak_values["OO"] == pytest.approx(0.0, abs=1e-12)
        assert res.weak_values["NO_O"] == pytest.approx(1.0, abs=1e-12)
        assert res.weak_values["O_NO"] == pytest.approx(1.0, abs=1e-12)
        assert res.weak_values["NO_NO"] == pytest.approx(-1.0, abs=1e-12)

    def test_marginals_cancel_via_both_routes(self):
        res = sc.run_hardy()
        assert res.weak_values["NO_minus"] == pytest.approx(0.0, abs=1e-12)
        assert res.weak_values["NO_plus"] == pytest.approx(0.0, abs=1e-12)
        summed = res.weak_values["NO_O"] + res.weak_values["NO_NO"]
        assert summed == pytest.approx(res.weak_values["NO_minus"], abs=1e-12)
        summed_plus = res.weak_values["O_NO"] + res.weak_values["NO_NO"]
        assert summed_plus == pytest.approx(res.weak_values["NO_plus"], abs=1e-12)

    def test_dark_dark_probability(self):
        # oracle: |<post|pre>|^2 = |-1/(2 sqrt3)|^2 = 1/12, by hand expansion
        res = sc.run_hardy()
        assert res.probabilities["DD"] == pytest.approx(1 / 12, abs=1e-12)
        assert res.probabilities["no_annihilation"] == pytest.approx(0.75, abs=1e-14)

    def test_forward_simulation_ends_on_dark_ports(self):
        res = sc.run_hardy()
        final = res.states_by_epoch["final"]
        assert abs(final.amplitude(("D+", "D-", "READY"))) == pytest.approx(1.0, abs=1e-12)

    def test_pair_sum_equals_one(self):
        res = sc.run_hardy()
        assert res.weak_values["projector_sum"] == pytest.approx(1.0, abs=1e-12)


class TestFourMirror:
    def test_exact_probe_chain(self):
        res = sc.run_four_mirror(trials=16, rng_seed=0)
        p = res.probabilities
        assert p["first_probe_silent"] == pytest.approx(0.5, abs=1e-14)
        assert p["lu_click_per_trip_lonely"] == pytest.approx(0.0, abs=1e-20)
        assert p["ru_silent_given_silence"] == pytest.approx(0.5, abs=1e-14)
        assert p["lu_click_after_double_silence"] == pytest.approx(0.5, abs=1e-14)

    def test_epoch_states(self):
        res = sc.run_four_mirror(trials=16, rng_seed=0)
        ready = ("READY_L", "READY_R")
        assert_state(res.states_by_epoch["t1"], {("L_d",) + ready: 1.0})
        assert_state(res.states_by_epoch["t2"], {("R_d",) + ready: 1.0})
        final = res.states_by_epoch["final"]
        assert abs(final.amplitude(("L_u", "CLICK_L", "READY_R"))) == \
            pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_statistics(self):
        res = sc.run_four_mirror(trials=10_000, rng_seed=42)
        stats = res.trial_stats
        assert stats["first_silent_fraction"] == pytest.approx(0.5, abs=0.02)
        assert stats["lonely_lu_clicks"] == 0.0
        fractions = [stats[f"lu_click_fraction_within_{k}"] for k in (1, 5, 10, 20)]
        assert fractions == sorted(fractions)  # monotone approach to 1
        assert fractions[-1] >= 0.99
        assert stats["lu_click_per_trip_empirical"] == pytest.approx(0.5, abs=0.05)

    def test_seed_moves_trials_not_exact_fields(self):
        a = sc.run_four_mirror(trials=2_000, rng_seed=1)
        b = sc.run_four_mirror(trials=2_000, rng_seed=2)
        assert a.probabilities == b.probabilities
        assert a.trial_stats != b.trial_stats

    def test_seed_reproducibility(self):
        a = sc.run_four_mirror(trials=2_000, rng_seed=9)
        b = sc.run_four_mirror(trials=2_000, rng_seed=9)
        assert a.trial_stats == b.trial_stats

    def test_probe_agrees_with_detector_pipeline(self):
        # vectorized Monte Carlo probe == explicit flag coupling + projection
        bs, flip_l, _, silent_l, _, click_l, t0 = sc._four_mirror_static()
        from tsvsim import tsvf
        coupled = hb.apply(flip_l, t0)
        p_click = tsvf.born_probability(coupled, click_l)
        _, collapsed = tsvf.post_select(coupled, silent_l)
        # matching direct-collapse arithmetic used by the trial loop
        photon_batch = np.array([[1 / SQ2, 1 / SQ2, 0, 0]], dtype=complex)
        rng = np.random.default_rng(0)
        clicked = sc._probe(photon_batch, 0, rng)  # seed 0 first draw ~ 0.64 > 0.5
        assert not clicked[0]
        assert p_click == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(photon_batch[0], [0, 1, 0, 0], atol=1e-12)
        assert collapsed.amplitude(("L_d", "READY_L", "READY_R")) == \
            pytest.approx(1.0, abs=1e-12)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            sc.run_four_mirror(trials=0)

    @pytest.mark.parametrize("trials", [1, 3, 200, 10_000])
    @pytest.mark.parametrize("seed", [0, 1, 7, 9, 42, 2024, 31337])
    def test_probe_bit_identical_to_reference(self, monkeypatch, seed, trials):
        probe = sc._probe
        stats, digests = _recorded_trials(monkeypatch, probe, trials, seed)
        ref_stats, ref_digests = _recorded_trials(monkeypatch, _reference_probe, trials, seed)
        assert stats == ref_stats
        assert len(digests) == 142
        assert digests == ref_digests

    def test_probe_mixed_batch_matches_reference(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))
        batch /= np.linalg.norm(batch, axis=1)[:, None]
        ref = batch.copy()
        clicked = sc._probe(batch, 1, np.random.default_rng(11))
        ref_clicked = _reference_probe(ref, 1, np.random.default_rng(11))
        assert 0 < clicked.sum() < len(clicked)  # some rows click, some stay silent
        assert clicked.tobytes() == ref_clicked.tobytes()
        assert batch.tobytes() == ref.tobytes()
        np.testing.assert_allclose(np.abs(batch[clicked, 1]), 1.0, atol=1e-15)
        assert not batch[~clicked, 1].any()
        np.testing.assert_allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-14)

    def test_certain_click_warns_nothing(self):
        # |1.0000000000000002|^2 > 1: the row clicks, and no sqrt(1 - p) is taken for it
        batch = np.array([[1.0000000000000002, 0, 0, 0], [1 / SQ2, 1 / SQ2, 0, 0]],
                         dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clicked = sc._probe(batch, 0, np.random.default_rng(0))
        assert clicked[0]
        assert batch[0].tobytes() == np.array([1, 0, 0, 0], dtype=complex).tobytes()


class TestThreePathPhoton:
    def test_recombine_all_exact_fields(self):
        res = sc.run_three_path_photon("recombine_all", g=0.05)
        assert res.weak_values["P1"] == pytest.approx(1.0, abs=1e-12)
        assert res.weak_values["P2"] == pytest.approx(1.0, abs=1e-12)
        assert res.weak_values["P3"] == pytest.approx(-1.0, abs=1e-12)
        assert res.probabilities["postselect_third_negative"] == \
            pytest.approx(1 / 9, abs=1e-12)

    def test_recombine_all_pointer_pattern(self):
        res = sc.run_three_path_photon("recombine_all", g=0.05)
        stats = res.trial_stats
        assert 0.8 <= stats["shift_over_g_path1"] <= 1.2
        assert 0.8 <= stats["shift_over_g_path2"] <= 1.2
        assert -1.2 <= stats["shift_over_g_path3"] <= -0.8

    def test_recombine_two_strong_outcome_probabilities(self):
        res = sc.run_three_path_photon("recombine_two", g=0.05)
        assert res.probabilities["beam_single"] == pytest.approx(1 / 3, abs=1e-12)
        assert res.probabilities["beam_merged"] == pytest.approx(2 / 3, abs=1e-12)

    def test_recombine_two_totals_are_zero_or_one(self):
        res = sc.run_three_path_photon("recombine_two", g=0.05)
        stats = res.trial_stats
        assert stats["total_over_g_beam1_given_single"] == pytest.approx(1.0, abs=0.2)
        assert stats["total_over_g_beam23_given_single"] == pytest.approx(0.0, abs=0.2)
        assert stats["total_over_g_beam1_given_merged"] == pytest.approx(0.0, abs=0.2)
        assert stats["total_over_g_beam23_given_merged"] == pytest.approx(1.0, abs=0.2)

    def test_recombine_two_conditional_weak_values(self):
        res = sc.run_three_path_photon("recombine_two", g=0.05)
        assert res.weak_values["P1_given_single"] == pytest.approx(1.0, abs=1e-12)
        assert res.weak_values["P2_given_merged"] == pytest.approx(0.5, abs=1e-12)
        assert res.weak_values["P3_given_merged"] == pytest.approx(0.5, abs=1e-12)

    def test_zero_coupling_means_zero_shifts(self):
        res = sc.run_three_path_photon("recombine_all", g=0.0)
        for i in (1, 2, 3):
            assert res.trial_stats[f"shift_path{i}"] == pytest.approx(0.0, abs=1e-12)
            assert f"shift_over_g_path{i}" not in res.trial_stats

    def test_unknown_option(self):
        with pytest.raises(ValueError):
            sc.run_three_path_photon("recombine_none")


class TestRegistry:
    def test_scenario_ids(self):
        assert set(sc.SCENARIOS) == {"four_mirror", "oblivion", "elastic_collision",
                                     "three_boxes", "hardy", "three_path_photon"}

    def test_descriptions_present(self):
        for info in sc.SCENARIOS.values():
            assert info.description

    def test_sweep_contexts(self):
        for name in ("three_boxes", "hardy", "three_path_photon"):
            pre, obs, post_proj = sc.sweep_context(name)
            assert pre.space == obs.space
        assert sc.sweep_context("oblivion") is None


class TestScenarioResult:
    def test_probability_range_validated(self):
        sp = hb.space(("a", ["x"]))
        with pytest.raises(ValueError):
            sc.ScenarioResult(scenario_id="bad",
                              states_by_epoch={"t0": hb.basis_state(sp, "x")},
                              probabilities={"oops": 1.5})

    def test_epoch_order_validated(self):
        sp = hb.space(("a", ["x"]))
        k = hb.basis_state(sp, "x")
        with pytest.raises(ValueError):
            sc.ScenarioResult(scenario_id="bad",
                              states_by_epoch={"t2": k, "t1": k},
                              probabilities={})
        # branch keys outside the canonical epochs take no part in the order
        sc.ScenarioResult(scenario_id="ok", probabilities={},
                          states_by_epoch={"t0": k, "final": k, "collision": k})

    def test_outcome_sets_sum_to_one(self):
        res = sc.run_oblivion()
        assert res.probabilities["click1"] + res.probabilities["no_click1"] == \
            pytest.approx(1.0, abs=1e-10)
        res2 = sc.run_elastic_collision()
        assert res2.probabilities["no_collision"] + res2.probabilities["collision"] == \
            pytest.approx(1.0, abs=1e-10)

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


def _reference_trials(trials, rng_seed, probe):
    """_four_mirror_trials as it was written over the full (trials, 4) batch,
    with `probe(states, mode, rng) -> clicked` (_reference_probe) collapsing
    the batch in place; kept to pin the distinct-state loop bit for bit."""
    rng = np.random.default_rng(rng_seed)
    bs_t = sc._four_mirror_static()[0].T
    l_u, r_u = 0, 2

    states = np.zeros((trials, 4), dtype=complex)
    states[:, 0] = states[:, 1] = 1 / SQ2
    clicked = probe(states, l_u, rng)
    silent = ~clicked
    stats = {"first_silent_fraction": float(silent.mean())}

    lone = states[silent]
    lonely_clicks = 0
    for _ in range(sc.LONELY_TRIPS):
        lone = lone @ bs_t
        lone = lone @ bs_t
        lonely_clicks += int(probe(lone, l_u, rng).sum())
    stats["lonely_lu_clicks"] = float(lonely_clicks)

    armed = states[silent] @ bs_t
    ru_clicked = probe(armed, r_u, rng)
    armed = armed[~ru_clicked]
    stats["double_silence_fraction"] = float((~ru_clicked).mean()) if len(ru_clicked) else 0.0
    n_armed = len(armed)
    first_click = np.full(n_armed, np.iinfo(np.int64).max, dtype=np.int64)
    exposures = 0
    clicks_seen = 0
    for trip in range(1, sc.ARMED_TRIPS + 1):
        armed = armed @ bs_t
        lu = probe(armed, l_u, rng)
        exposures += n_armed
        clicks_seen += int(lu.sum())
        fresh = lu & (first_click == np.iinfo(np.int64).max)
        first_click[fresh] = trip
        armed = armed @ bs_t
        probe(armed, r_u, rng)
    for k in (1, 5, 10, 20):
        stats[f"lu_click_fraction_within_{k}"] = (
            float((first_click <= k).mean()) if n_armed else 0.0
        )
    stats["lu_click_per_trip_empirical"] = clicks_seen / exposures if exposures else 0.0
    return stats


def _recorded_trials(monkeypatch, trials, seed):
    """trial_stats and every _probe return of the four-mirror run."""
    returns = []
    probe = sc._probe

    def recording(rows, of, mode, rng):
        returns.append(probe(rows, of, mode, rng))
        return returns[-1]

    monkeypatch.setattr(sc, "_probe", recording)
    return sc._four_mirror_trials(trials, seed), returns


def _assert_matches_reference(monkeypatch, trials, seed):
    """Same stats as the full-batch reference, and after every probe the same
    click mask and the same state bytes once rows[of] is expanded per trial."""
    stats, returns = _recorded_trials(monkeypatch, trials, seed)
    ref_digests = []

    def recording(states, mode, rng):
        clicked = _reference_probe(states, mode, rng)
        ref_digests.append(hashlib.sha256(clicked.tobytes() + states.tobytes()).digest())
        return clicked

    assert stats == _reference_trials(trials, seed, recording)
    assert len(returns) == 142
    assert [hashlib.sha256(clicked.tobytes() + rows[of].tobytes()).digest()
            for rows, of, clicked in returns] == ref_digests


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
        rows, of, clicked = sc._probe(photon_batch, np.zeros(1, dtype=np.intp), 0, rng)
        assert not clicked[0]  # seed 0 first draw ~ 0.64 > 0.5
        assert p_click == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(rows[of][0], [0, 1, 0, 0], atol=1e-12)
        assert collapsed.amplitude(("L_d", "READY_L", "READY_R")) == \
            pytest.approx(1.0, abs=1e-12)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            sc.run_four_mirror(trials=0)
        # a float or a bool trial count is refused before numpy reads it
        for trials in (1.5, True):
            with pytest.raises(ValueError, match=f"^trials must be an int >= 1, got {trials!r}$"):
                sc.run_four_mirror(trials=trials)

    def test_rng_seed_validation(self, monkeypatch):
        # None would seed from OS entropy; each is refused before any work is done
        monkeypatch.setattr(sc, "_four_mirror_static", None)
        for seed in (None, True, -1, 1.5, "42"):
            with pytest.raises(ValueError, match=f"^rng_seed must be an int >= 0, got {seed!r}$"):
                sc.run_four_mirror(trials=16, rng_seed=seed)
        monkeypatch.undo()
        assert (sc.run_four_mirror(trials=200, rng_seed=np.int64(42)).trial_stats
                == sc.run_four_mirror(trials=200, rng_seed=42).trial_stats)

    @pytest.mark.parametrize("trials", [1, 3, 200, 10_000])
    @pytest.mark.parametrize("seed", [0, 1, 7, 9, 42, 2024, 31337])
    def test_probe_bit_identical_to_reference(self, monkeypatch, seed, trials):
        _assert_matches_reference(monkeypatch, trials, seed)

    def test_probe_bit_identical_to_reference_30000_trials(self, monkeypatch):
        _assert_matches_reference(monkeypatch, 30_000, 5150)

    @pytest.mark.parametrize("trials", [10_000, 100_000])
    def test_trials_share_few_distinct_rows(self, monkeypatch, trials):
        _, returns = _recorded_trials(monkeypatch, trials, 42)
        for rows, of, _ in returns:
            assert len({row.tobytes() for row in rows}) == len(rows)  # pairwise byte-distinct
            assert np.bincount(of, minlength=len(rows)).all()  # every row is some trial's
        assert max(len(rows) for rows, _, _ in returns) <= 64  # 24 and 30 measured

    @pytest.mark.parametrize("rows, of", [
        # -0.0 at the probed mode, and a -0.0 real part that dividing by 1.0 flips
        ([[complex(-0.0, -0.0), complex(-0.0, 0.6), 0.8, 0]], [0, 0, 0, 0, 0]),
        # p = 1e-340 underflows to 0.0: the mode is zeroed and nothing renormalized
        ([[1e-170, 0.6, 0.8j, 0]], [0, 0, 0]),
        # equal once the zero at the mode is +0.0, so they must merge
        ([[complex(0.0, 0.0), 0.6, 0.8j, 0], [complex(-0.0, 0.0), 0.6, 0.8j, 0]], [0, 1, 1, 0]),
        ([[0, 1, 0, 0]], []),
    ])
    def test_certain_silent_probe_matches_reference(self, rows, of):
        rows, of = np.array(rows, dtype=complex), np.array(of, dtype=np.intp)
        ref = rows[of]
        ref_clicked = _reference_probe(ref, 0, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        new_rows, new_of, clicked = sc._probe(rows, of, 0, rng)
        assert not ref_clicked.any()
        assert clicked.tobytes() == ref_clicked.tobytes()
        assert new_rows[new_of].tobytes() == ref.tobytes()
        assert len({row.tobytes() for row in new_rows}) == len(new_rows)  # pairwise byte-distinct
        assert np.bincount(new_of, minlength=len(new_rows)).all()  # every row is some trial's
        # the generator was moved past the trials' draws: the stream goes on where the
        # slow path's would
        twin = np.random.default_rng(3)
        twin.random(len(of))
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("seed", [42, 7, 2024, 31337])
    @pytest.mark.parametrize("n", [0, 1, 5, 4_985, 10_000, 100_000])
    def test_advance_skips_as_many_draws_as_outputs(self, seed, n):
        # the certain-silent probe advances the bit generator by len(of) in place of
        # drawing len(of) doubles; that skips the same draws only while numpy's PCG64
        # fills each float64 from exactly one 64-bit output
        jumped, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        jumped.bit_generator.advance(n)
        drawn.random(n)
        assert jumped.random(3).tobytes() == drawn.random(3).tobytes(), (
            "Generator.random no longer takes one 64-bit PCG64 output per double, so "
            "bit_generator.advance(n) in scenarios._probe no longer skips n draws")

    @pytest.mark.parametrize("seed", [42, 7])
    def test_lonely_probes_are_certain_silent(self, monkeypatch, seed):
        # stage (b)'s round trip restores |L_d> exactly, so its probes 2-100 hold one
        # state with p == 0.0 at L_u and take the certain path, which returns `of` as is
        calls = []
        probe = sc._probe

        def recording(rows, of, mode, rng):
            calls.append((rows, of, np.abs(rows[:, mode]) ** 2, probe(rows, of, mode, rng)))
            return calls[-1][-1]

        monkeypatch.setattr(sc, "_probe", recording)
        sc._four_mirror_trials(10_000, seed)
        assert len(calls) == 142
        assert calls[1][2].any()  # probe 1 still holds stage (a)'s clicked row
        for rows, of, p, (_, new_of, _) in calls[2:1 + sc.LONELY_TRIPS]:
            assert len(rows) == 1 and len(of) and not p.any()
            assert new_of is of

    def test_probe_mixed_batch_matches_reference(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))
        batch /= np.linalg.norm(batch, axis=1)[:, None]
        ref = batch.copy()
        rows, of, clicked = sc._probe(batch, np.arange(64), 1, np.random.default_rng(11))
        ref_clicked = _reference_probe(ref, 1, np.random.default_rng(11))
        batch = rows[of]
        assert 0 < clicked.sum() < len(clicked)  # some rows click, some stay silent
        assert clicked.tobytes() == ref_clicked.tobytes()
        assert batch.tobytes() == ref.tobytes()
        np.testing.assert_allclose(np.abs(batch[clicked, 1]), 1.0, atol=1e-15)
        assert not batch[~clicked, 1].any()
        np.testing.assert_allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-14)

    def test_signed_zero_rows_stay_apart(self):
        # -0.0 == 0.0 by value, but merging these rows would change trial 1's bytes
        batch = np.array([[0.6, complex(0.0, -0.8), 0, 0], [0.6, complex(-0.0, -0.8), 0, 0]])
        ref = batch.copy()
        rows, of, clicked = sc._probe(batch, np.arange(2), 3, np.random.default_rng(0))
        ref_clicked = _reference_probe(ref, 3, np.random.default_rng(0))
        assert not clicked.any() and not ref_clicked.any()  # p = 0 at mode 3
        assert len(rows) == 2
        assert rows[of].tobytes() == ref.tobytes()

    def test_certain_click_warns_nothing(self):
        # |1.0000000000000002|^2 > 1: the row clicks, and no sqrt(1 - p) is taken for it
        batch = np.array([[1.0000000000000002, 0, 0, 0], [1 / SQ2, 1 / SQ2, 0, 0]],
                         dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, of, clicked = sc._probe(batch, np.arange(2), 0, np.random.default_rng(0))
        assert clicked[0]
        assert rows[of][0].tobytes() == np.array([1, 0, 0, 0], dtype=complex).tobytes()


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

    @pytest.mark.parametrize("g", [0.05, 0.0])
    def test_key_order(self, g):
        # the key order is the output row order
        over_g = ["shift_over_g_path{}"] if g else []
        shifts = [k.format(i) for i in (1, 2, 3) for k in ["shift_path{}", *over_g]]
        res = sc.run_three_path_photon("recombine_all", g=g)
        assert list(res.weak_values) == ["P1", "P2", "P3"]
        assert list(res.trial_stats) == shifts
        totals = ["total_over_g_beam1", "total_over_g_beam23"] if g else []
        res = sc.run_three_path_photon("recombine_two", g=g)
        given = ("_given_single", "_given_merged")
        assert list(res.weak_values) == [f"P{i}{s}" for s in given for i in (1, 2, 3)]
        assert list(res.trial_stats) == [k + s for s in given for k in shifts + totals]


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

    @pytest.mark.parametrize("g", [0, 0.0, -0.0, -0.1, float("nan")])
    def test_weak_readout_refuses_g_not_above_zero(self, monkeypatch, g):
        # refused before any pointer is coupled: shift/g is undefined at g = 0
        def must_not_couple(*_):
            raise AssertionError("a pointer was coupled before g was refused")

        context = sc.sweep_context("hardy")
        monkeypatch.setattr(sc.pt, "couple", must_not_couple)
        with pytest.raises(ValueError) as info:
            sc.weak_readout(context, g)
        assert str(info.value) == f"weak_readout divides by g, which must be > 0, got {g}"


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

"""Acceptance checks: one callable per headline claim of the library.

Each criterion reruns its scenario from scratch at the stated tolerance and
returns a human-readable detail string on success (AssertionError on
failure). The CLI `check` subcommand and tests/test_acceptance.py both drive
this registry, printing one pass/fail line per criterion.

Seeds are fixed so every run is reproducible bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dsl, hilbert as hb, pointer as pt, scenarios as sc, tsvf

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


TIMING_REPEATS = 5


def _timed_best(fn: Callable[[], object]) -> float:
    """Best-of-TIMING_REPEATS wall time in seconds, after one warmup call."""
    fn()
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _runtime(seconds: float, bound: float) -> str:
    """'runtime T of B (Mx)': the runtime and its bound in the bound's unit
    (ms under 1 s, else s), T to three significant digits, and the margin
    M = B / T. AssertionError with that text unless T < B."""
    scale, unit = (1e3, "ms") if bound < 1 else (1.0, "s")
    text = (f"runtime {seconds * scale:.3g} {unit} of {bound * scale:g} {unit} "
            f"({bound / seconds:.1f}x)")
    _check(seconds < bound, text)
    return text


# ---------------------------------------------------------------------------


def criterion_1_three_boxes() -> str:
    res = sc.run_three_boxes()
    expected = {"P1": 1.0, "P2": 1.0, "P3": -1.0}
    for key, want in expected.items():
        got = res.weak_values[key]
        _check(abs(got - want) <= 1e-10, f"{key} = {got}, want {want}")
    return ("P1,P2,P3 = (1, 1, -1) within 1e-10; "
            + _runtime(_timed_best(sc.run_three_boxes), 1e-3))


def criterion_2_hardy() -> str:
    res = sc.run_hardy()
    expected = {"OO": 0.0, "NO_O": 1.0, "O_NO": 1.0, "NO_NO": -1.0}
    for key, want in expected.items():
        got = res.weak_values[key]
        _check(abs(got - want) <= 1e-10, f"{key} = {got}, want {want}")
    # marginal cancellation, two independent routes: direct single-particle
    # projector weak values vs sums of pair weak values
    direct_minus = res.weak_values["NO_minus"]
    direct_plus = res.weak_values["NO_plus"]
    summed_minus = res.weak_values["NO_O"] + res.weak_values["NO_NO"]
    summed_plus = res.weak_values["O_NO"] + res.weak_values["NO_NO"]
    for name, value in (("NO_minus direct", direct_minus), ("NO_plus direct", direct_plus),
                        ("NO_minus summed", summed_minus), ("NO_plus summed", summed_plus)):
        _check(abs(value) <= 1e-10, f"marginal {name} = {value}, want 0")
    _check(abs(direct_minus - summed_minus) <= 1e-10, "NO_minus routes disagree")
    _check(abs(direct_plus - summed_plus) <= 1e-10, "NO_plus routes disagree")
    return ("pair weak values (0, 1, 1, -1) and both marginal routes 0 within 1e-10; "
            + _runtime(_timed_best(sc.run_hardy), 1e-3))


def _oblivion_expected_states() -> dict[str, dict[tuple[str, ...], complex]]:
    ready = ("READY1", "READY2")
    return {
        "t0": {("1'", "2'") + ready: 0.5, ("1'", "2''") + ready: 0.5,
               ("1''", "2'") + ready: 0.5, ("1''", "2''") + ready: 0.5},
        "t1": {("1'", "2'") + ready: 1 / SQ3, ("1'", "2''") + ready: 1 / SQ3,
               ("1''", "2''") + ready: 1 / SQ3},
        "t2": {("1'", "2''") + ready: 1 / SQ2, ("1''", "2''") + ready: 1 / SQ2},
    }


def criterion_3_oblivion() -> str:
    res = sc.run_oblivion()
    for epoch, entries in _oblivion_expected_states().items():
        state = res.states_by_epoch[epoch]
        want = hb.from_amplitudes(state.space, entries).amplitudes
        diff = float(np.max(np.abs(state.amplitudes - want)))
        _check(diff <= 1e-12, f"state {epoch} differs elementwise by {diff:.2e}")
    _check([res.schmidt_ranks[e] for e in ("t0", "t1", "t2")] == [1, 2, 1],
           f"ranks {res.schmidt_ranks}, want 1 -> 2 -> 1")
    for key, want in (("click1", 0.25), ("click2_given_no_click1", 1 / 3),
                      ("no_clicks", 0.5)):
        got = res.probabilities[key]
        _check(abs(got - want) <= 1e-12, f"{key} = {got}, want {want}")
    electron_ret, positron_ret = sc.time_reversal_check(res)
    _check(abs(electron_ret - 1.0) <= 1e-10, f"electron return {electron_ret}")
    _check(abs(positron_ret - 0.5) <= 1e-10, f"positron return {positron_ret}")
    runtime = _timed_best(lambda: sc.time_reversal_check(sc.run_oblivion()))
    return ("states match the three-stage evolution to 1e-12, ranks 1->2->1, "
            "probabilities (1/4, 1/3, 1/2) to 1e-12, returns (1.0, 0.5); "
            + _runtime(runtime, 1e-3))


def criterion_4_elastic_collision() -> str:
    res = sc.run_elastic_collision()
    t2 = res.states_by_epoch["t2"]
    want = hb.from_amplitudes(t2.space, dict.fromkeys(
        [("1'", "2''", "READY"), ("1''", "2''", "READY"),
         ("1'''", "2'''", "READY"), ("1''''", "2'''", "READY")], 0.5)).amplitudes
    diff = float(np.max(np.abs(t2.amplitudes - want)))
    _check(diff <= 1e-12, f"Critical-Interval state differs by {diff:.2e}")
    rank, _ = hb.schmidt_rank(res.states_by_epoch["final"], ["A1"])
    _check(rank == 1, f"conditioned A1 Schmidt rank {rank}, want 1")
    _check(abs(res.probabilities["no_collision"] - 0.5) <= 1e-12,
           f"no-collision probability {res.probabilities['no_collision']}")
    return ("Critical-Interval amplitudes all 1/2 to 1e-12; silence restores "
            "A1 to a rank-1 product at tol 1e-8")


def criterion_5_four_mirror() -> str:
    t0 = time.perf_counter()
    res = sc.run_four_mirror(trials=10_000, rng_seed=42)
    runtime = time.perf_counter() - t0
    stats = res.trial_stats
    _check(abs(stats["first_silent_fraction"] - 0.5) <= 0.02,
           f"silent fraction {stats['first_silent_fraction']}")
    _check(stats["lonely_lu_clicks"] == 0.0,
           f"{stats['lonely_lu_clicks']:.0f} L_u clicks with only L_u armed")
    _check(stats["lu_click_fraction_within_20"] >= 0.99,
           f"click fraction within 20 trips {stats['lu_click_fraction_within_20']}")
    return (f"silence {stats['first_silent_fraction']:.4f}; zero lonely clicks over "
            f"{sc.LONELY_TRIPS} trips; click fraction within 20 trips "
            f"{stats['lu_click_fraction_within_20']:.4f}; {_runtime(runtime, 5.0)}")


def criterion_6_weak_limit() -> str:
    t0 = time.perf_counter()
    details = []
    # grid chosen so g = 0.05 and 0.025 shift by whole bins; translation
    # interpolation then drops out and the pure O(g^2) response remains
    ptr = pt.PointerWavefunction(n_bins=801, spacing=0.025)
    for name in ("three_boxes", "hardy"):
        context = sc.sweep_context(name)  # weak value -1 in both
        err_g = abs(sc.weak_readout(context, 0.05, ptr) + 1.0)
        err_half = abs(sc.weak_readout(context, 0.025, ptr) + 1.0)
        _check(err_g <= 0.15, f"{name}: error at g=0.05 is {err_g:.3g} > 0.15")
        ratio = err_g / err_half if err_half > 0 else float("inf")
        _check(ratio >= 2.5, f"{name}: halving g improved error only {ratio:.2f}x")
        details.append(f"{name}: err(0.05)={err_g:.2e}, ratio {ratio:.2f}x")
    details.append(_runtime(time.perf_counter() - t0, 10.0))
    return "; ".join(details)


def _collapse_frequencies(system: hb.Ket, observable: hb.OperatorForm, n_seeds: int,
                          base_seed: int) -> np.ndarray:
    dim = system.space.dim
    counts = np.zeros(dim)
    for i in range(n_seeds):
        traj = pt.weak_sequence(system, observable, g=0.2, steps=400,
                                rng_seed=base_seed + i)
        weights = np.abs(traj.final_state.amplitudes) ** 2
        counts[int(np.argmax(weights))] += 1
    return counts / n_seeds


def criterion_7_continuum() -> str:
    t0 = time.perf_counter()
    n_seeds = 2000
    sp2 = hb.space(("sys", ["1", "2"]))
    psi2 = hb.Ket(sp2, np.array([1, 1]) / SQ2)
    obs2 = hb.Diagonal(sp2, np.array([1.0, 2.0]))
    freqs2 = _collapse_frequencies(psi2, obs2, n_seeds, base_seed=7000)
    # independent oracle: projective Born statistics over the same seed count
    oracle = np.zeros(2)
    for i in range(n_seeds):
        lam, _ = pt.strong_measure(psi2, obs2, rng_seed=90_000 + i)
        oracle[int(lam) - 1] += 1
    oracle /= n_seeds
    _check(abs(oracle[0] - 0.5) <= 0.03, f"oracle frequency {oracle[0]} off 0.5")
    _check(abs(freqs2[0] - 0.5) <= 0.03,
           f"two-level collapse frequency {freqs2[0]}, want 0.5 +- 0.03")

    sp3 = hb.space(("box", ["box1", "box2", "box3"]))
    psi3 = hb.Ket(sp3, np.ones(3) / SQ3)
    obs3 = hb.Diagonal(sp3, np.array([1.0, 2.0, 3.0]))
    freqs3 = _collapse_frequencies(psi3, obs3, n_seeds, base_seed=11_000)
    for k, f in enumerate(freqs3, start=1):
        _check(abs(f - 1 / 3) <= 0.03, f"box{k} frequency {f}, want 1/3 +- 0.03")
    return (f"two-level freq {freqs2[0]:.4f} (oracle {oracle[0]:.4f}); box freqs "
            + ", ".join(f"{f:.4f}" for f in freqs3)
            + f"; {_runtime(time.perf_counter() - t0, 60.0)}")


def _fixture_matches(scenario_id: str) -> None:
    spec = dsl.load_file(dsl.builtin_scenario_path(scenario_id))
    got = dsl.evaluate(spec, scenario_id=scenario_id)
    runner = sc.SCENARIOS[scenario_id].runner
    ref = runner(trials=16, rng_seed=1) if scenario_id == "four_mirror" else runner()
    for key, value in got.probabilities.items():
        _check(key in ref.probabilities, f"{scenario_id}: probability {key} missing")
        _check(abs(ref.probabilities[key] - value) <= 1e-10,
               f"{scenario_id}: probability {key} differs")
    for key, value in got.weak_values.items():
        _check(key in ref.weak_values, f"{scenario_id}: weak value {key} missing")
        _check(abs(ref.weak_values[key] - value) <= 1e-10,
               f"{scenario_id}: weak value {key} differs")
    for key, state in got.states_by_epoch.items():
        _check(key in ref.states_by_epoch, f"{scenario_id}: state {key} missing")
        ref_state = ref.states_by_epoch[key]
        _check(ref_state.space == state.space, f"{scenario_id}: state {key} space differs")
        diff = float(np.max(np.abs(ref_state.amplitudes - state.amplitudes)))
        _check(diff <= 1e-10, f"{scenario_id}: state {key} differs by {diff:.2e}")
    _check(bool(got.probabilities) or bool(got.weak_values),
           f"{scenario_id}: fixture reports nothing to compare")


FUZZ_PIECES = ("FACTORS", "INITIAL", "GATES", "POSTSELECT", "OBSERVABLES",
               "beamsplitter", "swap_map", "projector_select", "custom_unitary",
               "proj", "id", "sqrt", "as", "->", ":", "=", "*", "(", ")", "[", "]",
               ";", ",", "1/sqrt(3)", "i", "#", "-", "+")


def _fuzz_parser(n_inputs: int, seed: int) -> int:
    import random
    import string

    rng = random.Random(seed)
    alphabet = string.printable + "αβ∑'»→\x00"
    crashes = 0
    for _ in range(n_inputs):
        if rng.random() < 0.5:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 160)))
        else:
            toks = [rng.choice(FUZZ_PIECES) if rng.random() < 0.6
                    else "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 8)))
                    for _ in range(rng.randrange(0, 32))]
            text = rng.choice([" ", "\n", "  "]).join(toks)
        try:
            dsl.parse(text)
        except dsl.ScenarioFileError:
            pass
        except Exception:
            crashes += 1
    return crashes


def criterion_8_dsl() -> str:
    for scenario_id in sc.SCENARIOS:
        _fixture_matches(scenario_id)
    crashes = _fuzz_parser(100_000, seed=2024)
    _check(crashes == 0, f"{crashes} parser crashes on fuzzed input")
    return ("all 6 shipped .scn fixtures match their scenarios within 1e-10; "
            "100000 fuzzed inputs, zero crashes")


def criterion_9_properties() -> str:
    # projector-set weak value sums
    pre, post = sc.three_boxes_selections("box")
    tsv = tsvf.TwoStateVector(pre, post)
    projs = [hb.Operator.projector(pre.space, {"box": lab})
             for lab in pre.space.factor("box").labels]
    total = tsvf.projector_weak_value_sum(tsv, projs)
    _check(abs(total - 1.0) <= 1e-10, f"three-box projector sum {total}")
    pre_h, post_h = sc.hardy_selections()
    tsv_h = tsvf.TwoStateVector(pre_h, post_h)
    projs_h = list(sc._hardy_pair_projectors(pre_h.space).values())
    total_h = tsvf.projector_weak_value_sum(tsv_h, projs_h)
    _check(abs(total_h - 1.0) <= 1e-10, f"Hardy pair projector sum {total_h}")

    # post-selection probabilities over complete outcome sets sum to 1
    rng = np.random.default_rng(99)
    sp = hb.space(("a", ["a0", "a1", "a2"]), ("b", ["b0", "b1"]))
    for _ in range(20):
        amps = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
        state = hb.Ket(sp, amps).unit()
        total_p = 0.0
        for lab in ("a0", "a1", "a2"):
            p, _ = tsvf.post_select(state, hb.Operator.projector(sp, {"a": lab}))
            total_p += p
        _check(abs(total_p - 1.0) <= 1e-10, f"outcome probabilities sum to {total_p}")

    # weak-value linearity on random operator pairs
    dim = sp.dim
    pre_amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    post_amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    tsv_r = tsvf.TwoStateVector(hb.Ket(sp, pre_amps).unit(), hb.Ket(sp, post_amps).unit())
    for _ in range(100):
        a = hb.Operator(sp, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        b = hb.Operator(sp, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        lhs = tsvf.weak_value(tsv_r, hb.Operator(sp, alpha * a.matrix + beta * b.matrix))
        rhs = alpha * tsvf.weak_value(tsv_r, a) + beta * tsvf.weak_value(tsv_r, b)
        _check(abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)),
               f"linearity violated: {lhs} vs {rhs}")

    # every gate-library unitary preserves norms
    fm_space = sc._four_mirror_space()
    photon = fm_space.factor("photon")
    unitaries = [
        hb.Operator(hb.space(("m", ["a", "b"])), hb.BS_SYMMETRIC),
        hb.Operator(hb.space(("m", ["a", "b"])), hb.SPLIT_REAL),
        hb.Operator(hb.space(("p", list(photon.labels))),
                    hb.mode_coupler(photon, ("L_u", "L_d"), ("R_u", "R_d"))),
        hb.flag_flip(fm_space, {"photon": "L_u"}, "det_L", "READY_L", "CLICK_L"),
        hb.label_swap(sc._collision_space(), ["A1", "A2"], ["1''", "2'"], ["1'''", "2'''"]),
    ]
    for u in unitaries:
        for _ in range(20):
            amps = rng.normal(size=u.space.dim) + 1j * rng.normal(size=u.space.dim)
            k = hb.Ket(u.space, amps)
            drift = abs(hb.apply(u, k).norm() - k.norm())
            _check(drift <= 1e-12, f"unitary norm drift {drift:.2e}")
    return ("projector sums 1 within 1e-10; complete-outcome probabilities sum to 1; "
            "linearity on 100 random operator pairs within 1e-10; gate-library norm "
            "drift below 1e-12")


@dataclass(frozen=True)
class Criterion:
    number: int
    title: str
    check: Callable[[], str]


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "three-box weak values (1, 1, -1)", criterion_1_three_boxes),
    Criterion(2, "Hardy pair weak values and marginal cancellation", criterion_2_hardy),
    Criterion(3, "oblivion evolution, ranks, and time reversal", criterion_3_oblivion),
    Criterion(4, "elastic collision and interaction-free restoration",
              criterion_4_elastic_collision),
    Criterion(5, "four-mirror counterfactual statistics", criterion_5_four_mirror),
    Criterion(6, "weak-limit convergence of pointer means", criterion_6_weak_limit),
    Criterion(7, "weak-to-projective continuum collapse statistics",
              criterion_7_continuum),
    Criterion(8, "scenario-file fixtures and parser totality", criterion_8_dsl),
    Criterion(9, "algebraic property suites", criterion_9_properties),
)


def run_all() -> int:
    """Run every criterion, emit one PASS/FAIL line each, return failure count.
    A criterion that raises anything but AssertionError fails with the
    exception's type and message, and the later criteria still run."""
    failures = 0
    for crit in CRITERIA:
        try:
            detail = crit.check()
            print(f"PASS criterion {crit.number}: {crit.title} ({detail})")
        except Exception as e:
            failures += 1
            reason = e if isinstance(e, AssertionError) else f"{type(e).__name__}: {e}"
            print(f"FAIL criterion {crit.number}: {crit.title} ({reason})")
    return failures

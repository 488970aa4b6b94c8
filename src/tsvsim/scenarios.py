"""Executable fixtures for the built-in pre/post-selection experiments.

Each run_* function rebuilds its experiment from the primitive operations
(splits, detector couplings, projections) and returns a ScenarioResult with
exact states, probabilities, weak values, and Schmidt ranks. Only
run_four_mirror's trials are sampled (Monte Carlo); the pointer readouts of
run_three_path_photon are deterministic expectation values, and everything
else is closed-form state evolution.

Conventions used throughout:
  * particle splits are prepared with the phase-absorbed real 50/50 unitary,
    so superpositions carry equal real amplitudes and time reversal is the
    same matrix applied again;
  * detectors are explicit READY/CLICK factors, flipped by a permutation
    unitary on the triggering path states, so "the detector stayed silent"
    is a genuine projection onto READY;
  * annihilation photons and their detectors are merged into one CLICK flag
    per intersection.

Scenarios are pure given their parameters and seed; concurrent invocation
needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral
from typing import Callable, Mapping

import numpy as np

from . import hilbert as hb
from . import pointer as pt
from . import tsvf
from .hilbert import Diagonal, Ket, Operator, OperatorForm

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


EPOCH_ORDER = ("t0", "t1", "t2", "final")  # the canonical epochs, in schedule order


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Typed output of one scenario run.

    states_by_epoch uses the canonical epoch keys t0/t1/t2/final, recorded in
    schedule order; a scenario may add documented branch keys (e.g.
    "collision") for conditioned states outside the main post-selection
    chain. trial_stats holds Monte Carlo or pointer-readout quantities and is
    empty for fully exact scenarios.
    """

    scenario_id: str
    states_by_epoch: Mapping[str, Ket]
    probabilities: Mapping[str, float]
    weak_values: Mapping[str, complex] = field(default_factory=dict)
    schmidt_ranks: Mapping[str, int] = field(default_factory=dict)
    trial_stats: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, p in self.probabilities.items():
            if not (-1e-12 <= p <= 1.0 + 1e-12):
                raise ValueError(f"probability {name!r} = {p!r} outside [0, 1]")
        canonical = [EPOCH_ORDER.index(k) for k in self.states_by_epoch
                     if k in EPOCH_ORDER]
        if canonical != sorted(canonical):
            raise ValueError("epoch states recorded out of schedule order")


# ---------------------------------------------------------------------------
# Four-mirror interferometer: silence as a physical agent


@lru_cache(maxsize=1)
def _four_mirror_space() -> hb.Space:
    return hb.space(
        ("photon", ["L_u", "L_d", "R_u", "R_d"]),
        ("det_L", ["READY_L", "CLICK_L"]),
        ("det_R", ["READY_R", "CLICK_R"]),
    )


@lru_cache(maxsize=1)
def _four_mirror_static():
    sp = _four_mirror_space()
    photon = sp.factor("photon")
    bs = hb.mode_coupler(photon, ("L_u", "L_d"), ("R_u", "R_d"))
    flip_l = hb.flag_flip(sp, {"photon": "L_u"}, "det_L", "READY_L", "CLICK_L")
    flip_r = hb.flag_flip(sp, {"photon": "R_u"}, "det_R", "READY_R", "CLICK_R")
    silent_l = Operator.projector(sp, {"det_L": "READY_L"})
    silent_r = Operator.projector(sp, {"det_R": "READY_R"})
    click_l = Operator.projector(sp, {"det_L": "CLICK_L"})
    t0 = hb.from_amplitudes(sp, {
        ("L_u", "READY_L", "READY_R"): 1 / SQ2,
        ("L_d", "READY_L", "READY_R"): 1 / SQ2,
    })
    return bs, flip_l, flip_r, silent_l, silent_r, click_l, t0


def run_four_mirror(trials: int = 10_000, rng_seed: int = 42) -> ScenarioResult:
    """Single photon bouncing between four mirrors through a central splitter.

    Loosened mirrors act as non-absorbing presence detectors: a click marks
    the photon's impact but the photon keeps oscillating. The exact pipeline
    (with explicit detector factors) establishes the per-probe probabilities;
    the Monte Carlo part runs `trials` independent photons through the
    three-stage protocol:

      (a) probe the L_u mirror once; in half the cases it stays silent,
          pinning the photon to L_d,
      (b) keep only L_u armed: the round trip recombines exactly onto L_d and
          L_u can never click again,
      (c) arm R_u as well; once R_u has also been silent the interference is
          broken and L_u clicks sooner or later (probability 1/2 per trip).
    """
    if isinstance(trials, bool) or not isinstance(trials, Integral) or trials < 1:
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")
    # None would seed from OS entropy, and the run would not be reproducible
    if isinstance(rng_seed, bool) or not isinstance(rng_seed, Integral) or rng_seed < 0:
        raise ValueError(f"rng_seed must be an int >= 0, got {rng_seed!r}")
    bs, flip_l, flip_r, silent_l, silent_r, click_l, t0 = _four_mirror_static()
    s = hb.apply(flip_l, t0)
    p_silent, t1 = tsvf.post_select(s, silent_l)

    # with only L_u armed, a full round trip restores |L_d> exactly
    s = hb.apply_to_factors(t1, bs, ["photon"])
    s = hb.apply_to_factors(s, bs, ["photon"])
    p_lonely_click = tsvf.born_probability(hb.apply(flip_l, s), click_l)

    s = hb.apply_to_factors(t1, bs, ["photon"])
    s = hb.apply(flip_r, s)
    p_ru_silent, t2 = tsvf.post_select(s, silent_r)

    s = hb.apply_to_factors(t2, bs, ["photon"])
    s = hb.apply(flip_l, s)
    p_lu_click, final = tsvf.post_select(s, click_l)

    probabilities = {
        "first_probe_silent": p_silent,
        "lu_click_per_trip_lonely": p_lonely_click,
        "ru_silent_given_silence": p_ru_silent,
        "lu_click_after_double_silence": p_lu_click,
    }
    trial_stats = _four_mirror_trials(trials, rng_seed)
    return ScenarioResult(
        scenario_id="four_mirror",
        states_by_epoch={"t0": t0, "t1": t1, "t2": t2, "final": final},
        probabilities=probabilities,
        trial_stats=trial_stats,
    )


def _probe(rows: np.ndarray, of: np.ndarray, mode: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized presence probe at one mode over trials that share states.

    Trial t holds the photon state rows[of[t]]. Each trial is Born-sampled;
    each (row, outcome) pair some trial takes is collapsed once, and children
    that come out byte-identical merge into one row. Equivalent to coupling a
    READY/CLICK flag and projecting it (checked against the explicit detector
    pipeline in the tests); the photon is kept either way because the
    loosened mirror only registers the impact.

    Certain silence: when every trial holds one state whose probability at
    `mode` is exactly 0.0, no draw in [0, 1) can click. The generator is then
    advanced past the trials' draws, so later probes read the same stream;
    this relies on numpy's PCG64 filling each float64 from one 64-bit output
    (test_advance_skips_as_many_draws_as_outputs pins it). The state is
    collapsed once as a silent child, and `of` comes back unchanged, with
    no per-trial gather or scatter. A single state that some trial holds has
    no copy to merge with and is not left unheld; several states take the
    general path, which merges equal children and drops rows no trial holds.
    Returns the new (rows, of) and the boolean click mask over trials."""
    amps = rows[:, mode]
    mag = np.abs(amps)
    p = mag ** 2
    if len(rows) == 1 and len(of) and not p[0]:
        rng.bit_generator.advance(len(of))
        # as below for a silent child of p == 0.0: +0.0 at mode, and a division by
        # sqrt(1 - 0) = 1.0, which can flip the sign of a zero part elsewhere
        states = rows / 1.0
        states[:, mode] = 0.0
        return states, of, np.zeros(len(of), dtype=bool)
    clicked = rng.random(len(of)) < p[of]
    child = 2 * of + clicked  # row r's silent child is 2r, its clicked child 2r + 1
    taken = np.zeros(2 * len(rows), dtype=bool)
    taken[child] = True
    kids = np.flatnonzero(taken)
    parent, hit = kids // 2, kids % 2 == 1
    states = rows[parent]
    # a clicked child keeps only its mode's phase, a silent child loses the mode
    phase = np.divide(amps[parent], mag[parent], out=np.zeros(len(kids), dtype=complex),
                      where=hit)
    np.copyto(states, 0.0, where=hit[:, None])
    states[:, mode] = phase
    # a silent child has p <= draw < 1, a clicked one may have p > 1 by rounding:
    # take the root for silent children only, and divide clicked ones by 1.0 (exact)
    keep = np.sqrt(1.0 - p[parent], out=np.ones(len(kids)), where=~hit)
    states /= np.where(keep > 1e-9, keep, 1.0)[:, None]
    # merge on bytes, not values: np.unique(axis=0) would merge -0.0 with +0.0
    _, first, merged = np.unique(states.view(f"V{states.itemsize * 4}").ravel(),
                                 return_index=True, return_inverse=True)
    row_of = np.zeros(len(taken), dtype=np.intp)
    row_of[kids] = merged
    return states[first], row_of[child], clicked


LONELY_TRIPS = 100  # round trips with only L_u armed, stage (b)
ARMED_TRIPS = 20    # round trips with both mirrors armed, stage (c)


def _four_mirror_trials(trials: int, rng_seed: int) -> dict[str, float]:
    """Stages (a)-(c) over `trials` photons, held as distinct states `rows`
    (k x 4) and one row index per trial (`of`)."""
    rng = np.random.default_rng(rng_seed)
    bs_t = _four_mirror_static()[0].T  # right-multiplication by bs.T applies bs to each row
    l_u, r_u = 0, 2

    start = np.array([[1 / SQ2, 1 / SQ2, 0, 0]], dtype=complex)
    rows, of, clicked = _probe(start, np.zeros(trials, dtype=np.intp), l_u, rng)
    silent = ~clicked
    stats: dict[str, float] = {"first_silent_fraction": float(silent.mean())}

    # (b) only L_u armed, 100 round trips from |L_d>
    lone_rows, lone = rows, of[silent]
    lonely_clicks = 0
    for _ in range(LONELY_TRIPS):
        lone_rows = lone_rows @ bs_t @ bs_t
        lone_rows, lone, clicked = _probe(lone_rows, lone, l_u, rng)
        lonely_clicks += np.count_nonzero(clicked)
    stats["lonely_lu_clicks"] = float(lonely_clicks)

    # (c) R_u armed as well; keep the double-silence subset
    armed_rows, armed, ru_clicked = _probe(rows @ bs_t, of[silent], r_u, rng)
    armed = armed[~ru_clicked]
    stats["double_silence_fraction"] = float((~ru_clicked).mean()) if len(ru_clicked) else 0.0
    n_armed = len(armed)
    first_click = np.full(n_armed, np.iinfo(np.int64).max, dtype=np.int64)
    exposures = 0
    clicks_seen = 0
    for trip in range(1, ARMED_TRIPS + 1):
        armed_rows, armed, lu = _probe(armed_rows @ bs_t, armed, l_u, rng)
        exposures += n_armed
        clicks_seen += np.count_nonzero(lu)
        fresh = lu & (first_click == np.iinfo(np.int64).max)
        first_click[fresh] = trip
        armed_rows, armed, _ = _probe(armed_rows @ bs_t, armed, r_u, rng)
    for k in (1, 5, 10, 20):
        stats[f"lu_click_fraction_within_{k}"] = (
            float((first_click <= k).mean()) if n_armed else 0.0
        )
    stats["lu_click_per_trip_empirical"] = clicks_seen / exposures if exposures else 0.0
    return stats


# ---------------------------------------------------------------------------
# Electron-positron interaction with annihilation detectors


@lru_cache(maxsize=1)
def _oblivion_static():
    sp = hb.space(
        ("electron", ["1'", "1''"]),
        ("positron", ["2'", "2''"]),
        ("det1", ["READY1", "CLICK1"]),
        ("det2", ["READY2", "CLICK2"]),
    )
    ready = ("READY1", "READY2")
    t0 = hb.from_amplitudes(sp, {
        ("1'", "2'") + ready: 0.5,
        ("1'", "2''") + ready: 0.5,
        ("1''", "2'") + ready: 0.5,
        ("1''", "2''") + ready: 0.5,
    })
    flip1 = hb.flag_flip(sp, {"electron": "1''", "positron": "2'"},
                         "det1", "READY1", "CLICK1")
    flip2 = hb.flag_flip(sp, {"electron": "1'", "positron": "2'"},
                         "det2", "READY2", "CLICK2")
    projs = {
        "click1": Operator.projector(sp, {"det1": "CLICK1"}),
        "no1": Operator.projector(sp, {"det1": "READY1"}),
        "click2": Operator.projector(sp, {"det2": "CLICK2"}),
        "no2": Operator.projector(sp, {"det2": "READY2"}),
    }
    return t0, flip1, flip2, projs


def run_oblivion() -> ScenarioResult:
    """Electron and positron split over two paths each, with two annihilation
    detectors watching the path intersections at successive times.

    Conditioned on both detectors staying silent, the pair is first driven
    into an entangled state and then back to a product: the positron ends up
    pinned to one path (its split is no longer reversible) while the electron
    recovers its full superposition. Schmidt ranks across the electron|rest
    cut track the rise and erasure of the entanglement: 1 -> 2 -> 1.
    """
    t0, flip1, flip2, projs = _oblivion_static()
    # first crossing: electron path 1'' meets positron path 2'
    s = hb.apply(flip1, t0)
    p_click1 = tsvf.born_probability(s, projs["click1"])
    p_no1, t1 = tsvf.post_select(s, projs["no1"])
    # second crossing: electron path 1' meets positron path 2'
    s = hb.apply(flip2, t1)
    p_click2 = tsvf.born_probability(s, projs["click2"])
    p_no2, t2 = tsvf.post_select(s, projs["no2"])

    ranks = {ep: hb.schmidt_rank(state, ["electron"])[0]
             for ep, state in (("t0", t0), ("t1", t1), ("t2", t2))}
    return ScenarioResult(
        scenario_id="oblivion",
        states_by_epoch={"t0": t0, "t1": t1, "t2": t2},
        probabilities={
            "click1": p_click1,
            "no_click1": p_no1,
            "click2_given_no_click1": p_click2,
            "no_click2": p_no2,
            "no_clicks": p_no1 * p_no2,
        },
        schmidt_ranks=ranks,
    )


def time_reversal_check(result: ScenarioResult, epoch: str = "t2") -> tuple[float, float]:
    """Reverse the splitting of each particle in the chosen epoch state and
    report the probability of each returning to its source mode (1' resp. 2').

    On the silent-detectors final state the electron returns to its source
    with certainty while the positron does so only half the time: the
    operational signature that only the positron's momentum changed.
    """
    s = hb.apply_to_factors(result.states_by_epoch[epoch], hb.SPLIT_REAL, ["electron"])
    s = hb.apply_to_factors(s, hb.SPLIT_REAL, ["positron"])
    return (tsvf.born_probability(s, Operator.projector(s.space, {"electron": "1'"})),
            tsvf.born_probability(s, Operator.projector(s.space, {"positron": "2'"})))


# ---------------------------------------------------------------------------
# Elastic-collision variant: interaction-free position measurement


@lru_cache(maxsize=1)
def _collision_space() -> hb.Space:
    return hb.space(
        ("A1", ["1'", "1''", "1'''", "1''''"]),
        ("A2", ["2'", "2''", "2'''", "2''''"]),
        ("coll_det", ["READY", "CLICK"]),
    )


def run_elastic_collision() -> ScenarioResult:
    """Two superposed atoms that elastically collide instead of annihilating.

    A collision at either crossing diverts the atoms to primed-out paths; the
    diverted branches stay mutually coherent through the detector's long
    exposure, which is modeled by projecting only at the end of the Critical
    Interval. Silence on the diverted paths leaves A2 pinned to its far path
    while A1 returns to its initial superposition: an interaction-free
    position measurement of A2.
    """
    sp = _collision_space()
    t0 = hb.from_amplitudes(sp, {
        ("1'", "2'", "READY"): 0.5,
        ("1'", "2''", "READY"): 0.5,
        ("1''", "2'", "READY"): 0.5,
        ("1''", "2''", "READY"): 0.5,
    })
    # crossing 1: A1 on 1'' meets A2 on 2'; both bounce onto diverted paths
    swap1 = hb.label_swap(sp, ["A1", "A2"], ["1''", "2'"], ["1'''", "2'''"])
    # crossing 2: A1 on 1' meets A2 on 2'
    swap2 = hb.label_swap(sp, ["A1", "A2"], ["1'", "2'"], ["1''''", "2'''"])
    t1 = hb.apply(swap1, t0)
    t2 = hb.apply(swap2, t1)

    # detectors on the diverted paths fire during the exposure window
    flip = hb.label_swap(sp, ["A2", "coll_det"], ["2'''", "READY"], ["2'''", "CLICK"])
    flip2 = hb.label_swap(sp, ["A2", "coll_det"], ["2''''", "READY"], ["2''''", "CLICK"])
    exposed = hb.apply(flip2, hb.apply(flip, t2))
    p_none, no_collision = tsvf.post_select(
        exposed, Operator.projector(sp, {"coll_det": "READY"}))
    p_coll, collision = tsvf.post_select(
        exposed, Operator.projector(sp, {"coll_det": "CLICK"}))

    ranks = {
        "t0": hb.schmidt_rank(t0, ["A1"])[0],
        "t2": hb.schmidt_rank(t2, ["A1"])[0],
        "final": hb.schmidt_rank(no_collision, ["A1"])[0],
    }
    return ScenarioResult(
        scenario_id="elastic_collision",
        states_by_epoch={"t0": t0, "t1": t1, "t2": t2,
                         "final": no_collision, "collision": collision},
        probabilities={"no_collision": p_none, "collision": p_coll},
        schmidt_ranks=ranks,
    )


# ---------------------------------------------------------------------------
# Three boxes


@lru_cache(maxsize=2)
def three_boxes_selections(factor: str) -> tuple[Ket, Ket]:
    """Pre/post pair on one factor with labels factor1..factor3: an even
    superposition, post-selected with the third sign flipped."""
    sp = hb.space((factor, [f"{factor}{i}" for i in (1, 2, 3)]))
    pre = hb.Ket(sp, np.array([1, 1, 1]) / SQ3)
    post = hb.Ket(sp, np.array([1, 1, -1]) / SQ3)
    return pre, post


def run_three_boxes() -> ScenarioResult:
    """Particle prepared evenly over three boxes and post-selected with the
    third box's sign flipped. The box-occupation weak values come out
    (1, 1, -1): two ordinary boxes plus one odd, still summing to one particle.
    """
    pre, post = three_boxes_selections("box")
    sp = pre.space
    tsv = tsvf.TwoStateVector(pre, post)
    projs = {f"P{i}": Operator.projector(sp, {"box": lab})
             for i, lab in enumerate(sp.factor("box").labels, start=1)}
    weak_values = {key: tsvf.weak_value(tsv, p) for key, p in projs.items()}
    total = tsvf.projector_weak_value_sum(tsv, list(projs.values()))
    p_post, collapsed = tsvf.post_select(pre, Operator.ket_projector(post))
    return ScenarioResult(
        scenario_id="three_boxes",
        states_by_epoch={"t0": pre, "final": collapsed},
        probabilities={"postselect": p_post},
        weak_values={**weak_values, "projector_sum": total},
    )


# ---------------------------------------------------------------------------
# Hardy's overlapping interferometers


@lru_cache(maxsize=1)
def hardy_selections() -> tuple[Ket, Ket]:
    """Pre/post pair on the reduced overlapping/non-overlapping path space."""
    sp = hb.space(("positron", ["O+", "NO+"]), ("electron", ["O-", "NO-"]))
    pre = hb.from_amplitudes(sp, {
        ("O+", "NO-"): 1 / SQ3,
        ("NO+", "O-"): 1 / SQ3,
        ("NO+", "NO-"): 1 / SQ3,
    })
    post = hb.from_amplitudes(sp, {
        ("O+", "O-"): 0.5, ("O+", "NO-"): -0.5,
        ("NO+", "O-"): -0.5, ("NO+", "NO-"): 0.5,
    })
    return pre, post


def _hardy_pair_projectors(sp: hb.Space) -> dict[str, Diagonal]:
    # key convention: electron (minus) label first
    return {
        "OO": Operator.projector(sp, {"electron": "O-", "positron": "O+"}),
        "NO_O": Operator.projector(sp, {"electron": "NO-", "positron": "O+"}),
        "O_NO": Operator.projector(sp, {"electron": "O-", "positron": "NO+"}),
        "NO_NO": Operator.projector(sp, {"electron": "NO-", "positron": "NO+"}),
    }


@lru_cache(maxsize=1)
def _hardy_static():
    """Initial state and fixed gates/projectors of the Hardy setup."""
    sp = hb.space(
        ("positron", ["O+", "NO+", "C+", "D+"]),
        ("electron", ["O-", "NO-", "C-", "D-"]),
        ("ann_det", ["READY", "CLICK"]),
    )
    t0 = hb.from_amplitudes(sp, {
        ("O+", "O-", "READY"): 0.5,
        ("O+", "NO-", "READY"): 0.5,
        ("NO+", "O-", "READY"): 0.5,
        ("NO+", "NO-", "READY"): 0.5,
    })
    flip = hb.flag_flip(sp, {"positron": "O+", "electron": "O-"},
                        "ann_det", "READY", "CLICK")
    silent = Operator.projector(sp, {"ann_det": "READY"})
    out_coupler = hb.mode_coupler(sp.factor("positron"), ("O+", "NO+"),
                                  ("C+", "D+"), block=hb.SPLIT_REAL)
    out_coupler_e = hb.mode_coupler(sp.factor("electron"), ("O-", "NO-"),
                                    ("C-", "D-"), block=hb.SPLIT_REAL)
    dd_proj = Operator.projector(sp, {"positron": "D+", "electron": "D-"})
    marg_projs = {
        "NO_minus": Operator.projector(sp, {"electron": "NO-"}),
        "NO_plus": Operator.projector(sp, {"positron": "NO+"}),
    }
    return (t0, flip, silent, out_coupler, out_coupler_e, dd_proj,
            _hardy_pair_projectors(sp), marg_projs)


def run_hardy() -> ScenarioResult:
    """Electron and positron interferometers overlapping in one corner.

    Surviving the annihilation watchdog removes the both-overlapping branch;
    clicks at the two normally-dark ports post-select a state that naively
    requires the impossible branch. The pair-occupation weak values resolve
    the tension: (OO, NO_O, O_NO, NO_NO) = (0, 1, 1, -1), and the negative
    pair cancels the positive ones in every single-particle marginal.
    """
    (t0, flip, silent, out_coupler, out_coupler_e, dd_proj,
     pair_projs, marg_projs) = _hardy_static()
    sp = t0.space
    s = hb.apply(flip, t0)
    p_no_ann, t1 = tsvf.post_select(s, silent)

    # recombining splitters route O/NO onto the bright port C and dark port D
    t2 = hb.apply_to_factors(t1, out_coupler, ["positron"])
    t2 = hb.apply_to_factors(t2, out_coupler_e, ["electron"])
    p_dd, final = tsvf.post_select(t2, dd_proj)

    # weak values live between the watchdog and the recombiners: pull the
    # dark-port post-selection back through the (self-inverse) couplers
    post_full = hb.basis_state(sp, "D+", "D-", "READY")
    post_full = hb.apply_to_factors(post_full, out_coupler, ["positron"])
    post_full = hb.apply_to_factors(post_full, out_coupler_e, ["electron"])
    tsv_full = tsvf.TwoStateVector(t1, post_full)
    weak_values = {k: tsvf.weak_value(tsv_full, p) for k, p in pair_projs.items()}
    for key, proj in marg_projs.items():
        weak_values[key] = tsvf.weak_value(tsv_full, proj)

    # the pair projectors resolve the identity on the reduced path space
    pre_r, post_r = hardy_selections()
    tsv_r = tsvf.TwoStateVector(pre_r, post_r)
    projs_r = list(_hardy_pair_projectors(pre_r.space).values())
    weak_values["projector_sum"] = tsvf.projector_weak_value_sum(tsv_r, projs_r)

    return ScenarioResult(
        scenario_id="hardy",
        states_by_epoch={"t0": t0, "t1": t1, "t2": t2, "final": final},
        probabilities={"no_annihilation": p_no_ann, "DD": p_dd},
        weak_values=weak_values,
    )


# ---------------------------------------------------------------------------
# Three-path photon with one weak pointer per path


THREE_PATH_POINTER = pt.PointerWavefunction(n_bins=41, spacing=0.25)  # three joint pointers


def run_three_path_photon(option: str = "recombine_all",
                          g: float = 0.05) -> ScenarioResult:
    """Photon split 1/3 - 2/3 and again into three equal beams, with a weak
    pointer riding on every path.

    recombine_all: reunite all three beams and keep the destructive port with
    the third path's sign flipped; the conditioned pointer shifts reproduce
    the (1, 1, -1) box pattern, third pointer pulled the wrong way.

    recombine_two: merge only the two beams from the second split, then
    measure position sharply. Each outcome's conditioned weak readouts total
    one photon on one side and exactly nothing on the other, the nothing
    being a cancellation of +1/2 and +1/2 against path1's 0 (single outcome)
    or of path1's lone +1 (merged outcome).
    """
    if option not in ("recombine_all", "recombine_two"):
        raise ValueError(f"unknown option {option!r}")
    gval = pt._g(g)
    pre, post = three_boxes_selections("path")
    sp = pre.space
    path = sp.factor("path")
    projs = [Operator.projector(sp, {"path": lab}) for lab in path.labels]

    joint = pre
    for p in projs:
        joint = pt.couple(joint, p, THREE_PATH_POINTER, gval)

    # key suffix -> (post-selected ket for the weak values, projector for the
    # pointer means on the joint state)
    if option == "recombine_all":
        states = {"t0": pre}
        probabilities = {"postselect_third_negative":
                         tsvf.TwoStateVector(pre, post).selection_probability()}
        selections = {"": (post, Operator.ket_projector(post))}
    else:
        # merge paths 2 and 3 back into the parent beam, then measure sharply;
        # each outcome's post-selection is pulled back through the merger
        merge = hb.mode_coupler(path, ("path2", "path3"), ("path2", "path3"),
                                block=hb.SPLIT_REAL)
        recombined = hb.apply_to_factors(pre, merge, ["path"])
        joint = hb.apply_to_factors(joint, merge, ["path"])
        outcomes = {"single": "path1", "merged": "path2"}
        states = {"t0": pre, "final": recombined}
        probabilities = {f"beam_{name}": recombined.probability([lab])
                         for name, lab in outcomes.items()}
        selections = {f"_given_{name}": (
            hb.apply_to_factors(hb.basis_state(sp, lab), merge.conj().T, ["path"]),
            Operator.projector(sp, {"path": lab})) for name, lab in outcomes.items()}

    weak_values: dict[str, complex] = {}
    trial_stats: dict[str, float] = {}
    for suffix, (post_ket, post_proj) in selections.items():
        tsv = tsvf.TwoStateVector(pre, post_ket)
        shifts = pt.pointer_mean(joint, post_proj)
        for i, (p, shift) in enumerate(zip(projs, shifts), start=1):
            weak_values[f"P{i}{suffix}"] = tsvf.weak_value(tsv, p)
            trial_stats[f"shift_path{i}{suffix}"] = shift
            if gval > 0:
                trial_stats[f"shift_over_g_path{i}{suffix}"] = shift / gval
        if option == "recombine_two" and gval > 0:
            trial_stats[f"total_over_g_beam1{suffix}"] = shifts[0] / gval
            trial_stats[f"total_over_g_beam23{suffix}"] = (shifts[1] + shifts[2]) / gval
    return ScenarioResult(
        scenario_id="three_path_photon",
        states_by_epoch=states,
        probabilities=probabilities,
        weak_values=weak_values,
        trial_stats=trial_stats,
    )


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class ScenarioInfo:
    runner: Callable[..., ScenarioResult]
    description: str


SCENARIOS: dict[str, ScenarioInfo] = {
    "four_mirror": ScenarioInfo(
        run_four_mirror,
        "photon in a four-mirror interferometer: one silent detector banishes "
        "it from a corner, a second silence makes that corner reachable"),
    "oblivion": ScenarioInfo(
        run_oblivion,
        "electron-positron pair with annihilation watchdogs: entanglement "
        "rises and erases, one particle changed, the other restored"),
    "elastic_collision": ScenarioInfo(
        run_elastic_collision,
        "two superposed atoms colliding elastically: silence on the diverted "
        "paths is an interaction-free position measurement"),
    "three_boxes": ScenarioInfo(
        run_three_boxes,
        "particle over three boxes, post-selected with the third sign flipped: "
        "box weak values (1, 1, -1)"),
    "hardy": ScenarioInfo(
        run_hardy,
        "overlapping interferometers with an annihilation watchdog: pair weak "
        "values (0, 1, 1, -1) and vanishing single-particle marginals"),
    "three_path_photon": ScenarioInfo(
        run_three_path_photon,
        "photon over three paths with a weak pointer on each: recombination "
        "choice reveals or hides the negative-mass path"),
}


def sweep_context(scenario_id: str) -> tuple[Ket, OperatorForm, Operator] | None:
    """(pre-selected ket, swept observable, post-selection projector) for the
    scenarios with a canonical odd weak value; None for the others."""
    factor = {"three_boxes": "box", "three_path_photon": "path"}.get(scenario_id)
    if factor:
        pre, post = three_boxes_selections(factor)
        obs = Operator.projector(pre.space, {factor: f"{factor}3"})
    elif scenario_id == "hardy":
        pre, post = hardy_selections()
        obs = _hardy_pair_projectors(pre.space)["NO_NO"]
    else:
        return None
    return pre, obs, Operator.ket_projector(post)


def weak_readout(context: tuple[Ket, OperatorForm, Operator], g: float,
                 ptr: pt.PointerWavefunction = pt.PointerWavefunction()) -> float:
    """shift/g of a pointer coupled at strength g to a sweep_context's
    observable, read under its post-selection: the real weak value, to
    O(g^2) (Aharonov, Albert & Vaidman, PRL 60, 1351 (1988)). g must be > 0."""
    if not g > 0:  # NaN compares false too
        raise ValueError(f"weak_readout divides by g, which must be > 0, got {g}")
    pre, obs, post_proj = context
    (shift,) = pt.pointer_mean(pt.couple(pre, obs, ptr, float(g)), post_proj)
    return shift / float(g)

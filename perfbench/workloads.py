"""The four workloads: their requests, the calls into the program, and the
checks that make a wrong answer a failure instead of a fast run.

Every workload sorts its requests into three classes, light, mid and heavy,
which the end-to-end metrics report under the same names on every workload:

    workload           light                mid                    heavy
    scn_scaling        d=64 .scn run        d=256 .scn run         d=2048 .scn run
    weak_trajectories  4 strong_measure     4 two-level            4 three-level
                       oracle calls         trajectories           trajectories
    builtin_mix        exact built-ins and  three_path_photon      four_mirror at
                       shipped fixtures     and --g-sweep runs     10 000 trials
    parse_fuzz         random characters    token soup             fixture mutations

Why these workloads (each one stresses a layer the others barely reach):

* scn_scaling: user-declared experiments through `tsvsim run FILE`. At d=64
  parsing and Python overhead dominate; at d=2048 dense d x d algebra does
  (Operator.is_projector is O(d^3)). Structured operators should move heavy
  and leave light; a parser change should move light.
* weak_trajectories: criterion 7's shape, g=0.2 and 400 steps on the two- and
  three-level systems plus the strong_measure oracle. A pure per-step Python
  loop in `pointer` on 2-3 entry vectors with no dense `hilbert` algebra, so
  batching trajectories should move it and nothing else.
* builtin_mix: the traffic users send: all six built-ins in three formats,
  the shipped fixtures, both three_path_photon options and g-sweeps. Small
  dimensions, so `hilbert` restructuring should barely move it; it covers
  `scenarios`, `cli.emit`, the vectorised four-mirror Monte Carlo and the
  pointer coupling.
* parse_fuzz: criterion-8-style random and token-soup text plus mutated
  fixtures fed to `dsl.parse`; the only workload that reaches the
  diagnostic and error paths.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import gen

WORKLOADS = ("scn_scaling", "weak_trajectories", "builtin_mix", "parse_fuzz")
CLASSES = ("light", "mid", "heavy")
DEFAULT_SEED = 0

# Share of the measured time given to each class. The scheduler always runs
# the class furthest below its share, so the split holds at any speed.
SHARES = {
    "scn_scaling": {"light": 0.15, "mid": 0.25, "heavy": 0.60},
    "weak_trajectories": {"light": 0.20, "mid": 0.40, "heavy": 0.40},
    "builtin_mix": {"light": 0.30, "mid": 0.40, "heavy": 0.30},
    "parse_fuzz": {"light": 0.34, "mid": 0.33, "heavy": 0.33},
}
# p90 is reported for light and mid, so each needs 100 samples (ten beyond it).
MIN_SAMPLES = {"light": 100, "mid": 100, "heavy": 5}
# One trace round: the next n requests of each class, replayed untraced and
# traced in turn so both passes do identical work.
TRACE_ROUND = {
    "scn_scaling": {"light": 8, "mid": 4, "heavy": 1},
    "weak_trajectories": {"light": 4, "mid": 4, "heavy": 4},
    "builtin_mix": {"light": 30, "mid": 36, "heavy": 3},
    "parse_fuzz": {"light": 500, "mid": 500, "heavy": 500},
}
# Heavy requests whose tracemalloc peak is taken (the largest one counts):
# one where every heavy request has the same shape, the whole corpus where
# the inputs differ in size.
PEAK_REQUESTS = {"scn_scaling": 1, "weak_trajectories": 1, "builtin_mix": 1,
                 "parse_fuzz": gen.FUZZ_INPUTS_PER_CLASS}
# z-score of the binomial band on collapse frequencies: a correct program
# leaves it about once in 1.7 million checks.
BAND_Z = 5.0
NORM_TOL = 1e-12
FAMILY_TOL = 1e-10
# ScenarioResult's own tolerance on a probability leaving [0, 1] by rounding
PROBABILITY_TOL = 1e-12
DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Request:
    """One call into the program. `spec` is plain data:
    ("cli", args) | ("traj", system, seeds) | ("parse", text)."""

    cls: str
    key: str
    spec: tuple


class _Batches(Sequence):
    """Trajectory batches, made on demand: batch b runs the seeds
    base + b * TRAJ_SEEDS_PER_BATCH + i, so no run reuses a seed."""

    def __init__(self, cls: str, system: str, base: int):
        self.cls, self.system, self.base = cls, system, base

    def __len__(self) -> int:
        return gen.TRAJ_SEED_RANGE // gen.TRAJ_SEEDS_PER_BATCH

    def __getitem__(self, b: int) -> Request:
        n = gen.TRAJ_SEEDS_PER_BATCH
        first = self.base + b * n
        return Request(self.cls, f"{self.system}/{first}",
                       ("traj", self.system, tuple(range(first, first + n))))


def fixture_texts(src: Path) -> list[str]:
    return [(src / "tsvsim" / "data" / f"{sid}.scn").read_text(encoding="utf-8")
            for sid in gen.FIXTURES]


def requests(workload: str, seed: int, src: Path, workdir: Path) -> dict[str, list[Request]]:
    """All requests of one run, by class, in the order the run uses them."""
    if workload == "scn_scaling":
        paths = gen.write_texts(workdir / "scn", gen.scn_corpus(seed))
        return {cls: [Request(cls, p.stem, ("cli", (str(p), "--format", "jsonl")))
                      for p in ps] for cls, ps in paths.items()}
    if workload == "weak_trajectories":
        bases = zip(CLASSES, ("strong", "two", "three"), gen.traj_base_seeds(seed))
        return {cls: _Batches(cls, system, base) for cls, system, base in bases}
    if workload == "builtin_mix":
        def resolve(arg: str) -> str:
            if arg.startswith("@fixture/"):
                return str(src / "tsvsim" / "data" / f"{arg.split('/', 1)[1]}.scn")
            return arg
        return {cls: [Request(cls, " ".join(args), ("cli", tuple(resolve(a) for a in args)))
                      for args in reqs] for cls, reqs in gen.builtin_order(seed).items()}
    if workload == "parse_fuzz":
        corpus = gen.fuzz_corpus(seed, fixture_texts(src))
        return {cls: [Request(cls, f"{cls}/{i}", ("parse", text))
                      for i, text in enumerate(texts)] for cls, texts in corpus.items()}
    raise ValueError(f"unknown workload {workload!r}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, dict[str, str]]:
    """Recorded output digests, by workload (see record_digests.py)."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


class Runner:
    """Binds requests to the program's public entry points and checks outputs.

    `call` is the timed part; `verify` runs untimed afterwards, returns the
    output's bytes (used to compare traced and untraced runs) and records a
    failure when a check does not hold.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, digests: dict):
        import numpy as np
        from tsvsim import cli, dsl, hilbert as hb, pointer as pt

        self.np, self.cli, self.dsl, self.pt = np, cli, dsl, pt
        self.workload = workload
        # builtin_mix requests come from a fixed catalogue, so their digests
        # hold at every seed; the generated inputs of the other workloads
        # have digests for the default seed only.
        self.digests = (digests.get(workload, {})
                        if workload == "builtin_mix" or seed == DEFAULT_SEED else {})
        self.out_path = workdir / "out"
        self.attempted = 0
        self.failures: list[str] = []
        self.counted: set[str] = set()
        sq2, sq3 = math.sqrt(2.0), math.sqrt(3.0)
        sp2 = hb.space(("sys", ["1", "2"]))
        sp3 = hb.space(("box", ["box1", "box2", "box3"]))
        self.systems = {
            "two": (hb.Ket(sp2, np.array([1, 1]) / sq2),
                    hb.Operator(sp2, np.diag([1.0, 2.0]), tag="which")),
            "three": (hb.Ket(sp3, np.ones(3) / sq3),
                      hb.Operator(sp3, np.diag([1.0, 2.0, 3.0]), tag="box_index")),
        }
        self.systems["strong"] = self.systems["two"]
        self.collapses = {name: np.zeros(len(ket.amplitudes), dtype=int)
                          for name, (ket, _) in self.systems.items()}

    # -- timed -------------------------------------------------------------

    def call(self, req: Request):
        kind = req.spec[0]
        if kind == "cli":
            return self.cli.main(["run", *req.spec[1], "--out", str(self.out_path)])
        if kind == "traj":
            _, system, seeds = req.spec
            ket, obs = self.systems[system]
            if system == "strong":
                return [self.pt.strong_measure(ket, obs, rng_seed=s) for s in seeds]
            return [self.pt.weak_sequence(ket, obs, g=gen.TRAJ_G, steps=gen.TRAJ_STEPS,
                                          rng_seed=s) for s in seeds]
        try:
            return self.dsl.parse(req.spec[1])
        except self.dsl.ScenarioFileError as e:
            return e
        except Exception as e:  # a crash: keep running, verify records it
            return e

    # -- untimed -----------------------------------------------------------

    def verify(self, req: Request, raw) -> bytes:
        self.attempted += 1
        kind = req.spec[0]
        if kind == "cli":
            out, problem = self._verify_cli(req, raw)
        elif kind == "traj":
            out, problem = self._verify_traj(req, raw)
        else:
            out, problem = self._verify_parse(raw)
        if problem:
            self.failures.append(f"{req.key}: {problem}")
        return out

    def _verify_cli(self, req: Request, rc: int) -> tuple[bytes, str | None]:
        if rc != 0:
            return b"", f"exit code {rc}"
        out = self.out_path.read_bytes()
        self.out_path.unlink()
        want = self.digests.get(req.key)
        if want is None and self.workload == "builtin_mix":
            return out, "no recorded digest for this request"
        if want is not None and sha256(out) != want:
            return out, "output bytes differ from the recorded digest"
        if self.workload == "scn_scaling":
            return out, check_scn_output(out)
        return out, None

    def _verify_traj(self, req: Request, results) -> tuple[bytes, str | None]:
        np = self.np
        system, seeds = req.spec[1], req.spec[2]
        fresh = req.key not in self.counted  # replayed batches count once
        self.counted.add(req.key)
        chunks, problem = [], None
        for s, res in zip(seeds, results):
            data = traj_seed_bytes(system, res)
            if system == "strong":
                lam, amps = res[0], res[1].amplitudes
                outcome = int(lam) - 1 if lam in (1.0, 2.0) else None
                if outcome is None or abs(abs(amps[outcome]) - 1.0) > NORM_TOL:
                    problem = f"seed {s}: eigenvalue {lam} with state {amps}"
            else:
                readouts, amps = res.readouts, res.final_state.amplitudes
                outcome = int(np.argmax(np.abs(amps) ** 2))
                if readouts.shape != (gen.TRAJ_STEPS,) or not np.all(np.isfinite(readouts)):
                    problem = f"seed {s}: readouts malformed"
                elif abs(float(np.linalg.norm(amps)) - 1.0) > NORM_TOL:
                    problem = f"seed {s}: final state not normalized"
            if fresh and outcome is not None:
                self.collapses[system][outcome] += 1
            want = self.digests.get(f"{system}/{s}")
            if want is not None and sha256(data) != want:
                problem = f"seed {s}: output differs from the recorded digest"
            chunks.append(data)
        return b"".join(chunks), problem

    def _verify_parse(self, raw) -> tuple[bytes, str | None]:
        if isinstance(raw, self.dsl.ScenarioFileError):
            diags = raw.diagnostics
            text = "\n".join(str(d) for d in diags)
            if not diags:
                return b"", "rejection without a diagnostic"
            bad = [d for d in diags if d.line < 1 or d.column < 1]
            if bad:
                return text.encode(), f"diagnostic without a position: {bad[0]}"
            return ("reject\n" + text).encode(), None
        if isinstance(raw, Exception):
            return b"", f"parser crashed with {type(raw).__name__}: {raw}"
        return ("accept\n" + repr(raw)).encode(), None

    def finish(self) -> None:
        """Run-wide checks: Born-rule collapse frequencies of every system
        lie inside a BAND_Z binomial band for the number of seeds run."""
        born = {"two": [0.5, 0.5], "three": [1 / 3] * 3, "strong": [0.5, 0.5]}
        for system, counts in self.collapses.items():
            n = int(counts.sum())
            if n == 0:
                continue
            self.attempted += 1
            for k, p in enumerate(born[system]):
                freq = counts[k] / n
                band = BAND_Z * math.sqrt(p * (1 - p) / n)
                if abs(freq - p) > band:
                    self.failures.append(
                        f"{system}: outcome {k + 1} frequency {freq:.4f} over {n} seeds "
                        f"outside {p:.4f} +- {band:.4f}")
                    break


def traj_seed_bytes(system: str, result) -> bytes:
    """The bytes one seed's result is digested by: eigenvalue and collapsed
    state for strong_measure, readouts and final state for a trajectory."""
    if system == "strong":
        lam, ket = result
        return struct.pack("<d", lam) + ket.amplitudes.tobytes()
    return result.readouts.tobytes() + result.final_state.amplitudes.tobytes()


def check_scn_output(out: bytes) -> str | None:
    """Every probability lies in [0, 1] within PROBABILITY_TOL; the weak
    values of each path factor's complete projector family {proj(p=a),
    proj(p=b)} sum to 1, and that of id is 1, within FAMILY_TOL."""
    records = [json.loads(line) for line in out.decode().splitlines()]
    wv = {}
    for r in records:
        if (r["kind"] == "probability"
                and not -PROBABILITY_TOL <= r["re"] <= 1.0 + PROBABILITY_TOL):
            return f"probability {r['name']} = {r['re']} outside [0, 1]"
        if r["kind"] == "weak_value":
            wv[r["name"]] = complex(r["re"], r["im"])
    if "post" not in {r["name"] for r in records if r["kind"] == "probability"}:
        return "no postselect probability"
    families = {name[:-2] for name in wv if name.endswith(("_a", "_b"))}
    if not families or "ID" not in wv:
        return "observables missing"
    for fam in sorted(families):
        total = wv.get(f"{fam}_a", 0) + wv.get(f"{fam}_b", 0)
        if abs(total - 1.0) > FAMILY_TOL:
            return f"projector family {fam} sums to {total}, not 1"
    if abs(wv["ID"] - 1.0) > FAMILY_TOL:
        return f"weak value of id is {wv['ID']}, not 1"
    return None

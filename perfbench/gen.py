"""Seeded input generators for the benchmark.

Every generator takes a seed and returns plain data (strings, tuples, ints),
built with the standard library's ``random.Random`` only, so the same seed
gives byte-identical inputs on any machine. The program under test receives
only these generated inputs.
"""

from __future__ import annotations

import cmath
import math
import random
import string
from pathlib import Path

# Sizes of the .scn interferometer families: (binary path factors, detector
# factors). d = 2 ** (paths + detectors).
SCN_SIZES = {
    "light": (4, 2),    # d = 64: parsing and per-call Python overhead dominate
    "mid": (6, 2),      # d = 256: the middle of the scaling curve
    "heavy": (9, 2),    # d = 2048: dense d x d algebra dominates
}
SCN_FILES_PER_SIZE = {"light": 8, "mid": 4, "heavy": 2}


def _sub_seed(seed: int, tag: str) -> random.Random:
    # str seeds hash through SHA-512 in random.seed, stable across runs
    return random.Random(f"{seed}:{tag}")


def _num(x: float) -> str:
    return repr(round(x, 6) + 0.0)


def _amplitude(rng: random.Random) -> str:
    """A nonzero amplitude in one of the scalar spellings the format accepts."""
    kind = rng.randrange(5)
    if kind == 0:
        return f"1/sqrt({rng.randrange(2, 9)})"
    if kind == 1:
        return f"{rng.choice(['', '-'])}{rng.randrange(1, 9)}/{rng.randrange(2, 11)}"
    if kind == 2:
        return f"({_num(rng.uniform(0.05, 1.0))},{_num(rng.uniform(-1.0, 1.0))})"
    if kind == 3:
        return f"{_num(rng.uniform(-1.0, 1.0))},{_num(rng.uniform(0.05, 1.0))}"
    return _num(rng.choice([-1, 1]) * rng.uniform(0.05, 1.0))


def _unitary_2x2(rng: random.Random) -> list[list[complex]]:
    theta = rng.uniform(0.2, 1.4)
    alpha, beta, phi = (rng.uniform(-math.pi, math.pi) for _ in range(3))
    g = cmath.exp(1j * phi)
    c, s = math.cos(theta), math.sin(theta)
    return [[g * c * cmath.exp(1j * alpha), g * s * cmath.exp(1j * beta)],
            [-g * s * cmath.exp(-1j * beta), g * c * cmath.exp(-1j * alpha)]]


def _unitary_4x4(rng: random.Random) -> list[list[complex]]:
    """Entangling two-factor unitary: diagonal phases times U1 (x) U2."""
    u1, u2 = _unitary_2x2(rng), _unitary_2x2(rng)
    phases = [cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for _ in range(4)]
    return [[phases[r] * u1[r // 2][c // 2] * u2[r % 2][c % 2] for c in range(4)]
            for r in range(4)]


def _matrix_literal(m: list[list[complex]]) -> str:
    return "[ " + " ; ".join(", ".join(f"({z.real!r},{z.imag!r})" for z in row)
                             for row in m) + " ]"


def scn_text(seed: int, size: str, index: int) -> str:
    """One seeded interferometer file of the given size class.

    The structure (factor counts, gate counts of each kind, observables) is
    fixed per size, so files of one size cost the same to run; the seed moves
    labels, targets and amplitudes. Gates: a beamsplitter on every path
    factor, single- and two-factor custom unitaries, one swap_map detector
    flip plus a READY projector_select per detector, and a second splitter
    layer. POSTSELECT lists every basis tuple. Observables give the complete
    projector family {proj(p=a), proj(p=b)} of every path factor plus id.
    """
    rng = _sub_seed(seed, f"scn:{size}:{index}")
    n_paths, n_dets = SCN_SIZES[size]
    paths = [f"p{k}" for k in range(n_paths)]
    labels = {p: (f"{p}a", f"{p}b") for p in paths}
    dets = [f"d{j}" for j in range(n_dets)]
    lines = [f"# seeded {size} interferometer, seed {seed}, file {index}", "", "FACTORS"]
    lines += [f"  {p}: {labels[p][0]} {labels[p][1]}" for p in paths]
    lines += [f"  {d}: READY CLICK" for d in dets]

    lines += ["", "INITIAL"]
    configs = set()
    while len(configs) < 4:
        configs.add(tuple(rng.randrange(2) for _ in paths))
    for cfg in sorted(configs):
        tup = [labels[p][b] for p, b in zip(paths, cfg)] + ["READY"] * n_dets
        lines.append(f"  {' '.join(tup)} : {_amplitude(rng)}")

    lines += ["", "GATES"]
    for p in paths:
        lines.append(f"  t1 beamsplitter {p} : {labels[p][0]} {labels[p][1]} -> "
                     f"{labels[p][0]} {labels[p][1]}")
    single = rng.choice(paths)
    lines.append(f"  t1 custom_unitary {single} : {_matrix_literal(_unitary_2x2(rng))}")
    pair = rng.sample(paths, 2)
    lines.append(f"  t1 custom_unitary {pair[0]} {pair[1]} : "
                 f"{_matrix_literal(_unitary_4x4(rng))}")
    for j, d in enumerate(dets):
        a, b = rng.sample(paths, 2)
        la, lb = labels[a][rng.randrange(2)], labels[b][rng.randrange(2)]
        lines.append(f"  t2 swap_map {a} {b} {d} : {la} {lb} READY -> {la} {lb} CLICK")
        lines.append(f"  t2 projector_select {d} : READY as silent_{d}")
    for p in paths:
        lines.append(f"  t3 beamsplitter {p} : {labels[p][0]} {labels[p][1]} -> "
                     f"{labels[p][0]} {labels[p][1]}")
    pair = rng.sample(paths, 2)
    lines.append(f"  t3 custom_unitary {pair[0]} {pair[1]} : "
                 f"{_matrix_literal(_unitary_4x4(rng))}")

    lines += ["", "POSTSELECT as post"]
    for n in range(2 ** (n_paths + n_dets)):
        bits = [(n >> (n_paths + n_dets - 1 - i)) & 1 for i in range(n_paths + n_dets)]
        tup = [labels[p][b] for p, b in zip(paths, bits)]
        tup += ["CLICK" if b else "READY" for b in bits[n_paths:]]
        lines.append(f"  {' '.join(tup)} : {_amplitude(rng)}")

    lines += ["", "OBSERVABLES"]
    for p in paths:
        lines.append(f"  {p}_a = proj({p}={labels[p][0]})")
        lines.append(f"  {p}_b = proj({p}={labels[p][1]})")
    lines.append("  ID = id")
    return "\n".join(lines) + "\n"


def scn_corpus(seed: int) -> dict[str, list[str]]:
    """All .scn texts of one run, by size class."""
    return {size: [scn_text(seed, size, i) for i in range(n)]
            for size, n in SCN_FILES_PER_SIZE.items()}


# ---------------------------------------------------------------------------
# weak_trajectories

TRAJ_SEEDS_PER_BATCH = 4
TRAJ_STEPS = 400
TRAJ_G = 0.2
TRAJ_SEED_RANGE = 1_000_000


def traj_base_seeds(seed: int) -> tuple[int, int, int]:
    """First RNG seed of the strong_measure oracle, the two-level and the
    three-level trajectories. Each takes TRAJ_SEED_RANGE consecutive seeds,
    so no two ranges overlap, within a workload seed or across them."""
    first = 3 * TRAJ_SEED_RANGE * seed
    return first, first + TRAJ_SEED_RANGE, first + 2 * TRAJ_SEED_RANGE


# ---------------------------------------------------------------------------
# parse_fuzz

FUZZ_ALPHABET = string.printable + "αβ∑'»→\x00"
FUZZ_PIECES = ["FACTORS", "INITIAL", "GATES", "POSTSELECT", "OBSERVABLES",
               "beamsplitter", "swap_map", "projector_select", "custom_unitary",
               "proj", "id", "sqrt", "as", "->", ":", "=", "*", "(", ")", "[", "]",
               ";", ",", "1/sqrt(3)", "i", "#", "-", "+"]
FUZZ_INPUTS_PER_CLASS = 2000


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(0, 160)))


def _token_soup(rng: random.Random) -> str:
    toks = [rng.choice(FUZZ_PIECES) if rng.random() < 0.6
            else "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(1, 8)))
            for _ in range(rng.randrange(0, 32))]
    return rng.choice([" ", "\n", "  "]).join(toks)


def _mutate(rng: random.Random, text: str) -> str:
    """One to three edits: delete, insert or replace a character, drop or
    duplicate a line, or replace a space-separated word with a fuzz piece."""
    for _ in range(rng.randrange(1, 4)):
        lines = text.split("\n")
        op = rng.randrange(6)
        if op == 0 and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + 1:]
        elif op == 1:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(FUZZ_ALPHABET) + text[i:]
        elif op == 2 and text:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(FUZZ_ALPHABET) + text[i + 1:]
        elif op == 3:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif op == 4:
            i = rng.randrange(len(lines))
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
            text = "\n".join(lines)
        else:
            words = text.split(" ")
            words[rng.randrange(len(words))] = rng.choice(FUZZ_PIECES)
            text = " ".join(words)
    return text


def fuzz_corpus(seed: int, fixtures: list[str]) -> dict[str, list[str]]:
    """Criterion-8-style inputs by class: light = random characters, mid =
    token soup, heavy = mutations of the shipped fixtures (which reach the
    validator and the evaluator-facing error paths)."""
    rng = _sub_seed(seed, "fuzz")
    return {
        "light": [_random_text(rng) for _ in range(FUZZ_INPUTS_PER_CLASS)],
        "mid": [_token_soup(rng) for _ in range(FUZZ_INPUTS_PER_CLASS)],
        "heavy": [_mutate(rng, rng.choice(fixtures)) for _ in range(FUZZ_INPUTS_PER_CLASS)],
    }


# ---------------------------------------------------------------------------
# builtin_mix

EXACT_SCENARIOS = ("oblivion", "elastic_collision", "three_boxes", "hardy")
FIXTURES = ("four_mirror", "oblivion", "elastic_collision", "three_boxes", "hardy",
            "three_path_photon")
FORMATS = ("table", "csv", "jsonl")
MC_SEEDS = (42, 7, 2024, 31337)
POINTER_GS = ("0.05", "0.1")
SWEEPS = ("0.01:0.2:8", "0.01:0.2:8:log", "0.02:0.1:5", "0.005:0.05:6:log")


def builtin_catalogue() -> dict[str, list[tuple[str, ...]]]:
    """Every builtin_mix request by class, as `tsvsim run` argument tuples
    (the `--out` path is appended at run time). "@fixture/<id>" stands for the
    shipped .scn file of that scenario. Each request's output bytes have a
    recorded digest, so the seed only chooses the order."""
    light = [(sid, "--format", fmt) for sid in EXACT_SCENARIOS for fmt in FORMATS]
    light += [(f"@fixture/{sid}", "--format", fmt) for sid in FIXTURES for fmt in FORMATS]
    mid = [("three_path_photon", "--option", opt, "--g", g, "--format", fmt)
           for opt in ("recombine_all", "recombine_two") for g in POINTER_GS
           for fmt in FORMATS]
    mid += [(sid, "--g-sweep", sw, "--format", fmt) for sid in ("hardy", "three_boxes")
            for sw in SWEEPS for fmt in FORMATS]
    heavy = [("four_mirror", "--trials", "10000", "--seed", str(s), "--format", fmt)
             for s in MC_SEEDS for fmt in FORMATS]
    return {"light": light, "mid": mid, "heavy": heavy}


def builtin_order(seed: int) -> dict[str, list[tuple[str, ...]]]:
    """The catalogue with each class shuffled by the seed."""
    rng = _sub_seed(seed, "builtin")
    out = {}
    for cls, reqs in builtin_catalogue().items():
        reqs = list(reqs)
        rng.shuffle(reqs)
        out[cls] = reqs
    return out


def write_texts(root: Path, texts: dict[str, list[str]]) -> dict[str, list[Path]]:
    """Write generated texts as root/<class>_<i>.scn and return their paths."""
    root.mkdir(parents=True, exist_ok=True)
    out: dict[str, list[Path]] = {}
    for cls, items in texts.items():
        out[cls] = []
        for i, text in enumerate(items):
            path = root / f"{cls}_{i}.scn"
            path.write_text(text, encoding="utf-8")
            out[cls].append(path)
    return out

"""The benchmark's own tests: seeded inputs repeat exactly, a wrong output is
counted as a failure, and tracing changes no output.

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _corpus_digest(seed: int) -> str:
    h = hashlib.sha256()
    for texts in gen.scn_corpus(seed).values():
        for t in texts:
            h.update(t.encode())
    for texts in gen.fuzz_corpus(seed, workloads.fixture_texts(run.SRC)).values():
        for t in texts:
            h.update(t.encode())
    h.update(repr(gen.builtin_order(seed)).encode())
    h.update(repr(gen.traj_base_seeds(seed)).encode())
    return h.hexdigest()


def test_generators_repeat_byte_for_byte_per_seed():
    assert _corpus_digest(3) == _corpus_digest(3)
    assert _corpus_digest(3) != _corpus_digest(4)


def test_generators_do_not_depend_on_the_process():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import test_perfbench as t; print(t._corpus_digest(3))")
    outs = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent),
                               str(BENCH)], capture_output=True, text=True, env=env,
                              check=True)
        outs.add(proc.stdout.strip())
    assert outs == {_corpus_digest(3)}


def test_trajectory_seed_ranges_never_overlap():
    firsts = sorted(b for s in range(50) for b in gen.traj_base_seeds(s))
    assert all(b - a >= gen.TRAJ_SEED_RANGE for a, b in zip(firsts, firsts[1:]))


def _runner(workload, seed, tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    reqs = workloads.requests(workload, seed, run.SRC, tmp_path)
    return workloads.Runner(workload, seed, tmp_path, workloads.load_digests()), reqs


def test_corrupted_output_byte_is_a_failure(tmp_path):
    runner, reqs = _runner("builtin_mix", 5, tmp_path)
    for corrupt in (False, True):
        req = reqs["light"][0]
        raw = runner.call(req)
        if corrupt:
            data = bytearray(runner.out_path.read_bytes())
            data[len(data) // 2] ^= 0x01
            runner.out_path.write_bytes(bytes(data))
        runner.verify(req, raw)
    assert runner.attempted == 2
    assert len(runner.failures) == 1
    assert "digest" in runner.failures[0]


def test_broken_projector_family_is_a_failure(tmp_path):
    runner, reqs = _runner("scn_scaling", 7, tmp_path)  # no digests at this seed
    req = reqs["light"][0]
    raw = runner.call(req)
    good = runner.out_path.read_bytes()
    lines = [json.loads(x) for x in good.decode().splitlines()]
    for rec in lines:
        if rec["name"] == "p0_a":
            rec["re"] += 1e-6
    runner.out_path.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
    runner.verify(req, raw)
    assert workloads.check_scn_output(good) is None
    assert len(runner.failures) == 1 and "p0" in runner.failures[0]


def test_parser_crash_is_a_failure(tmp_path, monkeypatch):
    runner, reqs = _runner("parse_fuzz", 1, tmp_path)

    def crash(text):
        raise KeyError(text[:3])

    monkeypatch.setattr(runner.dsl, "parse", crash)
    req = reqs["light"][0]
    runner.verify(req, runner.call(req))
    assert len(runner.failures) == 1 and "crashed" in runner.failures[0]


def test_collapse_band_catches_a_biased_sampler(tmp_path):
    runner, _ = _runner("weak_trajectories", 2, tmp_path)
    runner.collapses["two"][:] = (600, 400)
    runner.finish()
    assert any(f.startswith("two:") for f in runner.failures)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_output(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.TRACE_ROUND, workload,
                        {"light": 2, "mid": 2, "heavy": 1 if workload != "scn_scaling" else 0})
    runner, reqs = _runner(workload, 0, tmp_path / "work")
    from tsvsim import cli, dsl, hilbert

    before = (cli.main, dsl.parse, hilbert.Operator.__dict__["projector"])
    metrics = run.trace_run(runner, run.Feed(reqs), workload, 0.01, tmp_path / "spans.jsonl")
    assert runner.failures == []
    assert set(metrics) == set(spans.PER_LAYER)
    assert (cli.main, dsl.parse, hilbert.Operator.__dict__["projector"]) == before
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "parse_fuzz",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""The benchmark's contract with the program: the names perfbench's layer
tracer patches must exist where the tracer looks them up and come back
unchanged when the trace ends, and the outputs perfbench pins by digest must
still be the recorded bytes."""

from pathlib import Path

import numpy as np
import pytest

from tsvsim import cli, dsl, hilbert as hb, pointer as pt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    before = (cli.main, dsl.parse, hb.Operator.__dict__["projector"], pt.pointer_mean)
    sp = hb.space(("sys", ["lo", "hi"]))
    with spans.Tracer() as tracer:
        assert cli.main(["run", "three_boxes", "--out", str(tmp_path / "out.txt")]) == 0
        which = hb.Operator(sp, np.diag([1.0, 2.0]), tag="which")
        assert cli.main(["run", "three_path_photon", "--option", "recombine_two",
                         "--out", str(tmp_path / "photon.txt")]) == 0
    assert which.tag == "which"
    names = [s[0] for s in tracer.spans]
    assert {"cli.main", "cli.emit", "tsvf.weak_value"} <= set(names)
    # three pointers coupled, all read from one projection per post-selection
    assert (names.count("pointer.couple"), names.count("pointer.pointer_mean")) == (3, 2)
    assert tracer.counts["hilbert.operators"] >= 1
    assert (cli.main, dsl.parse, hb.Operator.__dict__["projector"], pt.pointer_mean) == before
    assert capsys.readouterr().out == ""


def test_tracer_sees_each_scn_observable(monkeypatch, tmp_path):
    # hilbert.projector.ms on scn_scaling times the observable builds, so each
    # .scn observable must still reach Operator.projector and tsvf.weak_value
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    fixture = dsl.builtin_scenario_path("three_boxes")
    with spans.Tracer() as tracer:
        saved = list(tracer._saved)  # (owner, name, original) per patch
        assert cli.main(["run", str(fixture), "--out", str(tmp_path / "out.txt")]) == 0
    names = [s[0] for s in tracer.spans]
    assert (names.count("hilbert.projector"), names.count("tsvf.weak_value")) == (3, 3)
    assert saved
    for owner, attr, original in saved:
        now = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        assert now is original, f"{attr} not restored"


@pytest.mark.parametrize("workload", ["builtin_mix", "scn_scaling", "weak_trajectories"])
def test_outputs_match_benchmark_digests(workload, monkeypatch, tmp_path, capsys):
    # perfbench/digests.json is the one record of the pinned output bytes: a
    # change that moves them must re-record it (perfbench/record_digests.py)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from record_digests import RECORDED_BATCHES

    runner = workloads.Runner(workload, workloads.DEFAULT_SEED, tmp_path,
                              workloads.load_digests())
    by_class = workloads.requests(workload, workloads.DEFAULT_SEED,
                                  PERFBENCH.parent / "src", tmp_path)
    for reqs in by_class.values():
        if workload == "weak_trajectories":
            reqs = [reqs[b] for b in range(RECORDED_BATCHES)]
        for req in reqs:
            runner.verify(req, runner.call(req))
    assert runner.attempted == {"builtin_mix": 78, "scn_scaling": 14,
                                "weak_trajectories": 12}[workload]
    assert runner.failures == []
    if workload == "builtin_mix":
        assert capsys.readouterr().err == ""

"""Record the output digests the benchmark checks against (digests.json).

    python3 perfbench/record_digests.py

Run it only on a commit whose outputs are known to be right: the digests
pin the exact output bytes of every builtin_mix request (at every seed), of
every generated .scn file at the default seed, and of the first
RECORDED_BATCHES trajectory and strong_measure batches at the default seed.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads
from run import SRC, WORK
from workloads import DEFAULT_SEED, sha256

# A run always completes at least this many batches of each class, warm-up
# included, so every recorded digest is checked on every default-seed run.
RECORDED_BATCHES = 4


def record() -> dict[str, dict[str, str]]:
    workdir = WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    out: dict[str, dict[str, str]] = {}
    try:
        for workload in ("builtin_mix", "scn_scaling"):
            runner = workloads.Runner(workload, DEFAULT_SEED, workdir, {})
            out[workload] = {}
            for reqs in workloads.requests(workload, DEFAULT_SEED, SRC, workdir).values():
                for req in reqs:
                    if runner.call(req) != 0:
                        raise SystemExit(f"{req.key}: nonzero exit")
                    out[workload][req.key] = sha256(runner.out_path.read_bytes())
        runner = workloads.Runner("weak_trajectories", DEFAULT_SEED, workdir, {})
        out["weak_trajectories"] = {}
        for reqs in workloads.requests("weak_trajectories", DEFAULT_SEED, SRC, workdir).values():
            for b in range(RECORDED_BATCHES):
                req = reqs[b]
                system, seeds = req.spec[1], req.spec[2]
                for s, res in zip(seeds, runner.call(req)):
                    out["weak_trajectories"][f"{system}/{s}"] = sha256(
                        workloads.traj_seed_bytes(system, res))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


if __name__ == "__main__":
    digests = record()
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"wrote {sum(map(len, digests.values()))} digests to {workloads.DIGESTS}")

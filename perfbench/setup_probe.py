"""Set-up probe: in a fresh interpreter, import tsvsim and complete one
request; print the seconds that took, then the time of the speed reference
loop (speed.py) right after it.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

reads the request from WORKDIR/probe.json. Only the standard library and the
benchmark's own modules are imported before the clock starts. run.py starts
it with BLAS held to one thread (see run.SetupProbe).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import speed
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    probe = json.loads((workdir / "probe.json").read_text(encoding="utf-8"))
    req = workloads.Request(probe["cls"], probe["key"], tuple(probe["spec"]))
    digests = workloads.load_digests()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    runner = workloads.Runner(workload, seed, workdir, digests)
    raw = runner.call(req)
    elapsed = time.perf_counter() - start
    runner.verify(req, raw)
    if runner.failures:
        print("; ".join(runner.failures), file=sys.stderr)
        return 1
    loop = statistics.median(speed.reference_loop() for _ in range(5))
    print(repr(elapsed), repr(loop))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

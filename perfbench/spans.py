"""Layer spans for the traced run, taken from the benchmark's own files.

Each traced function is wrapped where its caller looks it up (a module
attribute, a class attribute or a registry entry), so the program itself is
unchanged and the wrappers are removed again when the traced pass ends.
Spans stay in memory as (name, start, end, parent) and are written out at
the end of the run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from gen import EXACT_SCENARIOS

# Per-layer metrics: name -> (unit, better). "ms" is inclusive time, "self_ms"
# excludes the time covered by traced child spans. Values are per trace round.
PER_LAYER = {
    "dsl.parse.calls": ("count", "lower"),
    "dsl.parse.ms": ("ms", "lower"),
    "dsl.parse.reject_frac": ("ratio", "lower"),
    "dsl.evaluate.self_ms": ("ms", "lower"),
    "hilbert.is_projector.ms": ("ms", "lower"),
    "hilbert.label_swap.ms": ("ms", "lower"),
    "hilbert.flag_flip.ms": ("ms", "lower"),
    "hilbert.apply.ms": ("ms", "lower"),
    "hilbert.apply_to_factors.ms": ("ms", "lower"),
    "hilbert.projector.ms": ("ms", "lower"),
    "hilbert.schmidt_rank.ms": ("ms", "lower"),
    "hilbert.operators": ("count", "lower"),
    "hilbert.dense_bytes": ("bytes-computed", "lower"),
    "tsvf.post_select.ms": ("ms", "lower"),
    "tsvf.born_probability.ms": ("ms", "lower"),
    "tsvf.weak_value.ms": ("ms", "lower"),
    "pointer.weak_sequence.ms": ("ms", "lower"),
    "pointer.steps": ("count", "higher"),
    "pointer.eigenbranches.ms": ("ms", "lower"),
    "pointer.strong_measure.ms": ("ms", "lower"),
    "pointer.couple.ms": ("ms", "lower"),
    "pointer.pointer_mean.ms": ("ms", "lower"),
    "scenarios.run_four_mirror.self_ms": ("ms", "lower"),
    "scenarios.run_three_path_photon.self_ms": ("ms", "lower"),
    "scenarios.run_exact.self_ms": ("ms", "lower"),
    "cli.emit.ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


class Tracer:
    """Collects spans and counts while installed; restores every patched name
    on exit."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        from tsvsim import cli, dsl, hilbert as hb, pointer as pt, scenarios as sc, tsvf
        from tsvsim.hilbert import Operator

        evaluate_module = sys.modules["tsvsim.dsl.evaluate"]
        counts = self.counts

        parse = vars(dsl)["parse"]

        def counted_parse(text):
            counts["dsl.parse.calls"] += 1
            try:
                return parse(text)
            except dsl.ScenarioFileError:
                counts["dsl.parse.rejects"] += 1
                raise

        traced_parse = self.wrap("dsl.parse", counted_parse)
        self._patch(dsl, "parse", traced_parse)
        self._patch(evaluate_module, "parse", traced_parse)
        self._patch(dsl, "evaluate", self.wrap("dsl.evaluate", vars(dsl)["evaluate"]))

        init = Operator.__init__

        def counted_init(op, space, matrix, tag=""):
            counts["hilbert.operators"] += 1
            counts["hilbert.dense_bytes"] += 16 * space.dim ** 2
            init(op, space, matrix, tag)

        self._patch(Operator, "__init__", counted_init)
        self._patch(Operator, "is_projector",
                    self.wrap("hilbert.is_projector", Operator.is_projector))
        self._patch(Operator, "projector",
                    staticmethod(self.wrap("hilbert.projector", Operator.projector)))
        for fn in ("label_swap", "flag_flip", "apply", "apply_to_factors", "schmidt_rank"):
            self._patch(hb, fn, self.wrap(f"hilbert.{fn}", getattr(hb, fn)))
        for fn in ("post_select", "born_probability", "weak_value"):
            self._patch(tsvf, fn, self.wrap(f"tsvf.{fn}", getattr(tsvf, fn)))

        weak_sequence = pt.weak_sequence

        def counted_weak_sequence(system, observable, g, steps, *args, **kwargs):
            counts["pointer.steps"] += steps
            return weak_sequence(system, observable, g, steps, *args, **kwargs)

        self._patch(pt, "weak_sequence",
                    self.wrap("pointer.weak_sequence", counted_weak_sequence))
        for fn in ("strong_measure", "eigenbranches", "couple", "pointer_mean"):
            self._patch(pt, fn, self.wrap(f"pointer.{fn}", getattr(pt, fn)))

        for fn in ("run_four_mirror", "run_three_path_photon"):
            self._patch(sc, fn, self.wrap(f"scenarios.{fn}", getattr(sc, fn)))
        for sid in EXACT_SCENARIOS:
            info = sc.SCENARIOS[sid]
            self._patch(sc.SCENARIOS, sid, dataclasses.replace(
                info, runner=self.wrap("scenarios.run_exact", info.runner)))

        self._patch(cli, "emit", self.wrap("cli.emit", cli.emit))
        self._patch(cli, "main", self.wrap("cli.main", cli.main))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Every PER_LAYER metric except the overhead, per trace round.
        Layers the workload never calls read 0."""
        total: defaultdict[str, float] = defaultdict(float)
        child: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[idx]
        out = {}
        for metric in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "ms":
                out[metric] = total[layer] * 1e3 / rounds
            elif kind == "self_ms":
                out[metric] = self_time[layer] * 1e3 / rounds
        calls = self.counts["dsl.parse.calls"]
        out["dsl.parse.reject_frac"] = self.counts["dsl.parse.rejects"] / calls if calls else 0.0
        for metric in ("dsl.parse.calls", "hilbert.operators", "hilbert.dense_bytes",
                       "pointer.steps"):
            out[metric] = self.counts[metric] / rounds
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start - origin,
                                    "end": end - origin, "parent": parent}) + "\n")

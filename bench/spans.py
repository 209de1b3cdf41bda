"""Spans around the public functions of ``qsobp``, recorded from outside.

Each traced function is replaced, at every module attribute that binds it
(the name its callers look up), by a wrapper that records one span: name,
start, end and the span open when it was called.  Spans live in flat arrays
in memory and are turned into per-layer metrics only when the run ends.
A function that no longer exists is skipped and its metrics are reported as
absent, so a refactor of the package cannot crash the benchmark.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from time import perf_counter

import numpy as np

PACKAGE_MODULES = ("cli", "construction", "dynamics", "simplex", "two_types", "four_types")

# (defining module, attribute) of every traced function.
TRACED = (
    ("construction", "build_operator"),
    ("construction", "build_heredity"),
    ("construction", "compatible_sets"),
    ("construction", "dump_json"),
    ("construction", "load_json"),
    ("construction", "operator_from_json"),
    ("construction", "BisexualOperator.apply_raw"),
    ("dynamics", "iterate"),
    ("dynamics", "iterate_map"),
    ("simplex", "make_state"),
    ("two_types", "predict_limit"),
    ("four_types", "predict_limit"),
    ("four_types", "predict_limit_critical"),
    ("cli", "cmd_construct"),
    ("cli", "cmd_iterate"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_sweep"),
)
CLI_COMMANDS = ("cli.cmd_construct", "cli.cmd_iterate", "cli.cmd_verify", "cli.cmd_sweep")

# metric -> (statistic, span names it sums over).  "busy" is the summed span
# duration, "self" the duration minus the time covered by child spans.
SPAN_METRICS = {
    "construction.build_heredity_s": ("busy", ("construction.build_heredity",)),
    "construction.compatible_sets_calls": ("calls", ("construction.compatible_sets",)),
    "construction.dump_json_s": ("busy", ("construction.dump_json",)),
    "construction.load_json_s": (
        "busy", ("construction.load_json", "construction.operator_from_json")),
    "construction.apply_raw_calls": ("calls", ("construction.BisexualOperator.apply_raw",)),
    "construction.apply_raw_s": ("busy", ("construction.BisexualOperator.apply_raw",)),
    "dynamics.iterate_map_calls": ("calls", ("dynamics.iterate_map",)),
    "dynamics.iterate_map_self_s": ("self", ("dynamics.iterate_map",)),
    "dynamics.iterate_self_s": ("self", ("dynamics.iterate",)),
    "simplex.make_state_calls": ("calls", ("simplex.make_state",)),
    "simplex.make_state_s": ("busy", ("simplex.make_state",)),
    "two_types.predict_limit_calls": ("calls", ("two_types.predict_limit",)),
    "two_types.predict_limit_s": ("busy", ("two_types.predict_limit",)),
    "four_types.predict_limit_calls": ("calls", ("four_types.predict_limit",)),
    "four_types.predict_limit_s": ("busy", ("four_types.predict_limit",)),
    "four_types.predict_limit_critical_calls": ("calls", ("four_types.predict_limit_critical",)),
    "four_types.predict_limit_critical_s": ("busy", ("four_types.predict_limit_critical",)),
    "cli.self_s": ("self", CLI_COMMANDS),
    "cli.construct_s": ("busy", ("cli.cmd_construct",)),
    "cli.iterate_s": ("busy", ("cli.cmd_iterate",)),
    "cli.verify_s": ("busy", ("cli.cmd_verify",)),
    "cli.sweep_s": ("busy", ("cli.cmd_sweep",)),
}
# Metrics read from returned values; each needs the listed spans' wrappers.
RESULT_METRICS = {
    "dynamics.steps": ("dynamics.iterate_map",),
    "dynamics.max_steps": ("dynamics.iterate_map",),
    "dynamics.unconverged": ("dynamics.iterate_map",),
    "dynamics.us_per_step": ("dynamics.iterate_map",),
    "construction.tensor_bytes": ("construction.build_operator", "construction.operator_from_json"),
    "construction.tensor_density": ("construction.build_operator", "construction.operator_from_json"),
}


class Tracer:
    """Installs the wrappers, keeps spans and per-round result counters."""

    def __init__(self):
        self.modules = {m: importlib.import_module(f"qsobp.{m}") for m in PACKAGE_MODULES}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self.rounds: list[tuple[int, int, dict]] = []
        self._counters: dict = {}

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "dynamics.iterate_map": self._on_trajectory,
            "construction.build_operator": self._on_operator,
            "construction.operator_from_json": self._on_operator,
        }
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            owner = self.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrapper(name, original, hooks.get(name))
            self.wrapped.add(name)
            if owner is not self.modules[module_name]:
                self._patch(owner, attr, wrapper)
                continue
            # Every module that imported the function by name looks it up there.
            for module in self.modules.values():
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrapper(self, name: str, original, hook):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self._stack)

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- result hooks -------------------------------------------------------

    def _on_trajectory(self, run) -> None:
        c = self._counters
        c["dynamics.steps"] = c.get("dynamics.steps", 0) + run.steps_taken
        c["dynamics.max_steps"] = max(c.get("dynamics.max_steps", 0), run.steps_taken)
        c["dynamics.unconverged"] = c.get("dynamics.unconverged", 0) + (not run.converged)

    def _on_operator(self, op) -> None:
        pf, pm = op.tensors.pf, op.tensors.pm
        size = pf.nbytes + pm.nbytes
        if size > self._counters.get("construction.tensor_bytes", 0):
            self._counters["construction.tensor_bytes"] = size
            nonzero = np.count_nonzero(pf) + np.count_nonzero(pm)
            self._counters["construction.tensor_density"] = nonzero / (pf.size + pm.size)

    # -- rounds -------------------------------------------------------------

    def begin_round(self) -> None:
        self._counters = {}
        self.rounds.append((len(self.start), -1, self._counters))

    def end_round(self) -> None:
        first, _, counters = self.rounds[-1]
        self.rounds[-1] = (first, len(self.start), counters)

    def round_metrics(self, index: int) -> dict[str, float]:
        """Per-layer metrics of one traced round, derived from its spans."""
        lo, hi, counters = self.rounds[index]
        names = np.array(self.span_name[lo:hi], dtype=np.int64)
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        parent = np.array(self.parent[lo:hi], dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested] - lo, dur[nested])
        stats = {"busy": dur, "self": dur - child, "calls": np.ones_like(dur)}
        ids = self._ids
        out: dict[str, float] = {}
        for metric, (stat, span_names) in SPAN_METRICS.items():
            if all(s in self.wrapped for s in span_names):
                mask = np.isin(names, [ids[s] for s in span_names])
                value = float(stats[stat][mask].sum())
                out[metric] = int(value) if stat == "calls" else value
        for metric, needs in RESULT_METRICS.items():
            if all(s in self.wrapped for s in needs):
                out[metric] = counters.get(metric, 0)
        if "dynamics.steps" in out:
            steps = out["dynamics.steps"]
            busy = float(dur[names == ids["dynamics.iterate_map"]].sum())
            out["dynamics.us_per_step"] = busy * 1e6 / steps if steps else 0.0
        return out

    def span_names_in_round(self, index: int) -> set[str]:
        lo, hi, _ = self.rounds[index]
        return {self.names[i] for i in set(self.span_name[lo:hi])}

    def write_spans(self, path: str) -> None:
        """All spans as CSV: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]}\n"
                )


def median_metrics(per_round: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median of each time metric over rounds; other metrics from the first round.

    Also returns whether every metric that is not a time repeated exactly.
    """
    out: dict[str, float] = {}
    repeat = True
    for metric in per_round[0]:
        values = [r[metric] for r in per_round]
        if metric.endswith("_s") or metric == "dynamics.us_per_step":
            out[metric] = statistics.median(values)
        else:
            out[metric] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
    return out, repeat

"""Seeded inputs and command lists of the benchmark workloads.

A workload is a fixed sequence of ``qsobp`` CLI invocations on inputs made
from the workload seed.  Paths inside the argument lists carry the ``{dir}``
prefix, replaced by the run's work directory, so the input digest does not
depend on where the checkout lives.  Only numpy and the standard library are
used here.

Why each workload exists (each one loads one layer and leaves another idle):

* ``graph-operator`` is the only workload that builds an operator from graph
  data, writes and reads operator JSON and runs the dense operator step.
* ``closed-form-verify`` is dominated by the iteration engine's per-step
  overhead on small maps; it never touches construction.
* ``closed-form-sweep`` runs closed-form prediction and bulk CSV output and
  never iterates (no four-type parameter pair sums to one).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from reference import heredity_tensors, steps_to_converge

WORKLOADS = ("graph-operator", "closed-form-verify", "closed-form-sweep")

# "full" is what the benchmark measures; "tiny" only feeds the self-test.
SIZES = {
    "graph-operator": {
        "full": {"vertices": 7, "starts": 3, "window": (450, 750)},
        "tiny": {"vertices": 4, "starts": 2, "window": (1, 5000)},
    },
    "closed-form-verify": {
        # An odd four-type grid puts cells on a+c = 1 (the critical line).
        "full": {"grid2": 20, "grid4": 21, "starts": 3},
        "tiny": {"grid2": 4, "grid4": 5, "starts": 1},
    },
    "closed-form-sweep": {
        "full": {"ab": 30, "state_grid": 10, "abcd": 9, "crit_a": 19, "crit_s": 9, "x0_grid": 20},
        "tiny": {"ab": 4, "state_grid": 3, "abcd": 3, "crit_a": 3, "crit_s": 2, "x0_grid": 4},
    },
}

DIR = "{dir}/"
ITER_EPS = 1e-12  # the CLI's default --iter-eps
CANDIDATE_STARTS = 12
OPERATOR_DRAWS = 3
MAX_OPERATOR_DRAWS = 30


@dataclass
class Inputs:
    """Generated files, CLI argument lists and what the checks expect."""

    workload: str
    seed: int
    files: dict[str, bytes] = field(default_factory=dict)
    commands: list[list[str]] = field(default_factory=list)
    expect: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        h.update(json.dumps(self.commands).encode())
        return h.hexdigest()


def argv(template: list[str], workdir: str) -> list[str]:
    return [a.replace(DIR, workdir + os.sep) for a in template]


def write_inputs(inputs: Inputs, workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for name, data in inputs.files.items():
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(data)


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _construction_doc(rng: np.random.Generator, vertices: int) -> dict:
    """Edge (1,2) leaves vertices - 1 components; a seeded half of the cells is
    female; weights are uniform on [0.5, 2]."""
    cells = 2**vertices
    females = sorted(int(i) + 1 for i in rng.choice(cells, cells // 2, replace=False))
    weights = rng.uniform(0.5, 2.0, cells)
    female_set = set(females)
    return {
        "vertices": vertices,
        "edges": [[1, 2]],
        "alleles": 2,
        "females": females,
        "female_weights": {str(c): float(weights[c - 1]) for c in females},
        "male_weights": {
            str(c): float(weights[c - 1]) for c in range(1, cells + 1) if c not in female_set
        },
    }


def _graph_operator(inp: Inputs, rng: np.random.Generator, size: dict) -> None:
    # Many random starts approach a boundary fixed point only algebraically
    # (the per-step move decays like 1/t^2), so ``iterate`` would spend its
    # whole 10^6-step budget on them.  Starts are screened with the reference
    # iteration and kept when they converge within the size's step window.
    # Over OPERATOR_DRAWS operators, the set whose step total is nearest
    # starts * mid-window is used, so a round does about the same iteration
    # work for every seed.
    lo, hi = size["window"]
    target = size["starts"] * (lo + hi) / 2
    best = None
    for draw in itertools.count():
        doc = _construction_doc(rng, size["vertices"])
        pf, pm = heredity_tensors(doc)
        n, nu = pf.shape[0], pf.shape[1]
        x = rng.dirichlet(np.ones(n), CANDIDATE_STARTS)
        y = rng.dirichlet(np.ones(nu), CANDIDATE_STARTS)
        steps = steps_to_converge(pf, pm, x, y, ITER_EPS, hi)
        for pick in itertools.combinations(np.flatnonzero(steps >= lo), size["starts"]):
            miss = abs(steps[list(pick)].sum() - target)
            if best is None or miss < best[0]:
                best = (miss, doc, pick, x, y)
        if draw + 1 >= OPERATOR_DRAWS and best is not None:
            break
        if draw >= MAX_OPERATOR_DRAWS:
            raise RuntimeError(f"no operator with {size['starts']} starts converging in {lo}..{hi} steps")
    _, doc, pick, x, y = best
    states = [_floats(x[i]) + ";" + _floats(y[i]) for i in pick]
    inp.files["construction.json"] = json.dumps(doc, sort_keys=True).encode()
    seed = str(inp.seed)
    inp.commands.append(
        ["construct", "--input", DIR + "construction.json", "--output", DIR + "op.json",
         "--seed", seed]
    )
    for k, state in enumerate(states):
        inp.commands.append(
            ["iterate", "--operator", DIR + "op.json", "--state", state,
             "--trajectory", DIR + f"traj{k}.csv", "--summary", DIR + f"summary{k}.json",
             "--seed", seed]
        )
    inp.expect.update(n=n, nu=nu, starts=size["starts"], construction=doc)


def _closed_form_verify(inp: Inputs, rng: np.random.Generator, size: dict) -> None:
    # The CLI draws the random starts from its own --seed, left at its default:
    # a start whose conserved level puts it near the corner a*c = 1 converges
    # only algebraically, and one such start can double a round, so letting
    # the workload seed move the starts would make the work seed-dependent.
    # The seed picks the four-type slice (a0, c0) and the type-3/4 mixing
    # pair (b, d), kept far from b+d = 1 so that block never converges slowly.
    b, d = rng.uniform(0.15, 0.25, 2)
    a0, c0 = rng.uniform(0.45, 0.55, 2)
    inp.commands.append(
        ["verify", "--case", "two-type", "--grid", str(size["grid2"]),
         "--starts", str(size["starts"]), "--report", DIR + "verify2.json"]
    )
    inp.commands.append(
        ["verify", "--case", "four-type", "--grid", str(size["grid4"]),
         "--starts", str(size["starts"]), "--b", repr(float(b)), "--d", repr(float(d)),
         "--a0", repr(float(a0)), "--c0", repr(float(c0)), "--report", DIR + "verify4.json",
         "--portrait", DIR + "portrait.csv"]
    )
    inp.expect.update(grid2=size["grid2"], grid4=size["grid4"])


def _closed_form_sweep(inp: Inputs, rng: np.random.Generator, size: dict) -> None:
    # An interior four-type start (every coordinate >= 0.025), so it is never fixed.
    x = 0.9 * rng.dirichlet(np.ones(4)) + 0.025
    y = 0.9 * rng.dirichlet(np.ones(4)) + 0.025
    state4 = _floats(x) + ";" + _floats(y)
    ab = f"0.05:0.95:{size['ab']}"
    abcd = f"0.12:0.92:{size['abcd']}"
    slices = f"0.1:0.9:{size['crit_s']}"
    inp.commands += [
        ["sweep", "--case", "two-type", "--a", ab, "--b", ab,
         "--state", f"grid:{size['state_grid']}", "--output", DIR + "sweep2.csv"],
        ["sweep", "--case", "four-type", "--a", abcd, "--b", abcd, "--c", abcd, "--d", abcd,
         "--state", state4, "--output", DIR + "sweep4.csv"],
        ["sweep", "--case", "critical-line", "--a", f"0.05:0.95:{size['crit_a']}",
         "--a0", slices, "--c0", slices, "--x0", f"grid:{size['x0_grid']}",
         "--output", DIR + "sweepc.csv"],
    ]
    inp.expect.update(
        rows={
            "sweep2.csv": size["ab"] ** 2 * size["state_grid"] ** 2,
            "sweep4.csv": size["abcd"] ** 4,
            "sweepc.csv": size["crit_a"] * size["crit_s"] ** 2 * size["x0_grid"],
        }
    )


_BUILDERS = {
    "graph-operator": _graph_operator,
    "closed-form-verify": _closed_form_verify,
    "closed-form-sweep": _closed_form_sweep,
}


def make_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    """The inputs of ``workload`` for ``seed``; the same seed gives the same inputs."""
    inp = Inputs(workload=workload, seed=seed)
    _BUILDERS[workload](inp, np.random.default_rng(seed), SIZES[workload][size])
    return inp

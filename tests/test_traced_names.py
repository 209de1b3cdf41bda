"""The names that the benchmark in ``bench/`` traces exist in the package.

Core claims:
  - every (module, attribute) of ``bench/spans.py``'s ``TRACED`` resolves
    inside ``qsobp`` to a callable
  - what the benchmark's result hooks read is there: an operator's
    ``tensors.pf`` and ``tensors.pm``, a trajectory's ``steps_taken`` and
    ``converged``
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from qsobp.construction import ConfigurationSpace, build_operator, make_graph
from qsobp.dynamics import iterate_map
from qsobp.two_types import TwoTypeParams

from helpers import uniform_weights

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    """``bench/spans.py`` as a module, loaded without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_name_resolves_in_the_package():
    traced = _spans().TRACED
    missing = []
    for module_name, attr in traced:
        owner = importlib.import_module(f"qsobp.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert traced and missing == []


def test_the_results_the_benchmark_hooks_read_have_their_fields():
    space = ConfigurationSpace.build(make_graph(3, [(1, 2)]), 2, [0, 2, 5, 7])
    op = build_operator(space, uniform_weights(space))
    assert isinstance(op.tensors.pf, np.ndarray) and op.tensors.pf.shape == (4, 4, 4)
    assert isinstance(op.tensors.pm, np.ndarray) and op.tensors.pm.shape == (4, 4, 4)
    run = iterate_map(TwoTypeParams(a=0.4, b=0.5).step, (0.2, 0.25))
    assert type(run.steps_taken) is int and run.steps_taken > 0
    assert type(run.converged) is bool and run.converged

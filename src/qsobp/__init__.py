"""Quadratic stochastic operators of bisexual populations.

Construction of evolution operators from graph, allele and weight data;
simulation of their discrete-time dynamics on products of simplexes; and
closed-form fixed-point and limit analysis for the two-type and four-type
case studies, cross-checked by brute-force iteration.
"""

from . import construction, dynamics, errors, four_types, simplex, two_types
from .construction import (
    BisexualOperator,
    ConfigurationSpace,
    Graph,
    HeredityTensors,
    WeightPair,
    build_heredity,
    build_operator,
    compatible_sets,
    connected_components,
    construction_from_json,
    enumerate_cells,
    is_identity,
    make_graph,
    operator_from_json,
    operator_to_json,
)
from .dynamics import (
    FixedPointClass,
    StabilityKind,
    Trajectory,
    classify_fixed_point_2d,
    find_fixed_points_grid,
    iterate,
    iterate_map,
)
from .four_types import CriticalMapParams, FourTypeParams
from .simplex import (
    Distribution,
    PopulationState,
    Tolerance,
    make_distribution,
    make_state,
)
from .two_types import TwoTypeParams

__version__ = "0.1.0"

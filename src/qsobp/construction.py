"""Constructive heredity tensors from a graph, an allele set and weights.

The construction: vertices of a finite simple graph carry alleles; a cell is
one full allele assignment.  The cells are split by the caller into a female
set and a male set, and every cell gets a strictly positive weight.  A child
cell is compatible with a parent pair when, on every connected component of
the graph, it coincides with the mother's assignment or with the father's.
Heredity coefficients are the weight of the child normalized over its
compatible set, so only weight ratios matter.

The build works on whole arrays.  Each cell's restriction to each component
is encoded as one integer: the component's allele pattern read as base
``allele_count`` digits, the component's first vertex the lowest digit.  Two
cells agree on a component exactly when their codes for it are equal, so the
compatibility of every child with every parent pair is a broadcast equality
test against the mother's and the father's codes, taken one component at a
time.  ``compatible_sets`` states the same rule one pair at a time and stays
as the readable reference.

On a connected graph each compatible set collapses to the parent itself and
the resulting operator is the identity; mixing requires at least two
components.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyCompatibleSetError,
    PartitionIndexError,
    SchemaError,
    SizeOverflowError,
)
from .simplex import DEFAULT_TOLERANCE, Tolerance, write_json

# A cell maps each vertex (positionally) to a 1-based allele index.
Cell = tuple[int, ...]

# Spaces whose dense operator tensors (pf, pm and their child-major mixing
# matrix, which holds both mixing parts as one row per child type over one
# column per parent pair, float64) would exceed this many bytes are refused
# before enumeration; what it counts is twice the bytes of pf and pm.  In
# multiples of those bytes, the peak traced memory measured at n = nu = 32 and
# 64 is 4.8 and 4.6 for construct, which builds and writes, and 4.1 and 3.9
# for loading an operator document.
TENSOR_BYTES_CAP = 2**28

# Stochasticity of constructed tensor rows is checked to this tolerance;
# individual entries may undershoot zero only by float dust.
ROW_SUM_EPS = 1e-12
NEG_ENTRY_EPS = 1e-15


@dataclass(frozen=True)
class Graph:
    """Finite simple graph; vertices are the 1-based labels 1..vertex_count."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"loop edge ({a},{b}) not allowed")
            if not (1 <= a < b <= self.vertex_count):
                raise ValueError(f"edge ({a},{b}) out of range or not normalized")


def make_graph(vertex_count: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a Graph from unordered vertex pairs (duplicates collapse)."""
    normalized = set()
    for e in edges:
        a, b = int(e[0]), int(e[1])
        normalized.add((min(a, b), max(a, b)))
    return Graph(vertex_count, frozenset(normalized))


def connected_components(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition the vertices into maximal connected subgraphs.

    Returns the components as sorted vertex tuples, ordered by smallest
    vertex, so the result is deterministic.
    """
    adjacency: dict[int, set[int]] = {v: set() for v in range(1, graph.vertex_count + 1)}
    for a, b in graph.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen: set[int] = set()
    components: list[tuple[int, ...]] = []
    for start in range(1, graph.vertex_count + 1):
        if start in seen:
            continue
        stack, component = [start], set()
        while stack:
            v = stack.pop()
            if v in component:
                continue
            component.add(v)
            stack.extend(adjacency[v] - component)
        seen |= component
        components.append(tuple(sorted(component)))
    return tuple(components)


def enumerate_cells(graph: Graph, allele_count: int) -> tuple[Cell, ...]:
    """All allele assignments over the vertices, in lexicographic order."""
    if allele_count < 1:
        raise ValueError("allele_count must be positive")
    return tuple(itertools.product(range(1, allele_count + 1), repeat=graph.vertex_count))


@dataclass(frozen=True)
class ConfigurationSpace:
    """Enumerated cells of a graph plus a female/male split of them.

    ``females`` and ``males`` hold 0-based indices into ``cells``, sorted
    ascending; female type ``i`` of the resulting operator is the ``i``-th
    entry of ``females`` (and likewise for males).
    """

    allele_count: int
    cells: tuple[Cell, ...]
    components: tuple[tuple[int, ...], ...]
    females: tuple[int, ...]
    males: tuple[int, ...]

    @classmethod
    def build(cls, graph: Graph, allele_count: int, females: Iterable[int]) -> "ConfigurationSpace":
        """Enumerate the space and split it by the given female cell indices.

        The female indices are checked, and then the operator's dense tensors
        against ``TENSOR_BYTES_CAP`` bytes (``SizeOverflowError``), before any
        cell is enumerated.
        """
        female_set = set(int(i) for i in females)
        if allele_count < 1:
            raise ValueError("allele_count must be positive")
        size = allele_count**graph.vertex_count
        for i in female_set:
            if not (0 <= i < size):
                raise PartitionIndexError(f"female cell index {i} out of range")
        if not female_set or len(female_set) == size:
            raise PartitionIndexError("both partition classes must be nonempty")
        n, nu = len(female_set), size - len(female_set)
        needed = 2 * n * nu * (n + nu) * 8
        if needed > TENSOR_BYTES_CAP:
            raise SizeOverflowError(
                f"n={n}, nu={nu}: the operator tensors need {needed} bytes, "
                f"above the bound of {TENSOR_BYTES_CAP}"
            )
        cells = enumerate_cells(graph, allele_count)
        males = tuple(i for i in range(len(cells)) if i not in female_set)
        return cls(
            allele_count=allele_count,
            cells=cells,
            components=connected_components(graph),
            females=tuple(sorted(female_set)),
            males=males,
        )

    @property
    def n(self) -> int:
        return len(self.females)

    @property
    def nu(self) -> int:
        return len(self.males)


def _restriction(cell: Cell, component: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(cell[v - 1] for v in component)


def compatible_sets(
    space: ConfigurationSpace, f_idx: int, m_idx: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Child cells compatible with the parent pair, split by sex.

    A cell is compatible when its restriction to every component of the
    graph equals the mother's restriction or the father's restriction.
    The mother is always in the female set (she matches herself), and the
    father in the male set.  Returns (female indices, male indices).
    """
    if f_idx not in space.females:
        raise PartitionIndexError(f"cell {f_idx} is not in the female set")
    if m_idx not in space.males:
        raise PartitionIndexError(f"cell {m_idx} is not in the male set")
    mother, father = space.cells[f_idx], space.cells[m_idx]
    allowed = [
        {_restriction(mother, comp), _restriction(father, comp)}
        for comp in space.components
    ]

    def is_compatible(cell: Cell) -> bool:
        return all(
            _restriction(cell, comp) in allowed[k]
            for k, comp in enumerate(space.components)
        )

    female_side = tuple(i for i in space.females if is_compatible(space.cells[i]))
    male_side = tuple(j for j in space.males if is_compatible(space.cells[j]))
    if f_idx not in female_side or m_idx not in male_side:
        raise EmptyCompatibleSetError("a parent fell out of its own compatible set")
    return female_side, male_side


@dataclass(frozen=True)
class WeightPair:
    """Strictly positive weights over the female cells and over the male cells."""

    female_weights: Mapping[int, float]
    male_weights: Mapping[int, float]

    def __post_init__(self):
        for label, weights in (("female", self.female_weights), ("male", self.male_weights)):
            for idx, w in weights.items():
                if not (math.isfinite(w) and w > 0):
                    raise ValueError(
                        f"{label} weight for cell {idx} must be finite and > 0, got {w}"
                    )


@dataclass(frozen=True)
class HeredityTensors:
    """Stochastic heredity coefficients of n female and nu male types.

    ``pf[i, k, j]``: probability that mother type ``i`` and father type ``k``
    produce a female child of type ``j``; ``pm[i, k, l]`` the male analogue.
    Every (i, k) row sums to one.  The shapes carry the sizes: pf is
    (n, nu, n) and pm is (n, nu, nu), with n and nu read from ``pf.shape``.
    An operator on them steps coordinate vectors of n + nu entries, the
    female block first.
    """

    pf: np.ndarray
    pm: np.ndarray

    def __post_init__(self):
        shape = self.pf.shape
        if len(shape) != 3 or shape[2] != shape[0] or self.pm.shape != shape[:2] + shape[1:2]:
            raise DimensionMismatchError(f"tensor shapes {shape}, {self.pm.shape}")
        for name, t in (("pf", self.pf), ("pm", self.pm)):
            if not np.isfinite(t).all():
                raise ValueError(f"{name} has non-finite entries")
            if t.min() < -NEG_ENTRY_EPS:
                raise ValueError(f"{name} has negative entries")
            worst = np.abs(t.sum(axis=2) - 1.0).max()
            if worst > ROW_SUM_EPS:
                raise ValueError(f"{name} rows deviate from stochasticity by {worst}")
        self.pf.setflags(write=False)
        self.pm.setflags(write=False)


def _component_codes(space: ConfigurationSpace) -> np.ndarray:
    """codes[c, k]: the allele pattern of cell ``c`` on component ``k``, read as
    base ``allele_count`` digits."""
    alleles = np.array(space.cells) - 1
    return np.stack(
        [alleles[:, [v - 1 for v in comp]] @ space.allele_count ** np.arange(len(comp))
         for comp in space.components],
        axis=1,
    )


def _normalized_rows(compatible: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each (i, k) row: the weights of its compatible children over their total.

    The total is the sequential running sum, which adds the weights in cell
    order as a Python ``sum`` over the compatible set does, so every entry has
    the same bits as the pair-by-pair quotient.
    """
    rows = np.where(compatible, weights, 0.0)
    rows /= np.cumsum(rows, axis=2)[..., -1:]
    return rows


def build_heredity(space: ConfigurationSpace, weights: WeightPair) -> HeredityTensors:
    """Normalize the weights over each compatible set into heredity tensors.

    Gives the same tensors, bit for bit, as normalizing the weights over
    ``compatible_sets`` of every parent pair.
    """
    missing_f = set(space.females) - set(weights.female_weights)
    missing_m = set(space.males) - set(weights.male_weights)
    if missing_f or missing_m:
        raise ValueError(f"weights missing for cells {sorted(missing_f | missing_m)}")
    n, nu = space.n, space.nu
    codes = _component_codes(space)
    mother, father = codes[list(space.females)], codes[list(space.males)]
    child = np.concatenate((mother, father))
    # compatible[i, k, c]: child c agrees with mother i or father k on every
    # component; children are the female cells, then the male cells.
    compatible = np.ones((n, nu, n + nu), dtype=bool)
    for k in range(len(space.components)):
        compatible &= (child[:, k] == mother[:, None, None, k]) | (
            child[:, k] == father[None, :, None, k]
        )
    if not (
        compatible[np.arange(n), :, np.arange(n)].all()
        and compatible[:, np.arange(nu), n + np.arange(nu)].all()
    ):
        raise EmptyCompatibleSetError("a parent fell out of its own compatible set")
    wf = np.array([weights.female_weights[c] for c in space.females], dtype=float)
    wm = np.array([weights.male_weights[c] for c in space.males], dtype=float)
    pf = _normalized_rows(compatible[:, :, :n], wf)
    pm = _normalized_rows(compatible[:, :, n:], wm)
    return HeredityTensors(pf, pm)


@dataclass(frozen=True)
class BisexualOperator:
    """Quadratic evolution operator on a product of two simplexes.

    A state is one coordinate vector s = (x, y), the n female coordinates
    first, then the nu male ones; n and nu are those of the tensors.  On the
    simplexes the operator maps it to
    ``x'_j = sum_{i,k} pf[i,k,j] x_i y_k`` and
    ``y'_l = sum_{i,k} pm[i,k,l] x_i y_k``.  :meth:`apply_raw` evaluates the
    step in the algebraically identical difference form
    ``x'_j = x_j + sum_{i,k} (pf[i,k,j] - [i=j]) x_i y_k``: the literal
    contraction multiplies the total mass of both blocks, so its float
    rounding would compound exponentially along a trajectory, while the
    difference form keeps normalization drift at the rounding level
    without ever renormalizing.  The differences are held child-major as
    the (n + nu, n * nu) mixing matrix ``_q``: row ``c`` is child type ``c``
    and column ``i * nu + k`` the parent pair (i, k), so a step is
    ``s + _q @ (x ⊗ y)``, and a linear functional ``w`` is conserved on the
    simplexes exactly when ``w @ _q = 0``.
    """

    tensors: HeredityTensors

    def __post_init__(self):
        # Mixing matrix: heredity minus the breed-true identity pattern,
        # child-major so that each output of a step is one contiguous dot
        # product.  It is filled from transposed views, so no transposed copy
        # of pf or pm is made.
        n, nu = self.n, self.nu
        q = np.empty((n + nu, n, nu))
        q[:n] = self.tensors.pf.transpose(2, 0, 1)
        q[n:] = self.tensors.pm.transpose(2, 0, 1)
        q[np.arange(n), np.arange(n), :] -= 1.0
        q[n + np.arange(nu), :, np.arange(nu)] -= 1.0
        q = q.reshape(n + nu, n * nu)
        q.setflags(write=False)
        object.__setattr__(self, "_q", q)

    @property
    def n(self) -> int:
        return self.tensors.pf.shape[0]

    @property
    def nu(self) -> int:
        return self.tensors.pf.shape[1]

    @classmethod
    def from_tensors(cls, pf, pm) -> "BisexualOperator":
        return cls(HeredityTensors(np.asarray(pf, dtype=float), np.asarray(pm, dtype=float)))

    def apply_raw(self, s: np.ndarray) -> np.ndarray:
        """One step on coordinates, without simplex validation.

        ``s`` is a (d,) vector or the engine's (d, 1) column, and the result
        has its shape.
        """
        return s + (self._q @ np.outer(s[: self.n], s[self.n :]).ravel()).reshape(s.shape)


def build_operator(space: ConfigurationSpace, weights: WeightPair) -> BisexualOperator:
    return BisexualOperator(build_heredity(space, weights))


def mixing_operator(n: int, nu: int, mixing: Mapping) -> BisexualOperator:
    """The operator on n female and nu male types in which every parent pair
    breeds true, a daughter of the mother's type and a son of the father's,
    except each pair (i, k) in ``mixing``, whose daughter and son rows are
    ``mixing[i, k]``."""
    pf, pm = np.zeros((n, nu, n)), np.zeros((n, nu, nu))
    pf[np.arange(n), :, np.arange(n)] = 1.0
    pm[:, np.arange(nu), np.arange(nu)] = 1.0
    for (i, k), (female, male) in mixing.items():
        pf[i, k], pm[i, k] = female, male
    return BisexualOperator.from_tensors(pf, pm)


def is_identity(op: BisexualOperator, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Decide whether the operator is the identity map on the product of simplexes.

    It is exactly when every parent pair breeds true, that is, when both
    mixing parts vanish (within ``tol.abs_eps``): a pair of vertex states
    (x, y) = (e_i, e_k) picks out the mixing row of the pair (i, k).
    """
    return bool(np.abs(op._q).max() <= tol.abs_eps)


# ---------------------------------------------------------------------------
# JSON interchange.
#
# Construction documents use 1-based cell indices (positions in the
# lexicographic enumeration) to match the 1-based vertex labels:
#   {"vertices": 2, "edges": [], "alleles": 2, "females": [1, 2],
#    "female_weights": {"1": 1.0, "2": 1.0}, "male_weights": {"3": 1.0, "4": 1.0}}
# Operator documents are plain tensor dumps:
#   {"n": 2, "nu": 2, "pf": [[[...]]], "pm": [[[...]]]}
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, int) and not isinstance(value, bool)


def _require(doc: Mapping, field: str, kind: type):
    if not isinstance(doc, Mapping):
        raise SchemaError(field, f"expected a JSON object, got {type(doc).__name__}")
    if field not in doc:
        raise SchemaError(field, "missing required field")
    value = doc[field]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(field, f"expected a number, got {type(value).__name__}")
        return float(value)
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise SchemaError(field, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _weights_from_json(doc: Mapping, field: str, expected: tuple[int, ...]) -> dict[int, float]:
    raw = _require(doc, field, dict)
    weights: dict[int, float] = {}
    for key, value in raw.items():
        try:
            idx = int(key) - 1
        except ValueError:
            raise SchemaError(field, f"cell index {key!r} is not an integer") from None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(field, f"weight for cell {key} is not a number")
        weights[idx] = float(value)
    missing = set(expected) - set(weights)
    extra = set(weights) - set(expected)
    if missing:
        raise SchemaError(field, f"missing weights for cells {sorted(i + 1 for i in missing)}")
    if extra:
        raise SchemaError(field, f"unexpected cells {sorted(i + 1 for i in extra)}")
    return weights


def construction_from_json(doc: Mapping) -> tuple[ConfigurationSpace, WeightPair]:
    """Parse a construction document into a space and weights."""
    vertices = _require(doc, "vertices", int)
    edges = _require(doc, "edges", list)
    alleles = _require(doc, "alleles", int)
    females_raw = _require(doc, "females", list)
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(v) for v in e)):
            raise SchemaError("edges", f"edge {e!r} is not a pair of integers")
    if not all(_is_int(i) for i in females_raw):
        raise SchemaError("females", "cell indices must be integers")
    try:
        graph = make_graph(vertices, edges)
        space = ConfigurationSpace.build(graph, alleles, [i - 1 for i in females_raw])
    except (ValueError, PartitionIndexError, SizeOverflowError) as exc:
        raise SchemaError("construction", str(exc)) from exc
    weights = WeightPair(
        _weights_from_json(doc, "female_weights", space.females),
        _weights_from_json(doc, "male_weights", space.males),
    )
    return space, weights


def operator_from_json(doc: Mapping) -> BisexualOperator:
    n = _require(doc, "n", int)
    nu = _require(doc, "nu", int)
    raw = {"pf": _require(doc, "pf", list), "pm": _require(doc, "pm", list)}
    try:
        pf, pm = np.asarray(raw["pf"], dtype=float), np.asarray(raw["pm"], dtype=float)
    except TypeError as exc:
        raise SchemaError("tensors", f"expected nested lists of numbers ({exc})") from exc
    if pf.shape != (n, nu, n):
        raise SchemaError("pf", f"expected shape {(n, nu, n)}, got {pf.shape}")
    if pm.shape != (n, nu, nu):
        raise SchemaError("pm", f"expected shape {(n, nu, nu)}, got {pm.shape}")
    # The shapes hold, so each tensor is a list of planes of rows of entries.
    # numpy converts strings and booleans too, which are not JSON numbers; the
    # type of ``true`` is ``bool``, not ``int``.
    for field, tensor in raw.items():
        kinds = set(map(type, itertools.chain.from_iterable(itertools.chain.from_iterable(tensor))))
        if not kinds <= {float, int}:
            names = ", ".join(sorted(kind.__name__ for kind in kinds - {float, int}))
            raise SchemaError("tensors", f"expected nested lists of numbers, {field} holds {names}")
    try:
        return BisexualOperator.from_tensors(pf, pm)
    except ValueError as exc:
        raise SchemaError("tensors", str(exc)) from exc


class _SharedFloats(dict):
    """Number text -> its float, made on first use."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def load_json(path: str) -> dict:
    """The JSON document in the file ``path``, equal to what ``json.load`` gives, with
    one float object per distinct number text: tensors of mostly ``0.0`` cost one
    reference per entry.  Malformed JSON and text that is not UTF-8 raise
    ``SchemaError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_SharedFloats().__getitem__)
    except json.JSONDecodeError as exc:
        raise SchemaError("input", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError("input", f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


# ``construct`` writes its operator document through this name, which the
# benchmark traces as the construction layer's writer; reports and summaries
# call ``write_json`` itself, so that verify runs no construction code.
dump_json = write_json

"""Construction of heredity tensors from graphs, alleles and weights.

Core claims:
  - connected components and lexicographic cell enumeration are correct
  - compatible sets follow the per-component recombination rule
  - heredity rows are stochastic, supported on the compatible set, and
    invariant under rescaling all weights of one sex
  - a connected graph yields the identity operator, a disconnected one
    does not (checked exhaustively on small graphs)
  - the four-type space reproduces the closed-form four-type operator, and
    four of the six two-female splits of two isolated vertices give the pair
    block (1 - a, a, c, 1 - c) on the full square, the other two the identity
  - a built operator keeps 300 steps from any start on the product of
    simplexes, with both block totals within 1e-12 of one
  - at n = nu = 64 a step agrees with the tensor contraction to 1e-15, and a
    (d,) vector and a (d, 1) column step to the same bits
  - JSON documents round-trip bit-exactly, and an operator document written,
    loaded and written again keeps its bytes
  - loading an operator document of n = nu = 32 traces at most 5 times the
    tensors' bytes, and construct at most 5.5 times
"""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsobp import construction, four_types
from qsobp.cli import main
from qsobp.construction import (
    BisexualOperator,
    ConfigurationSpace,
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
)
from qsobp.errors import DimensionMismatchError, PartitionIndexError, SchemaError, SizeOverflowError
from qsobp.simplex import block_totals, check_states

from helpers import (apply, constructions, four_type_from_weights, quadratic_form, random_state,
                     state_distance, uniform_weights)

# The two standard spaces used throughout: two isolated vertices with the
# first-allele-at-vertex-1 cells as females, and one edge plus an isolated
# vertex with females = cells where vertex 3 repeats vertex 1's allele.
TWO_VERTEX_FEMALES = [0, 1]  # cells (1,1), (1,2)
THREE_VERTEX_FEMALES = [0, 2, 5, 7]  # cells (1,1,1), (1,2,1), (2,1,2), (2,2,2)
# How far a block total may move from one over a long run of operator steps.
TOTAL_DRIFT = 1e-12


def two_vertex_space() -> ConfigurationSpace:
    return ConfigurationSpace.build(make_graph(2, []), 2, TWO_VERTEX_FEMALES)


def three_vertex_space() -> ConfigurationSpace:
    return ConfigurationSpace.build(make_graph(3, [(1, 2)]), 2, THREE_VERTEX_FEMALES)


# -- graphs and cells --------------------------------------------------------


def test_components_edgeless_pair():
    assert connected_components(make_graph(2, [])) == ((1,), (2,))


def test_components_edge_plus_isolated_vertex():
    assert connected_components(make_graph(3, [(1, 2)])) == ((1, 2), (3,))


def test_components_connected_pair():
    assert connected_components(make_graph(2, [(1, 2)])) == ((1, 2),)


def test_graph_rejects_loops():
    with pytest.raises(ValueError, match=r"loop edge \(1,1\) not allowed"):
        make_graph(2, [(1, 1)])


def test_enumerate_cells_two_vertices():
    cells = enumerate_cells(make_graph(2, []), 2)
    assert cells == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_enumerate_cells_three_vertices():
    assert len(enumerate_cells(make_graph(3, [(1, 2)]), 2)) == 8


def test_enumerate_cells_singleton():
    assert enumerate_cells(make_graph(1, []), 1) == ((1,),)


def test_enumerate_cells_overflow(monkeypatch):
    def enumerate_cells(*args):
        raise AssertionError("the space was enumerated")

    # Every refusal below comes before enumerating; a broken check fails fast
    # here instead of listing 2**40 cells.
    monkeypatch.setattr(construction, "enumerate_cells", enumerate_cells)
    # Three alleles on seven vertices, split evenly: 1093 female and 1094
    # male cells, whose four dense tensors would need about 42 GB.
    with pytest.raises(SizeOverflowError, match="41841404064 bytes"):
        ConfigurationSpace.build(make_graph(7, []), 3, range(1093))
    with pytest.raises(SizeOverflowError):
        ConfigurationSpace.build(make_graph(40, []), 2, [0])
    # An empty female set (no tensor at all) is refused before enumerating too.
    with pytest.raises(PartitionIndexError, match="nonempty"):
        ConfigurationSpace.build(make_graph(40, []), 2, [])
    with pytest.raises(PartitionIndexError, match="out of range"):
        ConfigurationSpace.build(make_graph(40, []), 2, [2**40])
    monkeypatch.undo()
    assert ConfigurationSpace.build(make_graph(7, []), 2, range(64)).n == 64


def test_a_space_too_large_for_any_split_is_refused_from_a_bounded_power():
    # 3**10_000_000 has 4.8 million digits; its cells are refused from 3**29, and each
    # female index is checked against a power over its own bit length of vertices.
    with pytest.raises(SizeOverflowError, match=r"^3\*\*10000000 cells: "):
        ConfigurationSpace.build(make_graph(10_000_000, []), 3, [0, 2**64])
    with pytest.raises(PartitionIndexError, match="index 9 out of range"):
        ConfigurationSpace.build(make_graph(2, []), 3, [0, 9])
    assert construction.cell_count(10_000_000, 1) == 1
    assert construction.cell_count(12, 2) == 4096
    with pytest.raises(SizeOverflowError):
        construction.cell_count(1, 4097)


# -- compatible sets ---------------------------------------------------------


def test_compatible_sets_mixed_pair():
    space = two_vertex_space()
    # mother (1,2), father (2,1): every vertex may come from either parent,
    # so all four cells are reachable.
    female_side, male_side = compatible_sets(space, 1, 2)
    assert female_side == (0, 1)
    assert male_side == (2, 3)


def test_compatible_sets_sharing_pair():
    space = two_vertex_space()
    female_side, male_side = compatible_sets(space, 0, 2)
    assert female_side == (0,)
    assert male_side == (2,)
    female_side, male_side = compatible_sets(space, 1, 3)
    assert female_side == (1,)
    assert male_side == (3,)


def test_compatible_sets_complementary_pair():
    space = two_vertex_space()
    # mother (1,1), father (2,2): again both vertices differ, so by the
    # per-component rule both female cells (1,1), (1,2) are reachable.
    female_side, male_side = compatible_sets(space, 0, 3)
    assert female_side == (0, 1)
    assert male_side == (2, 3)


def test_compatible_sets_connected_graph_collapses_to_parents():
    space = ConfigurationSpace.build(make_graph(2, [(1, 2)]), 2, [0, 1])
    for f in space.females:
        for m in space.males:
            female_side, male_side = compatible_sets(space, f, m)
            assert female_side == (f,)
            assert male_side == (m,)


def test_compatible_sets_four_type_table():
    # Exactly four parent pairs mix, one per parent, swapping within a pair
    # of cells that agree on one component and differ on the other.
    space = three_vertex_space()
    f_cells, m_cells = space.females, space.males
    expected_mixing = {
        (f_cells[0], m_cells[1]): ((f_cells[0], f_cells[1]), (m_cells[0], m_cells[1])),
        (f_cells[1], m_cells[0]): ((f_cells[0], f_cells[1]), (m_cells[0], m_cells[1])),
        (f_cells[2], m_cells[3]): ((f_cells[2], f_cells[3]), (m_cells[2], m_cells[3])),
        (f_cells[3], m_cells[2]): ((f_cells[2], f_cells[3]), (m_cells[2], m_cells[3])),
    }
    for f in f_cells:
        for m in m_cells:
            female_side, male_side = compatible_sets(space, f, m)
            if (f, m) in expected_mixing:
                assert (female_side, male_side) == expected_mixing[(f, m)]
            else:
                assert (female_side, male_side) == ((f,), (m,))


def test_compatible_sets_rejects_wrong_partition():
    space = two_vertex_space()
    with pytest.raises(PartitionIndexError):
        compatible_sets(space, 2, 3)
    with pytest.raises(PartitionIndexError):
        compatible_sets(space, 0, 1)


# -- heredity tensors --------------------------------------------------------


@pytest.mark.parametrize("pf_shape, pm_shape", [((2, 2, 2), (2, 2, 3)), ((2, 3, 2), (2, 2, 2)),
                                                 ((2, 2), (2, 2, 2)), ((2, 2, 3), (2, 2, 2))])
def test_heredity_tensors_of_mismatched_shapes_are_refused(pf_shape, pm_shape):
    # pf must be (n, nu, n) and pm (n, nu, nu); each tensor is otherwise stochastic.
    pf, pm = (np.full(shape, 1.0 / shape[-1]) for shape in (pf_shape, pm_shape))
    with pytest.raises(DimensionMismatchError, match="tensor shapes"):
        construction.HeredityTensors(pf, pm)


def test_uniform_weights_give_half():
    space = two_vertex_space()
    tensors = build_heredity(space, uniform_weights(space))
    assert tensors.pf[1, 0, 0] == pytest.approx(0.5)
    assert tensors.pm[1, 0, 0] == pytest.approx(0.5)


def test_two_vertex_tensor_pattern():
    # Female weights 2:1 give the mixing ratio 2/3 on both mixing rows
    # (the sharing pairs (0,2) and (1,3) breed true).
    space = two_vertex_space()
    weights = WeightPair({0: 2.0, 1: 1.0}, {2: 1.0, 3: 3.0})
    tensors = build_heredity(space, weights)
    a = 2.0 / 3.0
    b = 1.0 / 4.0
    expected_pf = np.array(
        [
            [[1.0, 0.0], [a, 1.0 - a]],
            [[a, 1.0 - a], [0.0, 1.0]],
        ]
    )
    expected_pm = np.array(
        [
            [[1.0, 0.0], [b, 1.0 - b]],
            [[b, 1.0 - b], [0.0, 1.0]],
        ]
    )
    np.testing.assert_allclose(tensors.pf, expected_pf, atol=1e-15)
    np.testing.assert_allclose(tensors.pm, expected_pm, atol=1e-15)


@pytest.mark.parametrize("females", list(itertools.combinations(range(4), 2)))
def test_the_edgeless_two_vertex_splits_give_the_full_square_block_or_the_identity(females):
    # The paper's n = nu = 2 class: of the six two-female splits of the cells (1,1), (1,2),
    # (2,1), (2,2), four give the pair block (1 - a, a, c, 1 - c) on the full square, with
    # a and c the first type's share of its sex's weight, and {(1,1), (2,2)} and
    # {(1,2), (2,1)} give the identity.
    rng = np.random.default_rng(20 + sum(females))
    space = ConfigurationSpace.build(make_graph(2, []), 2, females)
    wf, wm = rng.uniform(0.5, 3.0, 2), rng.uniform(0.5, 3.0, 2)
    op = build_operator(space, WeightPair(dict(zip(space.females, wf)), dict(zip(space.males, wm))))
    if females in ((0, 3), (1, 2)):
        assert is_identity(op)
        return
    a, c = wf[0] / (wf[0] + wf[1]), wm[0] / (wm[0] + wm[1])
    for _ in range(200):
        s = random_state(rng, 2, 2)
        block_step = four_types._pair_step(1.0 - a, a, c, 1.0 - c, *s)
        assert np.abs(op.apply_raw(s) - block_step).max() <= 1e-15


def test_four_type_tensors_match_closed_form_pattern():
    space = three_vertex_space()
    female_w = [3.0, 7.0, 2.0, 3.0]
    male_w = [1.0, 4.0, 6.0, 4.0]
    weights = WeightPair(
        dict(zip(space.females, female_w)), dict(zip(space.males, male_w))
    )
    built = build_heredity(space, weights)
    p = four_type_from_weights(female_w, male_w, a0=0.5, c0=0.5)
    lifted = four_types.lift_operator(p)
    np.testing.assert_allclose(built.pf, lifted.tensors.pf, atol=1e-15)
    np.testing.assert_allclose(built.pm, lifted.tensors.pm, atol=1e-15)


def test_four_type_operator_matches_closed_form_map():
    rng = np.random.default_rng(11)
    space = three_vertex_space()
    female_w = list(rng.uniform(0.5, 3.0, 4))
    male_w = list(rng.uniform(0.5, 3.0, 4))
    weights = WeightPair(
        dict(zip(space.females, female_w)), dict(zip(space.males, male_w))
    )
    op = build_operator(space, weights)
    p = four_type_from_weights(female_w, male_w, a0=0.5, c0=0.5)
    for _ in range(100):
        s = random_state(rng, 4, 4)
        via_tensors = apply(op, s)
        via_closed_form = p.step(s)
        assert max(abs(u - v) for u, v in zip(via_tensors, via_closed_form)) <= 1e-12


def test_weight_scale_invariance():
    space = three_vertex_space()
    base = WeightPair(
        {i: w for i, w in zip(space.females, [1.0, 2.0, 3.0, 4.0])},
        {j: w for j, w in zip(space.males, [4.0, 3.0, 2.0, 1.0])},
    )
    scaled = WeightPair(
        {i: 17.5 * w for i, w in base.female_weights.items()},
        dict(base.male_weights),
    )
    t1 = build_heredity(space, base)
    t2 = build_heredity(space, scaled)
    np.testing.assert_allclose(t1.pf, t2.pf, atol=1e-15)
    np.testing.assert_allclose(t1.pm, t2.pm, atol=1e-15)


def test_weights_must_be_positive_and_complete():
    space = two_vertex_space()
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            WeightPair({0: bad, 1: 1.0}, {2: 1.0, 3: 1.0})
        with pytest.raises(ValueError):
            WeightPair({0: 1.0, 1: 1.0}, {2: 1.0, 3: bad})
    with pytest.raises(ValueError):
        build_heredity(space, WeightPair({0: 1.0}, {2: 1.0, 3: 1.0}))


def _random_small_space(rng):
    vertex_count = int(rng.integers(2, 5))
    possible = list(itertools.combinations(range(1, vertex_count + 1), 2))
    edges = [e for e in possible if rng.random() < 0.4]
    graph = make_graph(vertex_count, edges)
    cells = enumerate_cells(graph, 2)
    females = list(range(len(cells) // 2))
    return ConfigurationSpace.build(graph, 2, females)


def test_random_spaces_yield_stochastic_supported_tensors():
    rng = np.random.default_rng(23)
    for _ in range(25):
        space = _random_small_space(rng)
        weights = WeightPair(
            {i: float(rng.uniform(0.1, 5.0)) for i in space.females},
            {j: float(rng.uniform(0.1, 5.0)) for j in space.males},
        )
        tensors = build_heredity(space, weights)
        assert np.abs(tensors.pf.sum(axis=2) - 1.0).max() <= 1e-12
        assert np.abs(tensors.pm.sum(axis=2) - 1.0).max() <= 1e-12
        f_pos = {cell: t for t, cell in enumerate(space.females)}
        for i, f in enumerate(space.females):
            for k, m in enumerate(space.males):
                female_side, _ = compatible_sets(space, f, m)
                allowed = {f_pos[c] for c in female_side}
                support = set(np.nonzero(tensors.pf[i, k])[0])
                assert support <= allowed


# A start's weights: zero half the time, so starts lie on faces of the simplexes too.
START_WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def operators_and_starts(draw):
    """A built operator and a start on the product of simplexes."""
    op = build_operator(*draw(constructions()))
    blocks = []
    for size in (op.n, op.nu):
        w = np.array(draw(st.lists(START_WEIGHT, min_size=size, max_size=size)))
        assume(w.sum() > 0.0)
        blocks.append(w / w.sum())
    return op, np.concatenate(blocks)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(operators_and_starts())
def test_built_operators_preserve_the_simplex(case):
    # 300 steps: every state passes check_states, and each block total stays
    # within TOTAL_DRIFT of one.
    op, s = case
    states = [s]
    for _ in range(300):
        states.append(op.apply_raw(states[-1]))
    states = np.array(states)
    check_states(states, op.n)
    for total in block_totals(states, op.n):
        assert np.abs(total - 1.0).max() <= TOTAL_DRIFT


def test_operator_step_at_graph_operator_size_matches_the_quadratic_form():
    # 128 cells on one edge and five isolated vertices, half of them female,
    # give n = nu = 64: there OpenBLAS threads the step's product, which the
    # small spaces of the property tests never reach.
    rng = np.random.default_rng(15)
    space = ConfigurationSpace.build(make_graph(7, [(1, 2)]), 2, rng.choice(128, 64, replace=False))
    weights = WeightPair({c: float(rng.uniform(0.5, 2.0)) for c in space.females},
                         {c: float(rng.uniform(0.5, 2.0)) for c in space.males})
    op = build_operator(space, weights)
    assert (op.n, op.nu) == (64, 64)
    for _ in range(20):
        s = np.concatenate((rng.dirichlet(np.ones(op.n)), rng.dirichlet(np.ones(op.nu))))
        step = op.apply_raw(s)
        assert np.abs(step - quadratic_form(op, s)).max() <= 1e-15
        # The engine's (d, 1) column steps to the same bits as the (d,) vector.
        assert np.array_equal(op.apply_raw(s[:, None]), step[:, None])


# -- identity detection ------------------------------------------------------


def test_connected_graph_gives_identity():
    space = ConfigurationSpace.build(make_graph(2, [(1, 2)]), 2, [0, 1])
    op = build_operator(space, uniform_weights(space))
    assert is_identity(op)


def test_mixing_operator_is_not_identity():
    from qsobp.two_types import TwoTypeParams, lift_operator

    assert not is_identity(lift_operator(TwoTypeParams(a=0.5, b=0.5)))
    # Every heredity row an indicator row, but the offspring swap types.
    swap = np.zeros((2, 2, 2))
    swap[:, :, 0], swap[:, :, 1] = [[0, 0], [1, 1]], [[1, 1], [0, 0]]
    assert not is_identity(BisexualOperator.from_tensors(swap, np.eye(2)[None].repeat(2, 0)))


def test_two_component_graph_is_not_identity():
    space = ConfigurationSpace.build(make_graph(3, [(1, 2)]), 2, THREE_VERTEX_FEMALES)
    op = build_operator(space, uniform_weights(space))
    assert not is_identity(op)


def _all_graphs(vertex_count):
    possible = list(itertools.combinations(range(1, vertex_count + 1), 2))
    for mask in range(2 ** len(possible)):
        edges = [e for i, e in enumerate(possible) if mask >> i & 1]
        yield make_graph(vertex_count, edges)


def test_identity_iff_connected_on_small_graphs():
    rng = np.random.default_rng(3)
    for vertex_count in (2, 3):
        for graph in _all_graphs(vertex_count):
            cells = enumerate_cells(graph, 2)
            space = ConfigurationSpace.build(graph, 2, range(len(cells) // 2))
            weights = WeightPair(
                {i: float(rng.uniform(0.2, 4.0)) for i in space.females},
                {j: float(rng.uniform(0.2, 4.0)) for j in space.males},
            )
            op = build_operator(space, weights)
            connected = len(space.components) == 1
            assert is_identity(op) == connected


def test_identity_with_three_alleles():
    space = ConfigurationSpace.build(make_graph(3, [(1, 2), (2, 3)]), 3, range(13))
    op = build_operator(space, uniform_weights(space))
    assert is_identity(op)


# -- JSON interchange --------------------------------------------------------


def _document(op):
    """The operator document of ``op``, its tensors as nested lists."""
    return {"n": op.n, "nu": op.nu, "pf": op.tensors.pf.tolist(), "pm": op.tensors.pm.tolist()}


def _two_vertex_doc():
    return {
        "vertices": 2,
        "edges": [],
        "alleles": 2,
        "females": [1, 2],
        "female_weights": {"1": 2.0, "2": 1.0},
        "male_weights": {"3": 1.0, "4": 1.0},
    }


def test_construction_from_json():
    space, weights = construction_from_json(_two_vertex_doc())
    assert space.females == (0, 1)
    assert weights.female_weights[0] == 2.0
    tensors = build_heredity(space, weights)
    assert tensors.pf[1, 0, 0] == pytest.approx(2.0 / 3.0)


def test_construction_json_schema_errors():
    doc = _two_vertex_doc()
    del doc["alleles"]
    with pytest.raises(SchemaError):
        construction_from_json(doc)
    doc = _two_vertex_doc()
    doc["female_weights"] = {"1": 2.0}
    with pytest.raises(SchemaError):
        construction_from_json(doc)
    doc = _two_vertex_doc()
    doc["females"] = [1, 2, 3, 4]
    with pytest.raises(SchemaError):
        construction_from_json(doc)
    doc = _two_vertex_doc()
    doc["female_weights"] = {"1": 2.0, "2": "heavy"}
    with pytest.raises(SchemaError):
        construction_from_json(doc)


ONE_VERTEX_DOC = {
    "vertices": 1,
    "edges": [],
    "alleles": 2,
    "females": [1],
    "female_weights": {"1": 1.0},
    "male_weights": {"2": 1.0},
}


@pytest.mark.parametrize(
    "base, field, value",
    [
        (ONE_VERTEX_DOC, "vertices", True),
        (dict(ONE_VERTEX_DOC, vertices=2, edges=[[1, 2]], females=[1, 2],
              female_weights={"1": 1.0, "2": 1.0}, male_weights={"3": 1.0, "4": 1.0}),
         "edges", [[True, 2]]),
        (_two_vertex_doc(), "females", [True, 2]),
    ],
    ids=["vertices", "edges", "females"],
)
def test_construction_json_rejects_booleans_as_integers(base, field, value):
    construction_from_json(base)  # the document is valid with the integer in place
    with pytest.raises(SchemaError):
        construction_from_json(dict(base, **{field: value}))


def test_operator_json_rejects_booleans_as_sizes():
    doc = {"n": True, "nu": True, "pf": [[[1.0]]], "pm": [[[1.0]]]}
    with pytest.raises(SchemaError):
        operator_from_json(doc)
    doc["n"] = doc["nu"] = 1
    assert operator_from_json(doc).n == 1


def test_operator_json_round_trip():
    rng = np.random.default_rng(1)
    space, weights = construction_from_json(_two_vertex_doc())
    op = build_operator(space, weights)
    back = operator_from_json(_document(op))
    for _ in range(20):
        s = random_state(rng, 2, 2)
        assert state_distance(apply(op, s), apply(back, s)) == 0.0


def test_operator_file_round_trip_keeps_its_bytes(tmp_path):
    # 32 cells on one edge and three isolated vertices, split 16 to 16.
    rng = np.random.default_rng(3)
    space = ConfigurationSpace.build(make_graph(5, [(1, 2)]), 2, range(0, 32, 2))
    weights = WeightPair(
        {c: float(rng.uniform(0.5, 2.0)) for c in space.females},
        {c: float(rng.uniform(0.5, 2.0)) for c in space.males},
    )
    op = build_operator(space, weights)
    assert (op.n, op.nu) == (16, 16)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    construction.dump_json(_document(op), str(first))
    back = operator_from_json(construction.load_json(str(first)))
    assert np.array_equal(back.tensors.pf, op.tensors.pf)
    assert np.array_equal(back.tensors.pm, op.tensors.pm)
    construction.dump_json(_document(back), str(second))
    assert second.read_bytes() == first.read_bytes()
    expected = json.dumps(_document(op), indent=2, sort_keys=True) + "\n"
    assert first.read_bytes() == expected.encode()


def _half_female_six_vertex_document():
    """64 cells on one edge and four isolated vertices, the odd-numbered ones
    female (n = nu = 32), with weights in [0.5, 2]."""
    rng = np.random.default_rng(7)
    weights = {str(c): float(rng.uniform(0.5, 2.0)) for c in range(1, 65)}
    return {"vertices": 6, "edges": [[1, 2]], "alleles": 2, "females": list(range(1, 65, 2)),
            "female_weights": {c: w for c, w in weights.items() if int(c) % 2},
            "male_weights": {c: w for c, w in weights.items() if not int(c) % 2}}


def _traced_peak(run) -> int:
    """The largest number of bytes traced while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_an_operator_document_holds_few_copies_of_its_tensors(tmp_path):
    # About 4.1 times the tensors' bytes; with one float object per entry, 6.3.
    op = build_operator(*construction_from_json(_half_female_six_vertex_document()))
    assert (op.n, op.nu) == (32, 32)
    path = str(tmp_path / "op.json")
    construction.dump_json(_document(op), path)
    tensor_bytes = op.tensors.pf.nbytes + op.tensors.pm.nbytes
    peak = _traced_peak(lambda: operator_from_json(construction.load_json(path)))
    assert peak <= 5 * tensor_bytes


def test_construct_holds_few_copies_of_the_tensors(tmp_path, capsys):
    # About 4.8 times the tensors' bytes; through nested lists of floats, 6.6.
    doc = _half_female_six_vertex_document()
    op = build_operator(*construction_from_json(doc))
    (tmp_path / "c.json").write_text(json.dumps(doc))
    argv = ["construct", "--input", str(tmp_path / "c.json"), "--output", str(tmp_path / "op.json")]
    peak = _traced_peak(lambda: main(argv))
    assert peak <= 5.5 * (op.tensors.pf.nbytes + op.tensors.pm.nbytes)


def test_operator_json_shape_check():
    with pytest.raises(SchemaError):
        operator_from_json({"n": 2, "nu": 2, "pf": [[0.5]], "pm": [[0.5]]})


def test_operator_rejects_nonstochastic_tensor():
    pf = np.full((2, 2, 2), 0.3)
    pm = np.full((2, 2, 2), 0.5)
    with pytest.raises(ValueError):
        BisexualOperator.from_tensors(pf, pm)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_operator_rejects_non_finite_entries(bad):
    # Neither the minimum nor the row-sum test sees a NaN.
    pf = np.full((2, 2, 2), 0.5)
    pm = np.full((2, 2, 2), 0.5)
    pm[1, 0] = [bad, 0.5]
    with pytest.raises(ValueError, match="non-finite"):
        BisexualOperator.from_tensors(pf, pm)

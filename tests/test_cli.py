"""Command-line behavior: file formats, exit codes, determinism.

Core claims:
  - construct writes an operator JSON and prints the size and verdicts
  - iterate writes a step-indexed trajectory CSV and a summary JSON whose
    limit matches the closed-form prediction; from a construction it writes
    what construct followed by iterate --operator writes
  - predict / classify / fixed-points emit the documented JSON documents
  - verify pairs closed-form limits with iteration and reports pass/fail
  - sweep emits deterministic CSV, flipping branches exactly at the
    critical parameter sum, where the limit keeps the block's x+y; it
    writes -0.0 and 0.0 as given, and its memory does not grow with the grid
  - an input error names its flag or document field: bad states, ranges,
    grid starts, operator sources, construction and operator documents, and
    fixed-points grids of 1 or below 0 each exit 2 with one line
    'input error: <field>: ...' and no output file; an integer past Python's
    limit on integer text is an error of the document, 'input', and a count of
    cells too large, a weight key too long and a count below 1 are named by
    their number of digits once past 20
  - exit codes: 0 ran, 2 input error, 3 i/o error; malformed JSON, a file
    that is not UTF-8, non-finite weights and tensor entries, tensor
    entries that are not JSON numbers, ragged tensors, --seed on a
    command that draws nothing, --grid on a case without a planar map, a
    start or parameter flag the case (or, for classify and fixed-points, its
    planar map) does not read, fixed-points' --abs-eps, and its two-type
    --a and --b, without --grid, four-type classify's --abs-eps, a parameter
    flag the start fixes and a two-type classify point that is not fixed are input
    errors; no JSON document holds NaN or infinity
  - a verify grid of more than VERIFY_ROWS_CAP rows (grid**2 * starts) and a
    fixed-points grid of more than GRID_SEEDS_CAP seeds exit 2 with a message
    naming the bound, before any array is allocated or file written
  - each command takes only the flags it reads: the iteration threshold and
    budget only where something iterates, the comparison epsilon everywhere
    but construct and iterate, and no slice sum on iterate
  - every parameter and tolerance flag a command takes either runs or is
    refused with a message that names the flag and the --case X or iterate
    source given, and nothing the user did not give: no other case or source,
    no --case on iterate, no --grid for a case without a grid search
  - a tolerance out of range names its field
  - classify reads a two-type point as predict does, as x,y or a state
  - a value that starts with '-' and a digit, such as the range -1:2:7, is a
    value after its flag as after '='
  - trajectory files do not depend on the number of BLAS threads
  - predict, classify, fixed-points, verify and sweep never load
    qsobp.construction; construct and iterate reach its functions through the
    module when they run, so a wrapper of a module attribute sees every call
  - the parser is built once per process, and main looks each command's
    function up in the module at every call, so a wrapper of it sees every call
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qsobp
from qsobp import cli, construction, four_types, simplex, two_types
from qsobp.cli import main

from test_cli_golden import FOUR_STATE, INPUTS

TWO_TYPE_DOC = {
    "vertices": 2,
    "edges": [],
    "alleles": 2,
    "females": [1, 2],
    "female_weights": {"1": 2.0, "2": 1.0},
    "male_weights": {"3": 1.0, "4": 1.0},
}

FOUR_TYPE_DOC = {
    "vertices": 3,
    "edges": [[1, 2]],
    "alleles": 2,
    "females": [1, 3, 6, 8],
    "female_weights": {"1": 3.0, "3": 7.0, "6": 2.0, "8": 3.0},
    "male_weights": {"2": 1.0, "4": 4.0, "5": 6.0, "7": 2.0},
}

CONNECTED_DOC = {
    "vertices": 2,
    "edges": [[1, 2]],
    "alleles": 2,
    "females": [1, 2],
    "female_weights": {"1": 1.5, "2": 0.5},
    "male_weights": {"3": 2.5, "4": 1.0},
}


def _write(path, doc):
    """Write ``doc`` as JSON, or bytes as given."""
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return str(path)


def test_construct_two_type(tmp_path, capsys):
    inp = _write(tmp_path / "c.json", TWO_TYPE_DOC)
    out = tmp_path / "op.json"
    assert main(["construct", "--input", inp, "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "n=2 nu=2" in printed
    assert "connected: false" in printed
    assert "identity: false" in printed
    doc = json.loads(out.read_text())
    assert doc["n"] == 2 and doc["nu"] == 2
    assert doc["pf"][1][0][0] == pytest.approx(2.0 / 3.0)


def test_construct_connected_graph_is_identity(tmp_path, capsys):
    inp = _write(tmp_path / "c.json", CONNECTED_DOC)
    out = tmp_path / "op.json"
    assert main(["construct", "--input", inp, "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "connected: true" in printed
    assert "identity: true" in printed


def test_construct_schema_error_exits_2(tmp_path, capsys):
    doc = dict(TWO_TYPE_DOC)
    del doc["females"]
    inp = _write(tmp_path / "c.json", doc)
    assert main(["construct", "--input", inp, "--output", str(tmp_path / "op.json")]) == 2


def test_construct_missing_file_exits_3(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["construct", "--input", missing, "--output", str(tmp_path / "op.json")]) == 3


def test_iterate_two_type_reaches_predicted_limit(tmp_path):
    traj = tmp_path / "traj.csv"
    summ = tmp_path / "summary.json"
    code = main(
        [
            "iterate",
            "--two-type",
            "--a",
            "0.4",
            "--b",
            "0.5",
            "--state",
            "0.2,0.8;0.25,0.75",
            "--trajectory",
            str(traj),
            "--summary",
            str(summ),
        ]
    )
    assert code == 0
    summary = json.loads(summ.read_text())
    assert summary["converged"] is True
    limit = summary["limit"]
    assert limit["female"][0] == pytest.approx(0.4, abs=1e-6)
    assert limit["male"][0] == pytest.approx(0.0, abs=1e-6)
    assert summary["seed"] == 42
    with open(traj, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "x_1", "x_2", "y_1", "y_2"]
    assert rows[1][0] == "0"
    assert float(rows[1][1]) == 0.2


def test_iterate_fixed_start_zero_steps(tmp_path):
    summ = tmp_path / "summary.json"
    code = main(
        [
            "iterate",
            "--two-type",
            "--a",
            "0.4",
            "--b",
            "0.5",
            "--state",
            "0.3,0.7;0,1",
            "--summary",
            str(summ),
        ]
    )
    assert code == 0
    summary = json.loads(summ.read_text())
    assert summary["converged"] is True
    assert summary["steps"] == 0


def test_iterate_four_type_inline(tmp_path):
    summ = tmp_path / "summary.json"
    code = main(
        [
            "iterate",
            "--four-type",
            "--a", "0.7", "--b", "0.3", "--c", "0.7", "--d", "0.3",
            "--state",
            "0.2,0.3,0.2,0.3;0.1,0.4,0.3,0.2",
            "--summary",
            str(summ),
        ]
    )
    assert code == 0
    limit = json.loads(summ.read_text())["limit"]
    # first-pair sums above one, second below: types 1 and 4 persist
    assert limit["female"] == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-6)
    assert limit["male"] == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-6)


def test_iterate_with_operator_json(tmp_path):
    inp = _write(tmp_path / "c.json", FOUR_TYPE_DOC)
    op_path = tmp_path / "op.json"
    main(["construct", "--input", inp, "--output", str(op_path)])
    summ = tmp_path / "summary.json"
    code = main(
        [
            "iterate",
            "--operator",
            str(op_path),
            "--state",
            "0.2,0.3,0.3,0.2;0.1,0.4,0.25,0.25",
            "--summary",
            str(summ),
        ]
    )
    assert code == 0
    assert json.loads(summ.read_text())["converged"] is True


def test_iterate_from_a_construction_equals_construct_then_iterate(tmp_path):
    construction_path = _write(tmp_path / "four.json", INPUTS["four.json"])
    op_path = str(tmp_path / "op.json")
    assert main(["construct", "--input", construction_path, "--output", op_path]) == 0
    runs = {}
    for source, path in (("construction", construction_path), ("operator", op_path)):
        trajectory, summary = tmp_path / f"{source}.csv", tmp_path / f"{source}.json"
        assert main(["iterate", f"--{source}", path, "--state", FOUR_STATE,
                     "--trajectory", str(trajectory), "--summary", str(summary)]) == 0
        runs[source] = (trajectory.read_bytes(), json.loads(summary.read_text()))
    (built_rows, built), (loaded_rows, loaded) = runs["construction"], runs["operator"]
    assert built_rows == loaded_rows
    assert built.pop("source") == {"kind": "construction-json", "path": construction_path}
    assert loaded.pop("source") == {"kind": "operator-json", "path": op_path}
    assert built == loaded


def test_iterate_dimension_mismatch_exits_2(tmp_path):
    code = main(
        ["iterate", "--two-type", "--a", "0.4", "--b", "0.5", "--state", "0.2,0.3,0.5;0.25,0.75"]
    )
    assert code == 2


def test_iterate_a_start_split_unlike_the_operator_exits_2(tmp_path, capsys):
    # 0.5,0.5;0.5,0.5 has the length of the construction's n = 1 and nu = 3.
    doc = {"vertices": 2, "edges": [], "alleles": 2, "females": [1],
           "female_weights": {"1": 1.0}, "male_weights": {"2": 1.0, "3": 1.0, "4": 1.0}}
    path = _write(tmp_path / "c.json", doc)
    assert main(["iterate", "--construction", path, "--state", "0.5,0.5;0.5,0.5"]) == 2
    assert "state dims (2, 2), operator (1,3)" in capsys.readouterr().err


def test_predict_two_type(tmp_path):
    out = tmp_path / "p.json"
    code = main(
        ["predict", "--case", "two-type", "--a", "0.4", "--b", "0.5",
         "--state", "0.2,0.25", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["limit"] == pytest.approx([0.4, 0.0])
    assert doc["class"] == "m1-extinct"


def test_predict_fixed_start_exits_2():
    assert main(["predict", "--case", "two-type", "--a", "0.4", "--b", "0.5", "--state", "0.3,0"]) == 2


def test_predict_critical_line(tmp_path):
    out = tmp_path / "p.json"
    code = main(
        ["predict", "--case", "critical-line", "--a", "0.75", "--a0", "0.5",
         "--c0", "0.5", "--x0", "0.1", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["limit"] == pytest.approx(0.5)
    assert doc["class"] == "quadratic"


def test_classify_four_type(tmp_path):
    out = tmp_path / "c.json"
    code = main(
        ["classify", "--case", "four-type", "--a", "0.3", "--c", "0.3",
         "--a0", "0.5", "--c0", "0.5", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    kinds = {tuple(entry["point"]): entry["kind"] for entry in doc["points"]}
    assert kinds[(0.0, 0.0)] == "attracting"
    assert kinds[(0.5, 0.5)] == "saddle"


def test_fixed_points_critical_line(tmp_path):
    out = tmp_path / "f.json"
    code = main(
        ["fixed-points", "--case", "critical-line", "--a", "0.75",
         "--a0", "0.5", "--c0", "0.5", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["point"] == pytest.approx(0.5)
    assert doc["spurious"] == pytest.approx(1.5)
    assert doc["slope"] == pytest.approx(0.5)


def test_fixed_points_four_type_with_grid(tmp_path):
    out = tmp_path / "f.json"
    code = main(
        ["fixed-points", "--case", "four-type", "--a", "0.3", "--c", "0.3",
         "--a0", "0.5", "--c0", "0.5", "--grid", "5", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["points"] == [[0.0, 0.0], [0.5, 0.5]]
    assert len(doc["grid_points"]) == 2
    # The search runs on the box [0, a0] x [0, c0]; no point may lie outside it.
    assert all(0.0 <= x <= 0.5 and 0.0 <= y <= 0.5 for x, y in doc["grid_points"])


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["fixed-points", "--case", "four-type", "--grid", "5"], ["--abs-eps", "1e-9"]),
        (["fixed-points", "--case", "two-type", "--grid", "3"],
         ["--a", "0.3", "--b", "0.3", "--abs-eps", "1e-9"]),
    ],
)
def test_a_tolerance_or_parameter_flag_given_its_default_writes_the_same_bytes(
    argv, defaults, tmp_path
):
    outputs = []
    for flags in ([], defaults):
        out = tmp_path / "f.json"
        assert main([*argv, *flags, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_fixed_points_grid_on_a_case_without_a_planar_map_exits_2(tmp_path, capsys):
    out = tmp_path / "f.json"
    code = main(["fixed-points", "--case", "critical-line", "--grid", "5", "--output", str(out)])
    assert code == 2
    assert not out.exists()
    assert "--case critical-line has no planar map" in capsys.readouterr().err


def test_verify_two_type_small_grid(tmp_path):
    report = tmp_path / "report.json"
    code = main(
        ["verify", "--case", "two-type", "--grid", "3", "--starts", "2",
         "--report", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["n_cells"] == 9
    assert doc["pass"] is True
    assert doc["max_mismatch"] <= 1e-6


def test_verify_four_type_with_portrait(tmp_path):
    report = tmp_path / "report.json"
    portrait = tmp_path / "portrait.csv"
    code = main(
        ["verify", "--case", "four-type", "--grid", "3", "--starts", "2",
         "--report", str(report), "--portrait", str(portrait)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["pass"] is True
    with open(portrait, newline="") as fh:
        rows = list(csv.DictReader(fh))
    regimes = {row["regime"] for row in rows}
    assert regimes == {"below", "above", "critical"}
    # in the contracting regime every stream ends at the origin
    below_last = {}
    for row in rows:
        if row["regime"] == "below":
            below_last[row["traj"]] = (float(row["x"]), float(row["y"]))
    for x, y in below_last.values():
        assert max(abs(x), abs(y)) <= 1e-6


def test_verify_checks_the_portrait_parameters_before_it_writes_a_file(tmp_path, capsys):
    report, portrait = tmp_path / "r.json", tmp_path / "p.csv"
    argv = ["verify", "--case", "two-type", "--grid", "2", "--starts", "1",
            "--report", str(report), "--portrait", str(portrait)]
    assert main([*argv, "--a", "2"]) == 2
    assert "a must lie strictly inside (0,1), got 2.0" in capsys.readouterr().err
    assert not report.exists() and not portrait.exists()
    # A valid --a reaches the portrait.
    assert main([*argv, "--a", "0.4"]) == 0
    assert json.loads(report.read_text())["pass"] is True
    assert portrait.read_bytes().count(b"\r\n") > 1


def test_verify_passes_every_cell_on_the_mirror_critical_line(tmp_path):
    report = tmp_path / "r.json"
    code = main(
        ["verify", "--case", "four-type", "--grid", "2", "--b", "0.45", "--d", "0.55",
         "--report", str(report)]
    )
    assert code == 0
    cells = json.loads(report.read_text())["cells"]
    assert len(cells) == 4
    for cell in cells:
        assert cell["kind"] == "critical-line" and cell["pass"] is True


def test_sweep_empty_grid_writes_header_only(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--case", "two-type", "--a", "0.2:0.8:0", "--b", "0.5",
         "--state", "0.2,0.3", "--output", str(out)]
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 1
    assert rows[0].startswith("a,b,x0,y0")


def test_sweep_four_type_flips_at_critical_sum(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--case", "four-type", "--a", "0.3", "--b", "0.2:0.8:7",
         "--c", "0.3", "--d", "0.5",
         "--state", "0.1,0.4,0.2,0.3;0.2,0.3,0.25,0.25", "--output", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    assert sum(row["b"] == "0.5" for row in rows) == 1
    for row in rows:
        total = float(row["b"]) + float(row["d"])
        if abs(total - 1.0) <= 1e-9:
            assert row["status"] == "ok"
            assert row["class"] == "f2,f3,f4|m2,m3,m4"
            kept = float(row["limit_x3"]) + float(row["limit_y3"])
            assert kept == pytest.approx(float(row["s0_x3"]) + float(row["s0_y3"]), abs=1e-15)
        elif total < 1.0:
            assert row["class"] == "f2,f4|m2,m4"
            assert float(row["limit_x3"]) == 0.0
        else:
            assert row["class"] == "f2,f3|m2,m3"
            assert float(row["limit_x4"]) == 0.0


def test_sweep_critical_line_limit_is_continuous_across_half(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--case", "critical-line", "--a", "0.4:0.6:41",
         "--a0", "0.4", "--c0", "0.6", "--x0", "0.2", "--output", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 41
    limits = [float(row["limit"]) for row in rows]
    jumps = [abs(l2 - l1) for l1, l2 in zip(limits, limits[1:])]
    assert max(jumps) <= 0.02
    middle = rows[20]
    assert float(middle["a"]) == pytest.approx(0.5)
    assert middle["class"] == "affine"
    assert float(middle["limit"]) == pytest.approx(0.4)


def test_sweep_is_deterministic(tmp_path):
    args = ["sweep", "--case", "two-type", "--a", "0.1:0.9:5", "--b", "0.3:0.7:3",
            "--state", "grid:2"]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_keeps_the_sign_of_a_zero_parameter(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--case", "two-type", "--a=-0.0", "--b", "0.0:0.5:3", "--output", str(out)]
    assert main(argv) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["a"], row["b"]) for row in rows] == [("-0.0", "0.0"), ("-0.0", "0.25"),
                                                      ("-0.0", "0.5")]


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    # 4,860 and 48,600 parameter rows, one start each: the larger sweep's
    # traced peak stays within twice the smaller one's, since each block
    # builds and formats only its own parameter rows.
    peaks = []
    for count in (60, 600):
        argv = ["sweep", "--case", "critical-line", "--a", f"0.05:0.95:{count}",
                "--a0", "0.1:0.9:9", "--c0", "0.1:0.9:9", "--x0", "0.2",
                "--output", str(tmp_path / f"{count}.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


@pytest.mark.parametrize(
    "case, start_args, limit_columns",
    [
        ("two-type", ["--b", "0.5", "--state", "grid:2"], 2),
        ("four-type", ["--state", "0.1,0.4,0.2,0.3;0.2,0.3,0.25,0.25"], 8),
        ("critical-line", ["--x0", "grid:2"], 1),
    ],
)
def test_sweep_writes_value_error_rows_for_invalid_parameters(
    tmp_path, case, start_args, limit_columns
):
    # a runs over 0, 0.5, 1: the two ends lie outside (0, 1)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--case", case, "--a", "0:1:3", *start_args, "--output", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    status = header.index("status")
    starts = len(rows) // 3
    for row in rows:
        if float(row[0]) == 0.5:
            assert row[status] == "ok"
        else:
            assert row[status] == "ValueError"
            assert row[status + 1 :] == [""] * (limit_columns + 1)
    assert [float(row[0]) for row in rows] == [0.0] * starts + [0.5] * starts + [1.0] * starts


@pytest.mark.parametrize(
    "case, flags, start_args",
    [
        ("two-type", ["a", "b"], ["--state", "grid:2"]),
        ("four-type", ["a", "b", "c", "d"], ["--state", "0.1,0.4,0.2,0.3;0.2,0.3,0.25,0.25"]),
        ("critical-line", ["a", "a0", "c0"], ["--x0", "grid:2"]),
    ],
)
def test_a_parameter_range_that_starts_with_a_minus_sign_is_a_value(
    tmp_path, case, flags, start_args
):
    for flag in flags:
        written = []
        for value_args in ([f"--{flag}", "-1:2:7"], [f"--{flag}=-1:2:7"]):
            out = tmp_path / f"{flag}{len(written)}.csv"
            argv = ["sweep", "--case", case, *value_args, *start_args, "--output", str(out)]
            assert main(argv) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert b",ValueError," in written[0] and b",ok," in written[0]


def test_a_parameter_value_in_exponent_form_below_zero_is_a_value(capsys):
    assert main(["predict", "--case", "two-type", "--a", "-1e-3", "--state", "0.2,0.3"]) == 2
    assert "a must lie strictly inside (0,1), got -0.001" in capsys.readouterr().err


@pytest.mark.parametrize("case, name, flags", [
    ("two-type", "a", ["--a", "5e-324", "--b", "0.5", "--state", "0.25,0.5"]),
    ("critical-line", "a0", ["--a", "0.3", "--a0", "1e-310", "--c0", "0.6", "--x0", "0.1"]),
])
def test_a_subnormal_parameter_is_an_input_error_that_names_it(capsys, case, name, flags):
    assert main(["predict", "--case", case, *flags]) == 2
    assert f"{name} is subnormal" in capsys.readouterr().err


def test_tiny_parameters_keep_their_limits(tmp_path):
    out = tmp_path / "p.json"
    argv = ["predict", "--case", "two-type", "--a", "1e-170", "--b", "0.5", "--state", "0.25,0.5"]
    assert main([*argv, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["limit"] == [0.25, 0.0]
    argv = ["predict", "--case", "critical-line", "--a", "1e-18", "--a0", "0.3", "--c0", "0.6",
            "--x0", "0.1"]
    assert main([*argv, "--output", str(out)]) == 0
    assert abs(json.loads(out.read_text())["limit"] - 0.4) <= 1e-15


@pytest.mark.parametrize("flags", [["--grid", "0"], ["--starts", "0"], ["--grid", "-1"]])
def test_verify_rejects_empty_grids_and_starts(tmp_path, capsys, flags):
    report = tmp_path / "r.json"
    code = main(["verify", "--case", "two-type", "--grid", "3", *flags, "--report", str(report)])
    assert code == 2
    assert not report.exists()
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--iter-eps", "inf"], "finite and strictly positive"),
        (["--match-eps", "nan"], "match-eps: must be finite"),
        (["--match-eps", "-1"], "match-eps: must be finite"),
    ],
)
def test_verify_rejects_non_finite_and_negative_thresholds(tmp_path, capsys, flags, message):
    report = tmp_path / "r.json"
    code = main(["verify", "--case", "two-type", "--grid", "2", *flags, "--report", str(report)])
    assert code == 2
    assert not report.exists()
    assert message in capsys.readouterr().err


def test_verify_cells_report_steps_and_fail_when_a_start_does_not_converge(tmp_path):
    report = tmp_path / "r.json"
    argv = ["verify", "--case", "four-type", "--grid", "3", "--starts", "2"]
    assert main([*argv, "--report", str(report)]) == 0
    converged = json.loads(report.read_text())
    assert all(cell["converged"] and cell["pass"] for cell in converged["cells"])
    assert all(0 < cell["steps"] < 2 * 10**6 for cell in converged["cells"])
    # With a budget of 5 steps no start converges: each cell reports 2 * 5
    # steps and fails, whatever its end state's gap to the closed form.
    assert main([*argv, "--max-iters", "5", "--match-eps", "1", "--report", str(report)]) == 0
    cut = json.loads(report.read_text())
    assert [cell["steps"] for cell in cut["cells"]] == [10] * 9
    assert not any(cell["converged"] or cell["pass"] for cell in cut["cells"])
    assert all(cell["max_mismatch"] <= 1 for cell in cut["cells"])
    assert cut["n_pass"] == 0 and cut["pass"] is False


def test_construct_rejects_boolean_vertex_count(tmp_path, capsys):
    doc = {"vertices": 1, "edges": [], "alleles": 2, "females": [1],
           "female_weights": {"1": 1.0}, "male_weights": {"2": 1.0}}
    out = str(tmp_path / "op.json")
    assert main(["construct", "--input", _write(tmp_path / "one.json", doc), "--output", out]) == 0
    doc["vertices"] = True
    assert main(["construct", "--input", _write(tmp_path / "bool.json", doc), "--output", out]) == 2


def test_iterate_rejects_boolean_operator_sizes(tmp_path):
    doc = {"n": True, "nu": True, "pf": [[[1.0]]], "pm": [[[1.0]]]}
    op_path = _write(tmp_path / "op.json", doc)
    assert main(["iterate", "--operator", op_path, "--state", "1;1"]) == 2


@pytest.mark.parametrize(
    "field, tensor",
    [
        pytest.param("pf", [[[{}]]], id="pf"),
        pytest.param("pm", [[[{}]]], id="pm"),
        # numpy's own messages for these two name no field.
        pytest.param("pf", [[["abc"]]], id="pf-text"),
        pytest.param("pm", [[[1.0], [1.0, 2.0]]], id="pm-ragged"),
    ],
)
def test_a_tensor_entry_that_is_not_a_number_is_an_input_error(tmp_path, capsys, field, tensor):
    doc = {"n": 1, "nu": 1, "pf": [[[1]]], "pm": [[[1]]]}
    doc[field] = tensor
    assert main(["iterate", "--operator", _write(tmp_path / "op.json", doc), "--state", "1;1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: tensors: expected nested lists of numbers in {field} (")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("entries", [{"pf": [[["1"]]], "pm": [[["1"]]]}, {"pf": [[[True]]]}])
def test_a_string_or_boolean_tensor_entry_is_an_input_error(tmp_path, capsys, entries):
    # numpy would read both as 1.0.
    doc = {"n": 1, "nu": 1, "pf": [[[1.0]]], "pm": [[[1.0]]], **entries}
    assert main(["iterate", "--operator", _write(tmp_path / "op.json", doc), "--state", "1;1"]) == 2
    err = capsys.readouterr().err
    assert "tensors: expected nested lists of numbers, pf holds " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--case", "two-type", "--grid", "1", "--starts", "10000000000000000",
          "--report", "{d}/r.json"],
         "input error: --grid 1 and --starts 10000000000000000 make 10000000000000000 rows, "
         f"above the bound of {cli.VERIFY_ROWS_CAP}\n"),
        (["sweep", "--case", "critical-line", "--a", "0:1:10000000000000000",
          "--output", "{d}/s.csv"],
         "input error: range: "),
    ],
    ids=["verify-starts", "sweep-range"],
)
def test_a_run_too_large_for_memory_is_an_input_error(tmp_path, capsys, argv, message):
    # verify refuses its 1e16 rows by their count; the sweep's first array needs
    # 8e16 bytes (71 PiB), which no allocator grants, and its error names the range.
    assert main([a.replace("{d}", str(tmp_path)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        # 419**2 * 3 = 526,683 rows, the smallest three-start grid above 2**19.
        (["verify", "--case", "two-type", "--grid", "419", "--report", "{d}/r.json"],
         "--grid 419 and --starts 3 make 526683 rows, above the bound of 524288"),
        (["verify", "--case", "four-type", "--grid", "3000", "--starts", "1",
          "--portrait", "{d}/p.csv", "--report", "{d}/r.json"],
         "--grid 3000 and --starts 1 make 9000000 rows, above the bound of 524288"),
        # 1025**2 = 1,050,625 seeds, the smallest grid above 2**20.
        (["fixed-points", "--case", "four-type", "--grid", "1025", "--output", "{d}/f.json"],
         "--grid 1025 makes 1050625 seeds, above the bound of 1048576"),
        (["fixed-points", "--case", "two-type", "--grid", "100000", "--output", "{d}/f.json"],
         "--grid 100000 makes 10000000000 seeds, above the bound of 1048576"),
    ],
    ids=["verify-just-above", "verify-four-type", "fixed-points-just-above", "fixed-points-huge"],
)
def test_a_grid_above_its_row_bound_exits_2_before_allocating(tmp_path, capsys, argv, message):
    """verify's grid**2 * starts rows and fixed-points' grid**2 seeds are counted against
    VERIFY_ROWS_CAP and GRID_SEEDS_CAP before any array is made or file written."""
    assert (cli.VERIFY_ROWS_CAP, cli.GRID_SEEDS_CAP) == (2**19, 2**20)
    tracemalloc.start()
    try:
        code = main([a.replace("{d}", str(tmp_path)) for a in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert peak < 2**20
    assert not list(tmp_path.iterdir())


# The two commands that read a JSON document; {f} is the document, {d} a directory.
READS_A_DOCUMENT = [
    ["construct", "--input", "{f}", "--output", "{d}/op.json"],
    ["iterate", "--operator", "{f}", "--state", "1;1"],
]


@pytest.mark.parametrize("doc", [5, True, None, "n", [1]])
@pytest.mark.parametrize("argv", READS_A_DOCUMENT)
def test_a_document_that_is_not_an_object_is_an_input_error(tmp_path, capsys, doc, argv):
    path = _write(tmp_path / "doc.json", doc)
    argv = [a.replace("{f}", path).replace("{d}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"n": 1,\n  "nu": 1,\n}', "input: invalid JSON at line 3: Expecting property name"),
        (b'{"n": 1, "pf": [[[0.5\xff]]]}', "input: not UTF-8 text: invalid start byte at byte 21"),
    ],
    ids=["malformed", "not-utf-8"],
)
@pytest.mark.parametrize("argv", READS_A_DOCUMENT)
def test_a_file_that_is_not_json_is_an_input_error(tmp_path, capsys, content, message, argv):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    argv = [a.replace("{f}", str(path)).replace("{d}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


# An operator document on two female and two male types in which every pair breeds true.
IDENTITY_DOC = {"n": 2, "nu": 2, "pf": [[[1.0, 0.0]] * 2, [[0.0, 1.0]] * 2],
                "pm": [[[1.0, 0.0], [0.0, 1.0]]] * 2}
CONSTRUCT = ["construct", "--input", "{f}", "--output", "{o}"]
ITERATE = ["iterate", "--operator", "{f}", "--state", "0.5,0.5;0.5,0.5", "--summary", "{o}"]
# Integer texts of 5,000 digits, past the 4,300 that ``json.load`` converts by default.
DIGIT_LIMIT = ("input", f"more than {sys.get_int_max_str_digits()} digits")
LONG_ALLELES = json.dumps(TWO_TYPE_DOC).replace('"alleles": 2', '"alleles": ' + "1" * 5000).encode()
LONG_N = json.dumps(IDENTITY_DOC).replace('"n": 2', '"n": ' + "2" * 5000).encode()


@pytest.mark.parametrize(
    "doc, argv, field",
    [
        pytest.param(None, ["predict", "--case", "four-type", "--state", "0.1,x;0.5,0.5",
                            "--output", "{o}"], "state", id="state-not-a-number"),
        pytest.param(None, ["iterate", "--two-type", "--state", "0.25,0.25,0.25,0.25",
                            "--summary", "{o}"], "state", id="state-without-semicolon"),
        pytest.param(None, ["predict", "--case", "two-type", "--state", "0.1,0.2,0.3",
                            "--output", "{o}"], "state", id="state-three-two-type-coordinates"),
        *(pytest.param(None, ["sweep", "--case", "two-type", "--a", text, "--output", "{o}"],
                       "range", id=f"range-{text}")
          for text in ("0.1:0.2", "0.1:0.2:-1", "0.1:0.2:x", "abc")),
        *(pytest.param(None, ["sweep", "--case", case, f"--{flag}", text, "--output", "{o}"],
                       flag, id=f"{flag}-{text}")
          for case, flag in (("two-type", "state"), ("critical-line", "x0"))
          for text in ("grid:x", "grid:-1")),
        pytest.param(None, ["sweep", "--case", "critical-line", "--x0", "abc", "--output", "{o}"],
                     "x0", id="x0-not-a-number"),
        pytest.param(None, ["iterate", "--state", "0.5,0.5;0.5,0.5", "--summary", "{o}"],
                     "operator", id="iterate-without-a-source"),
        pytest.param(None, ["iterate", "--two-type", "--four-type", "--state", "0.5,0.5;0.5,0.5",
                            "--summary", "{o}"], "operator", id="iterate-with-two-sources"),
        pytest.param(None, ["predict", "--case", "two-type", "--output", "{o}"], "state",
                     id="predict-without-state"),
        pytest.param(dict(TWO_TYPE_DOC, vertices=0), CONSTRUCT, "vertices", id="vertices-0"),
        pytest.param(dict(TWO_TYPE_DOC, edges=[[1, 5]]), CONSTRUCT, "edges",
                     id="edge-off-the-graph"),
        pytest.param(dict(TWO_TYPE_DOC, alleles=0), CONSTRUCT, "alleles", id="alleles-0"),
        pytest.param(dict(TWO_TYPE_DOC, edges=[[1, 1]]), CONSTRUCT, ("edges", "[1, 1]"),
                     id="loop-edge"),
        pytest.param(LONG_ALLELES, CONSTRUCT, DIGIT_LIMIT, id="alleles-of-5000-digits"),
        pytest.param(LONG_N, ITERATE, DIGIT_LIMIT, id="operator-n-of-5000-digits"),
        # One vertex: the alleles alone are too many cells, named by their digit count.
        pytest.param(dict(TWO_TYPE_DOC, vertices=1, alleles=int("1" * 4000)), CONSTRUCT,
                     ("alleles", "<4000 digits>**1 cells"), id="alleles-of-4000-digits"),
        # Too many cells for any split: refused before 3**vertices is taken, whose text
        # alone would exceed Python's integer string limit.
        *(pytest.param(dict(TWO_TYPE_DOC, vertices=v, alleles=3), CONSTRUCT,
                       ("vertices", f"3**{v} cells"), id=f"vertices-{v}-with-3-alleles")
          for v in (100_000, 10_000_000)),
        # The document's own 1-based cell number, not the space's 0-based index 8.
        pytest.param(dict(TWO_TYPE_DOC, females=[1, 9]), CONSTRUCT, ("females", "9"),
                     id="female-cell-off-the-space"),
        pytest.param(dict(TWO_TYPE_DOC, female_weights={"x": 1.0, "2": 1.0}), CONSTRUCT,
                     "female_weights", id="weight-key-not-an-integer"),
        # Keys and counts past 20 digits are named by their digit count, not echoed.
        pytest.param(dict(TWO_TYPE_DOC, female_weights={"1" * 5000: 1.0, "2": 1.0}), CONSTRUCT,
                     ("female_weights", "cell index <5000 digits> is too long"),
                     id="weight-key-of-5000-digits"),
        pytest.param(dict(TWO_TYPE_DOC, alleles=-int("1" * 4000)), CONSTRUCT,
                     ("alleles", "got -<4000 digits>"), id="alleles-of-minus-4000-digits"),
        pytest.param(dict(TWO_TYPE_DOC, male_weights={"3": 1.0, "4": 1.0, "9": 1.0}), CONSTRUCT,
                     "male_weights", id="extra-weight-cell"),
        pytest.param(dict(IDENTITY_DOC, pm=[[[1.0, 0.0, 0.0]] * 2] * 2), ITERATE, "pm",
                     id="pm-of-the-wrong-shape"),
        pytest.param(dict(IDENTITY_DOC, pf=[[[1.5, -0.5]] * 2, [[0.0, 1.0]] * 2]), ITERATE,
                     "tensors", id="negative-pf-entry"),
        *(pytest.param(None, ["fixed-points", "--case", "four-type", "--grid", grid,
                              "--output", "{o}"], "grid", id=f"fixed-points-grid-{grid}")
          for grid in ("1", "-3")),
    ],
)
def test_an_input_error_names_its_input(tmp_path, capsys, doc, argv, field):
    """Bad flags and documents exit 2 with one line that names the flag or field, and
    write no output file.  A ``field`` given as a tuple is the field and texts that
    the message must hold."""
    field, *texts = (field,) if isinstance(field, str) else field
    path = None if doc is None else _write(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    assert main([a.replace("{f}", str(path)).replace("{o}", str(out)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {field}: ") and err.count("\n") == 1, err
    assert len(err) < 300, err  # no long input echoed
    assert all(text in err for text in texts), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "module, name, case",
    [
        (two_types, "predict_limit", "two-type"),
        (four_types, "predict_limit", "four-type"),
        (four_types, "predict_limit_critical", "critical-line"),
    ],
)
def test_predictors_are_looked_up_in_their_module_at_call_time(
    tmp_path, monkeypatch, module, name, case
):
    # Tools that wrap a module attribute (tracers, profilers) must see every call.
    original, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    state = ["--state", "0.1,0.4,0.2,0.3;0.2,0.3,0.25,0.25"] if case == "four-type" else []
    assert main(["sweep", "--case", case, *state, "--output", str(tmp_path / "s.csv")]) == 0
    assert len(calls) == 1


def test_commands_are_looked_up_in_the_module_at_call_time(tmp_path, monkeypatch):
    # The parser is built once per process.  A wrapper set on a command's function after
    # the first run, as bench/spans.py sets one on cmd_verify, must still see every call.
    argv = ["predict", "--case", "two-type", "--state", "0.2,0.3", "--output",
            str(tmp_path / "p.json")]
    assert main(argv) == 0
    original, calls = cli.cmd_predict, []
    monkeypatch.setattr(cli, "cmd_predict", lambda args: calls.append(args) or original(args))
    assert main(argv) == 0
    assert len(calls) == 1
    assert cli.build_parser() is cli.build_parser()


ITERATE_FOUR = ["iterate", "--state", "0.1,0.3,0.4,0.2;0.25,0.25,0.3,0.2"]


@pytest.mark.parametrize(
    "argv, counts",
    [
        pytest.param(["construct", "--input", "{doc}", "--output", "{out}"],
                     {"load_json": 1, "build_operator": 1, "dump_json": 1}, id="construct"),
        pytest.param([*ITERATE_FOUR, "--operator", "{op}"],
                     {"load_json": 1, "operator_from_json": 1}, id="iterate-operator"),
        pytest.param([*ITERATE_FOUR, "--construction", "{doc}"],
                     {"load_json": 1, "build_operator": 1}, id="iterate-construction"),
        pytest.param([*ITERATE_FOUR, "--four-type", "--a", "0.7", "--b", "0.3", "--c", "0.7",
                      "--d", "0.2"], {"build_operator": 1}, id="iterate-four-type"),
    ],
)
def test_the_construction_layer_is_looked_up_in_its_module_at_call_time(
    tmp_path, monkeypatch, argv, counts
):
    # The commands import qsobp.construction only when they run; tools that wrap its
    # attributes (tracers, profilers) must still see every call.
    paths = {"{doc}": _write(tmp_path / "c.json", four_types.construction_doc(
        four_types.FourTypeParams(0.7, 0.3, 0.7, 0.2, 0.5, 0.5))),
        "{op}": str(tmp_path / "op.json"), "{out}": str(tmp_path / "out.json")}
    assert main(["construct", "--input", paths["{doc}"], "--output", paths["{op}"]]) == 0
    calls = dict.fromkeys(["load_json", "operator_from_json", "build_operator", "dump_json"], 0)

    def counted(name, original):
        return lambda *args: calls.update({name: calls[name] + 1}) or original(*args)

    for name in calls:
        monkeypatch.setattr(construction, name, counted(name, getattr(construction, name)))
    assert main([paths.get(a, a) for a in argv]) == 0
    assert calls == {name: counts.get(name, 0) for name in calls}


# Run in a fresh interpreter: prints the construction layer's presence after the
# imports and after each command of argv (a JSON list of command lines).
LAYERING_SCRIPT = """
import json, sys
import qsobp.dynamics, qsobp.two_types, qsobp.four_types
from qsobp.cli import main
print("imports", "qsobp.construction" in sys.modules)
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    print(argv[0], code, "qsobp.construction" in sys.modules)
"""


def test_the_closed_form_commands_never_load_the_construction_layer(tmp_path):
    out = str(tmp_path / "out")
    commands = [
        ["predict", "--case", "two-type", "--a", "0.4", "--b", "0.5", "--state", "0.2,0.25",
         "--output", out],
        ["classify", "--case", "four-type", "--a", "0.7", "--c", "0.6", "--a0", "0.4",
         "--c0", "0.6", "--output", out],
        ["fixed-points", "--case", "critical-line", "--a", "0.75", "--a0", "0.4", "--c0", "0.6",
         "--output", out],
        ["verify", "--case", "two-type", "--grid", "2", "--starts", "1", "--report", out],
        ["verify", "--case", "four-type", "--grid", "3", "--starts", "1", "--report", out],
        ["sweep", "--case", "two-type", "--output", out],
        # The check itself sees the layer once a command loads it.
        ["iterate", "--two-type", "--state", "0.2,0.8;0.25,0.75", "--summary", out],
    ]
    src = os.path.dirname(os.path.dirname(qsobp.__file__))
    done = subprocess.run(
        [sys.executable, "-c", LAYERING_SCRIPT, json.dumps(commands)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120,
    )
    assert done.stdout.splitlines() == [
        "imports False", *(f"{argv[0]} 0 {argv[0] == 'iterate'}" for argv in commands)]


@pytest.mark.parametrize(
    "argv",
    [
        # --abs-eps 0 is not a valid tolerance.
        ["--case", "two-type", "--a", "0.4", "--b", "0.5", "--state", "0.2,0.25",
         "--abs-eps", "0"],
        # One step moves this start by 0.00196, inside the band --abs-eps sets.
        ["--case", "four-type", "--a", "0.7", "--b", "0.3", "--c", "0.7", "--d", "0.2",
         "--abs-eps", "0.1", "--state", "0.49,0.01,0.5,0;0.49,0.01,0.5,0"],
        # Starts outside the map's domain.
        ["--case", "critical-line", "--a", "0.75", "--a0", "0.5", "--c0", "0.5", "--x0", "5"],
        ["--case", "two-type", "--a", "0.4", "--b", "0.5", "--state", "3,-2"],
    ],
)
def test_predict_reads_the_tolerance_and_the_domain(tmp_path, argv):
    out = tmp_path / "p.json"
    assert main(["predict", *argv, "--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--case", "two-type", "--state", "0.3,0"],
        ["--case", "four-type", "--state", "0.5,0,0.5,0;0.4,0,0.6,0"],
        ["--case", "critical-line", "--a", "0.5", "--a0", "0.4", "--c0", "0.6", "--x0", "0.4"],
    ],
)
def test_predict_names_a_fixed_start(tmp_path, capsys, argv):
    out = tmp_path / "p.json"
    assert main(["predict", *argv, "--output", str(out)]) == 2
    assert not out.exists()
    assert "already a fixed point" in capsys.readouterr().err


def test_verify_stops_at_a_sampled_start_inside_the_fixed_band(tmp_path, capsys):
    # At a = 0.05, b = 0.95 one step moves (x, y) by (1 - x) y max(a, 1 - b),
    # so --abs-eps 1e-3 makes every sample with (1 - x) y <= 0.02 fixed.
    report = tmp_path / "v.json"
    argv = ["verify", "--case", "two-type", "--grid", "2", "--starts", "200", "--abs-eps", "1e-3"]
    assert main([*argv, "--report", str(report)]) == 2
    assert not report.exists()
    assert "already a fixed point" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--case", "two-type", "--a", "0.3", "--b", "0.3", "--state", "3,-2"],
        ["--case", "critical-line", "--a", "0.75", "--a0", "0.5", "--c0", "0.5", "--x0", "5"],
        # Every parameter tuple invalid: the start is checked all the same.
        ["--case", "two-type", "--a", "0:1:2", "--b", "0.3", "--state", "3,-2"],
        ["--case", "critical-line", "--a", "0:1:2", "--a0", "0.5", "--c0", "0.5", "--x0", "5"],
    ],
)
def test_sweep_rejects_starts_outside_the_domain(tmp_path, capsys, argv):
    out = tmp_path / "s.csv"
    assert main(["sweep", *argv, "--output", str(out)]) == 2
    assert not out.exists()
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize(
    "vertices, alleles, females, message",
    [
        # Three alleles on seven vertices, split evenly: the four dense tensors
        # of 1093 female and 1094 male types would need about 42 GB.
        (7, 3, list(range(1, 1094)), "bytes"),
        # No females: no tensor at all, but 2**40 cells to enumerate.
        (40, 2, [], "nonempty"),
    ],
)
def test_construct_rejects_oversized_space_before_enumerating(
    tmp_path, capsys, monkeypatch, vertices, alleles, females, message
):
    def enumerate_cells(*args):
        raise AssertionError("the space was enumerated")

    monkeypatch.setattr(construction, "enumerate_cells", enumerate_cells)
    doc = {"vertices": vertices, "edges": [], "alleles": alleles, "females": females,
           "female_weights": {}, "male_weights": {}}
    out = tmp_path / "op.json"
    assert main(["construct", "--input", _write(tmp_path / "c.json", doc), "--output", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_construct_rejects_an_infinite_weight(tmp_path, capsys):
    doc = dict(TWO_TYPE_DOC, female_weights={"1": float("inf"), "2": 1.0})
    out = tmp_path / "op.json"
    assert main(["construct", "--input", _write(tmp_path / "c.json", doc), "--output", str(out)]) == 2
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


def test_iterate_rejects_a_nan_operator_before_any_step(tmp_path, monkeypatch):
    op_path = tmp_path / "op.json"
    assert main(["construct", "--input", _write(tmp_path / "c.json", TWO_TYPE_DOC),
                 "--output", str(op_path)]) == 0
    doc = json.loads(op_path.read_text())
    doc["pf"][1][0] = [float("nan"), 0.5]
    _write(op_path, doc)

    def apply_raw(*args):
        raise AssertionError("the operator was stepped")

    monkeypatch.setattr(construction.BisexualOperator, "apply_raw", apply_raw)
    summary = tmp_path / "s.json"
    argv = ["iterate", "--operator", str(op_path), "--state", "0.5,0.5;0.5,0.5"]
    assert main([*argv, "--summary", str(summary)]) == 2
    assert not summary.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--state", "nan,0.3"],
        ["--state", "5,7"],
        ["--a", "0.6", "--b", "0.4", "--state", "0.3,0.2"],  # inside the square, not fixed
        ["--state", "0.3,0.2;0,1"],  # a female block off its simplex
    ],
)
def test_classify_two_type_rejects_a_point_that_is_not_fixed(flags, tmp_path):
    out = tmp_path / "c.json"
    assert main(["classify", "--case", "two-type", *flags, "--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["classify", "--case", "four-type", "--state", "5,5"], "--state"),
        (["predict", "--case", "critical-line", "--x0", "0.3", "--state", "0.1,0.2"], "--state"),
        (["predict", "--case", "two-type", "--state", "0.2,0.3", "--x0", "7"], "--x0"),
        (["predict", "--case", "four-type", "--state", FOUR_STATE, "--x0", "0.3"], "--x0"),
        (["sweep", "--case", "critical-line", "--state", "0.1,0.2"], "--state"),
        (["sweep", "--case", "two-type", "--x0", "0.3"], "--x0"),
    ],
)
def test_a_start_flag_the_case_does_not_read_is_an_input_error(argv, flag, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 2
    assert f"{flag} is not read by --case" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["predict", "--case", "two-type", "--state", "0.2,0.3", "--c", "0.9"], "--c is not read"),
        (["fixed-points", "--case", "two-type", "--c", "0.9"], "--c is not read"),
        (["predict", "--case", "four-type", "--state", FOUR_STATE, "--a0", "0.9"],
         "--a0 is fixed by the start"),
        (["sweep", "--case", "critical-line", "--b", "0.9"], "--b is not read"),
        # The four-type planar map is the type-1/2 block: a, c, a0 and c0.
        (["classify", "--case", "four-type", "--b", "0.9"],
         "--b is not read by the planar map of --case four-type"),
        (["fixed-points", "--case", "four-type", "--d", "0.1"],
         "--d is not read by the planar map of --case four-type"),
        (["fixed-points", "--case", "four-type", "--grid", "3", "--b", "0.9", "--d", "0.1"],
         "--b is not read by the planar map of --case four-type"),
        # Without --grid the two-type fixed set is the segments, for every a and b,
        # and no fixed-points document compares against --abs-eps.
        (["fixed-points", "--case", "two-type", "--a", "0.9", "--b", "0.1"],
         "--a is not read by fixed-points --case two-type without --grid; only --grid reads it"),
        (["fixed-points", "--case", "two-type", "--b", "0.1"], "--b is not read by fixed-points"),
        (["fixed-points", "--case", "four-type", "--abs-eps", "0.5"],
         "--abs-eps is not read by fixed-points --case four-type without --grid"),
        (["fixed-points", "--case", "critical-line", "--abs-eps", "1e-9"],
         "--abs-eps is not read by fixed-points"),
        (["fixed-points", "--case", "two-type", "--abs-eps", "0.5"],
         "--abs-eps is not read by fixed-points"),
        # A four-type kind comes from the sign of det M; nothing compares to --abs-eps.
        (["classify", "--case", "four-type", "--abs-eps", "1e-9"],
         "--abs-eps is not read by classify --case four-type"),
    ],
)
def test_a_parameter_flag_the_case_does_not_read_is_an_input_error(
    argv, message, tmp_path, capsys
):
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, output, message",
    [
        # The two-type operator has no type-3/4 block.
        (["iterate", "--two-type", "--d", "0.3", "--state", "0.5,0.5;0.5,0.5"], "--summary",
         "--d is not read by --two-type"),
        # An operator file holds its own heredity: no parameter flag reaches it.
        (["iterate", "--operator", "{d}/op.json", "--a", "0.9", "--state", "0.5,0.5;0.5,0.5"],
         "--summary", "--a is not read by --operator"),
        # Four-type verify cells set a and c, and so does every portrait regime.
        (["verify", "--case", "four-type", "--grid", "2", "--a", "0.9"], "--report",
         "--a is set by the grid and the portrait"),
        # Two-type verify cells set a and b; only the portrait regime reads them.
        (["verify", "--case", "two-type", "--grid", "2", "--a", "0.4"], "--report",
         "--a is set by the grid in --case two-type; only --portrait reads it"),
    ],
)
def test_a_parameter_flag_that_no_source_reads_is_an_input_error(
    argv, output, message, tmp_path, capsys
):
    op_path = tmp_path / "op.json"
    assert main(["construct", "--input", _write(tmp_path / "c.json", TWO_TYPE_DOC),
                 "--output", str(op_path)]) == 0
    out = tmp_path / "out"
    argv = [arg.replace("{d}", str(tmp_path)) for arg in argv]
    assert main([*argv, output, str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    # Without the flag the same command runs.
    flag = message.split()[0]
    at = argv.index(flag)
    assert main([*argv[:at], *argv[at + 2:], output, str(out)]) == 0


@pytest.mark.parametrize("flag", ["--a0", "--c0"])
def test_iterate_refuses_a_slice_sum_before_it_runs(flag, tmp_path, capsys):
    # The four-type operator acts on every slice: a0 and c0 are the start's, and no
    # iterate source has a flag for them.
    summary = tmp_path / "s.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["iterate", "--four-type", flag, "0.9", "--state", FOUR_STATE,
              "--summary", str(summary)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 0.9" in capsys.readouterr().err
    assert not summary.exists()


def test_classify_two_type_reads_a_point_or_a_state_as_predict_does(tmp_path):
    outputs = []
    for state in ("0.3,0", "0.3,0.7;0,1"):
        out = tmp_path / "c.json"
        assert main(["classify", "--case", "two-type", "--state", state, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["state"] == [0.3, 0.0]


def test_start_flags_left_out_take_their_defaults(tmp_path):
    out = tmp_path / "c.json"
    assert main(["classify", "--case", "two-type", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["state"] == [0.0, 0.0]
    for case, start in (("two-type", {"x0": "0.2", "y0": "0.3"}), ("critical-line", {"x0": "0.2"})):
        out = tmp_path / f"{case}.csv"
        assert main(["sweep", "--case", case, "--output", str(out)]) == 0
        header, row = csv.reader(out.read_text().splitlines())
        assert {column: value for column, value in zip(header, row) if column in start} == start


def test_json_documents_reject_nan_and_infinity(tmp_path):
    # Alone, in a list of floats among Nones, in a record column of floats and Nones, in
    # an array field, whose text is written a plane at a time, and in an array in a list.
    for value in (float("nan"), float("inf")):
        array = np.array([[[0.5, 0.5]], [[1.0, value]]])
        for doc in ({"x": value}, {"x": [1.0, None, value]},
                    {"x": [{"r": 1.0}, {"r": None}, {"r": value}]},
                    {"a": "first", "x": array}, {"x": [array]}):
            out = tmp_path / "d.json"
            with pytest.raises(ValueError):
                simplex.write_json(doc, str(out))
            assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fixed-points", "--case", "two-type"],
        ["classify", "--case", "two-type"],
        ["predict", "--case", "two-type", "--state", "0.2,0.3"],
        ["sweep", "--case", "two-type", "--output", "s.csv"],
    ],
)
def test_commands_that_draw_nothing_reject_seed(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--seed", "1"])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_iterate_trajectory_does_not_depend_on_blas_threads(tmp_path):
    # The operator step is a BLAS matrix-vector product; its bits must not
    # depend on how many threads OpenBLAS splits it over.  128 cells on one
    # edge and five isolated vertices give n = nu = 64, large enough that
    # OpenBLAS threads the product.  The runs are single-threaded, two
    # threads and the library's default.
    rng = np.random.default_rng(7)
    cells = 2**7
    females = sorted(int(c) + 1 for c in rng.choice(cells, cells // 2, replace=False))
    weights = rng.uniform(0.5, 2.0, cells)
    doc = {
        "vertices": 7,
        "edges": [[1, 2]],
        "alleles": 2,
        "females": females,
        "female_weights": {str(c): float(weights[c - 1]) for c in females},
        "male_weights": {str(c): float(weights[c - 1])
                         for c in range(1, cells + 1) if c not in females},
    }
    construction_path = _write(tmp_path / "c.json", doc)
    x, y = rng.dirichlet(np.ones(64), 2)
    state = ",".join(map(repr, x.tolist())) + ";" + ",".join(map(repr, y.tolist()))
    src = os.path.dirname(os.path.dirname(qsobp.__file__))
    default = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    outputs = []
    for name, threads in (("single", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
                          ("two", {"OPENBLAS_NUM_THREADS": "2"}), ("default", {})):
        trajectory, summary = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        subprocess.run(
            [sys.executable, "-m", "qsobp.cli", "iterate", "--construction", construction_path,
             "--state", state, "--max-iters", "500", "--trajectory", str(trajectory),
             "--summary", str(summary)],
            env={**default, **threads, "PYTHONPATH": src}, check=True, timeout=120,
        )
        outputs.append((trajectory.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


PARAMETER_FLAGS = {"--a", "--a0", "--b", "--c", "--c0", "--d"}
COMMAND_FLAGS = {
    "construct": {"--input", "--output", "--seed"},
    "iterate": PARAMETER_FLAGS - {"--a0", "--c0"} | {
        "--construction", "--four-type", "--iter-eps", "--max-iters", "--operator", "--seed",
        "--state", "--summary", "--trajectory", "--two-type",
    },
    "fixed-points": PARAMETER_FLAGS | {"--abs-eps", "--case", "--grid", "--output"},
    "classify": PARAMETER_FLAGS | {"--abs-eps", "--case", "--output", "--state"},
    "predict": PARAMETER_FLAGS | {"--abs-eps", "--case", "--output", "--state", "--x0"},
    "verify": PARAMETER_FLAGS - {"--c"} | {
        "--abs-eps", "--case", "--grid", "--iter-eps", "--match-eps", "--max-iters",
        "--portrait", "--report", "--seed", "--starts",
    },
    "sweep": PARAMETER_FLAGS | {"--abs-eps", "--case", "--output", "--state", "--x0"},
}


def test_each_command_takes_only_the_flags_it_reads():
    # Only iterate and verify iterate, so only they take --iter-eps and --max-iters;
    # iterate tests only its moves and construct's identity line takes the default
    # comparison epsilon, so they alone take no --abs-eps.  No iterate source reads
    # the slice sums --a0 and --c0.
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {flag for action in cmd._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, cmd in commands.choices.items()
    }
    assert flags == COMMAND_FLAGS
    assert sum(map(len, flags.values())) == 74


# Each iterate source with a state of its size, each case's start where the command
# needs one, and the modes that read more flags: fixed-points --grid (for a case with
# a planar map) and verify --portrait.  {d} is the run's directory.
TWO_STATE = "0.2,0.8;0.3,0.7"
SOURCE_RUNS = {
    "--operator": ["--operator", "{d}/op.json", "--state", TWO_STATE],
    "--construction": ["--construction", "{d}/c.json", "--state", TWO_STATE],
    "--two-type": ["--two-type", "--state", TWO_STATE],
    "--four-type": ["--four-type", "--state", FOUR_STATE],
}
CASE_STARTS = {"two-type": ["--state", "0.2,0.3"], "four-type": ["--state", FOUR_STATE],
               "critical-line": ["--x0", "0.2"]}
CASE_MODES = {
    "fixed-points": {"": [], "grid": ["--grid", "3"]},
    "verify": {"": ["--grid", "2", "--starts", "1"],
               "portrait": ["--grid", "2", "--starts", "1", "--portrait", "{d}/p.csv"]},
}
OUTPUT_FLAGS = {"iterate": "--summary", "verify": "--report"}  # the others take --output
# Each tolerance flag at its default value; each parameter flag at 0.4.
FLAG_VALUES = {f"--{name.replace('_', '-')}": repr(value)
               for name, value in vars(simplex.Tolerance()).items()}


def _flag_runs():
    """(argv, flag, given) for every command, each of its cases or iterate sources in
    each mode, and each parameter and tolerance flag it accepts; ``given`` is the
    ``--case X`` or ``--<source>`` of ``argv``."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, cmd in commands.items():
        accepted = {flag for action in cmd._actions for flag in action.option_strings}
        runs = [(source, "", argv) for source, argv in SOURCE_RUNS.items() if name == "iterate"]
        for case in next((a.choices for a in cmd._actions if "--case" in a.option_strings), []):
            start = CASE_STARTS[case] if name in ("predict", "sweep") else []
            for mode, extra in CASE_MODES.get(name, {"": []}).items():
                if mode != "grid" or cli.CASES[case].planar_block is not None:
                    runs.append((f"--case {case}", mode, ["--case", case, *start, *extra]))
        for given, mode, argv in runs:
            for flag in sorted(accepted & (PARAMETER_FLAGS | set(FLAG_VALUES))):
                run_id = ":".join(filter(None, (name, given.replace(" ", "="), mode, flag)))
                yield pytest.param([name, *argv], flag, given, id=run_id)


@pytest.mark.parametrize("argv, flag, given", list(_flag_runs()))
def test_a_flag_runs_or_is_refused_by_the_case_or_source_given(
    argv, flag, given, tmp_path, capsys
):
    # A refusal names the flag and the case or source given, and nothing else that the
    # user might have given: no other case or source, no --case where the command has
    # none, and no --grid where the case has no grid search.
    construction_path = _write(tmp_path / "c.json", TWO_TYPE_DOC)
    assert main(["construct", "--input", construction_path,
                 "--output", str(tmp_path / "op.json")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [arg.replace("{d}", str(tmp_path)) for arg in argv]
    code = main([*argv, flag, FLAG_VALUES.get(flag, "0.4"),
                 OUTPUT_FLAGS.get(argv[0], "--output"), str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert out.exists() == (code == 0), err
    if code == 0:
        return
    assert err.startswith(f"input error: {flag[2:]}: {flag} is ") and err.count("\n") == 1, err
    assert given in err, err
    others = [f"--case {case}" for case in cli.CASES] + list(SOURCE_RUNS)
    assert not [other for other in others if other != given and other in err], err
    if not given.startswith("--case "):
        assert "--case" not in err, err
    elif cli.CASES[given.split()[1]].planar_block is None:
        assert "--grid" not in err, err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["predict", "--case", "critical-line", "--x0", "0.2", "--abs-eps", "0", "--output"],
         "abs_eps must be finite and strictly positive, got 0.0"),
        (["verify", "--case", "two-type", "--grid", "2", "--iter-eps", "nan", "--report"],
         "iter_eps must be finite and strictly positive, got nan"),
        (["iterate", "--two-type", "--state", TWO_STATE, "--max-iters", "0", "--summary"],
         "max_iters must be finite and strictly positive, got 0"),
    ],
    ids=["abs-eps", "iter-eps", "max-iters"],
)
def test_a_tolerance_out_of_range_names_its_field(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()

"""Command-line behavior: file formats, exit codes, determinism.

Core claims:
  - construct writes an operator JSON and prints the size and verdicts
  - iterate writes a step-indexed trajectory CSV and a summary JSON whose
    limit matches the closed-form prediction
  - predict / classify / fixed-points emit the documented JSON documents
  - verify pairs closed-form limits with iteration and reports pass/fail
  - sweep emits deterministic CSV, flipping branches exactly at the
    critical parameter sum, where the limit keeps the block's x+y
  - exit codes: 0 ran, 2 input error, 3 i/o error; non-finite weights and
    tensor entries, --seed on a command that draws nothing and a two-type
    classify point that is not fixed are input errors; no JSON document
    holds NaN or infinity
  - trajectory files do not depend on the number of BLAS threads
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qsobp
from qsobp import cli, construction, four_types, two_types
from qsobp.cli import main

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
    path.write_text(json.dumps(doc))
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


def test_iterate_dimension_mismatch_exits_2(tmp_path):
    code = main(
        ["iterate", "--two-type", "--a", "0.4", "--b", "0.5", "--state", "0.2,0.3,0.5;0.25,0.75"]
    )
    assert code == 2


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


@pytest.mark.parametrize("doc", [5, True, None, "n", [1]])
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--input", "{f}", "--output", "{d}/op.json"],
        ["iterate", "--operator", "{f}", "--state", "1;1"],
    ],
)
def test_a_document_that_is_not_an_object_is_an_input_error(tmp_path, capsys, doc, argv):
    path = _write(tmp_path / "doc.json", doc)
    argv = [a.replace("{f}", path).replace("{d}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    assert "expected a JSON object" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        # --max-iters 0 is not a valid tolerance.
        ["--case", "two-type", "--a", "0.4", "--b", "0.5", "--state", "0.2,0.25",
         "--max-iters", "0"],
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
    ],
)
def test_classify_two_type_rejects_a_point_that_is_not_fixed(flags, tmp_path):
    out = tmp_path / "c.json"
    assert main(["classify", "--case", "two-type", *flags, "--output", str(out)]) == 2
    assert not out.exists()


def test_json_documents_reject_nan_and_infinity(tmp_path):
    for value in (float("nan"), float("inf")):
        out = tmp_path / "d.json"
        with pytest.raises(ValueError):
            cli._write_json({"x": value}, str(out))
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
    # OpenBLAS threads the product.
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
    op_path = tmp_path / "op.json"
    assert main(["construct", "--input", _write(tmp_path / "c.json", doc),
                 "--output", str(op_path)]) == 0
    x, y = rng.dirichlet(np.ones(64), 2)
    state = ",".join(map(repr, x.tolist())) + ";" + ",".join(map(repr, y.tolist()))
    src = os.path.dirname(os.path.dirname(qsobp.__file__))
    trajectories = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "qsobp.cli", "iterate", "--operator", str(op_path),
             "--state", state, "--max-iters", "300", "--trajectory", str(out),
             "--summary", str(tmp_path / "s.json")],
            env=env, check=True, timeout=120,
        )
        trajectories.append(out.read_bytes())
    assert trajectories[0] == trajectories[1]

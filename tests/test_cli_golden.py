"""Byte parity of the CLI's result files.

Each case runs one CLI command in a fresh directory and compares the sha256
of every file it writes with a recorded digest, so any change to an output
byte (a float's repr, a key, a row order) fails here.  Inputs stay inside the
parameter ranges every version of the CLI accepts.  To print the digest table
of the current code, for every case or only for the cases named:

    PYTHONPATH=src python tests/test_cli_golden.py [CASE ...]
"""

import hashlib
import json
import os
import sys

import pytest

from qsobp.cli import main

FOUR_STATE = "0.1,0.4,0.2,0.3;0.2,0.3,0.25,0.25"

INPUTS = {
    "two.json": {
        "vertices": 2,
        "edges": [],
        "alleles": 2,
        "females": [1, 2],
        "female_weights": {"1": 2.0, "2": 1.0},
        "male_weights": {"3": 1.0, "4": 1.0},
    },
    "four.json": {
        "vertices": 3,
        "edges": [[1, 2]],
        "alleles": 2,
        "females": [1, 3, 6, 8],
        "female_weights": {"1": 3.0, "3": 7.0, "6": 2.0, "8": 3.0},
        "male_weights": {"2": 1.0, "4": 4.0, "5": 6.0, "7": 2.0},
    },
}

# name -> (argv with {d} for the run directory, files the command writes)
CASES = {
    "construct-two": (["construct", "--input", "{d}/two.json", "--output", "{d}/op.json"],
                      ["op.json"]),
    "construct-four": (["construct", "--input", "{d}/four.json", "--output", "{d}/op.json"],
                       ["op.json"]),
    "iterate-two": (["iterate", "--two-type", "--a", "0.4", "--b", "0.5",
                     "--state", "0.2,0.8;0.25,0.75", "--trajectory", "{d}/t.csv",
                     "--summary", "{d}/s.json"], ["t.csv", "s.json"]),
    "iterate-four": (["iterate", "--four-type", "--a", "0.7", "--b", "0.3", "--c", "0.7",
                      "--d", "0.2", "--state", FOUR_STATE, "--trajectory", "{d}/t.csv",
                      "--summary", "{d}/s.json"], ["t.csv", "s.json"]),
    "predict-two-point": (["predict", "--case", "two-type", "--a", "0.4", "--b", "0.5",
                           "--state", "0.2,0.25", "--output", "{d}/p.json"], ["p.json"]),
    "predict-two-state": (["predict", "--case", "two-type", "--a", "0.6", "--b", "0.3",
                           "--state", "0.7,0.3;0.8,0.2", "--output", "{d}/p.json"], ["p.json"]),
    "predict-four": (["predict", "--case", "four-type", "--a", "0.7", "--b", "0.3",
                      "--c", "0.7", "--d", "0.2", "--state", FOUR_STATE,
                      "--output", "{d}/p.json"], ["p.json"]),
    "predict-critical": (["predict", "--case", "critical-line", "--a", "0.35", "--a0", "0.3",
                          "--c0", "0.6", "--x0", "0.1", "--output", "{d}/p.json"], ["p.json"]),
    "fixed-points-two": (["fixed-points", "--case", "two-type", "--a", "0.45", "--b", "0.55",
                          "--grid", "3", "--output", "{d}/f.json"], ["f.json"]),
    "fixed-points-four": (["fixed-points", "--case", "four-type", "--grid", "5",
                           "--output", "{d}/f.json"], ["f.json"]),
    "fixed-points-four-on-line": (["fixed-points", "--case", "four-type", "--a", "0.4",
                                   "--c", "0.6", "--output", "{d}/f.json"], ["f.json"]),
    "fixed-points-critical": (["fixed-points", "--case", "critical-line", "--a", "0.75",
                               "--a0", "0.4", "--c0", "0.6", "--output", "{d}/f.json"],
                              ["f.json"]),
    "classify-two": (["classify", "--case", "two-type", "--a", "0.6", "--b", "0.4",
                      "--state", "1,0.3", "--output", "{d}/c.json"], ["c.json"]),
    "classify-four": (["classify", "--case", "four-type", "--a", "0.7", "--c", "0.6",
                       "--a0", "0.4", "--c0", "0.6", "--output", "{d}/c.json"], ["c.json"]),
    "verify-two": (["verify", "--case", "two-type", "--grid", "4", "--starts", "2",
                    "--report", "{d}/r.json"], ["r.json"]),
    "verify-two-portrait": (["verify", "--case", "two-type", "--grid", "2", "--starts", "1",
                             "--a", "0.6", "--b", "0.4", "--report", "{d}/r.json",
                             "--portrait", "{d}/p.csv"], ["r.json", "p.csv"]),
    "verify-four-portrait": (["verify", "--case", "four-type", "--grid", "5", "--starts", "2",
                              "--report", "{d}/r.json", "--portrait", "{d}/p.csv"],
                             ["r.json", "p.csv"]),
    "sweep-two": (["sweep", "--case", "two-type", "--a", "0.1:0.9:5", "--b", "0.3:0.7:3",
                   "--state", "grid:3", "--output", "{d}/s.csv"], ["s.csv"]),
    "sweep-two-fixed-start": (["sweep", "--case", "two-type", "--a", "0.2:0.8:3", "--b", "0.5",
                               "--state", "0.3,0", "--output", "{d}/s.csv"], ["s.csv"]),
    "sweep-four": (["sweep", "--case", "four-type", "--a", "0.3:0.7:3", "--b", "0.2:0.8:7",
                    "--c", "0.3:0.7:2", "--d", "0.5", "--state", FOUR_STATE,
                    "--output", "{d}/s.csv"], ["s.csv"]),
    "sweep-four-fixed-start": (["sweep", "--case", "four-type", "--a", "0.3", "--b", "0.6",
                                "--state", "0.5,0,0.5,0;0.4,0,0.6,0",
                                "--output", "{d}/s.csv"], ["s.csv"]),
    "sweep-critical": (["sweep", "--case", "critical-line", "--a", "0.4:0.6:5",
                        "--a0", "0.3:0.7:3", "--c0", "0.4", "--x0", "grid:4",
                        "--output", "{d}/s.csv"], ["s.csv"]),
}

DIGESTS = {
    "classify-four": {
        "c.json": "b1c91879f8b77018b8f5ade91a8ece7dafe4a72b1ffb3819f91f1a47977b970e",
    },
    "classify-two": {
        "c.json": "7045e2c539173aa080504b3af6b505d823b6c572018867024b76b6eab041d62d",
    },
    "construct-four": {
        "op.json": "6cf028ccc5685d9ce8094ea778b0ea9133e3aa12d68e953e2b6b4c113893a914",
    },
    "construct-two": {
        "op.json": "f1782073101cae88b5865499604f38e0e943730d41a1eda02bd6e58dcec3b456",
    },
    "fixed-points-critical": {
        "f.json": "bc93ec512d21df32fe4fcbd431cf5d5e79cd90b18fe394f327e0da86aa5e2ce3",
    },
    "fixed-points-four": {
        "f.json": "e3b541f052804d0cf00b784fd88eeceb590988a2f6db51a6360e870132682812",
    },
    "fixed-points-four-on-line": {
        "f.json": "4ef38524aad2d27129e8941f4de2dd8792d50572ce5c2ac12266db6af9956d93",
    },
    "fixed-points-two": {
        "f.json": "43daf07433a4d35333efa3d6209d71720de7b25746b8f1819f4d6a58dec2d8e0",
    },
    "iterate-four": {
        "s.json": "632343138c8ce07c1dbdb713e9c4f286b41b86617baa68a3d0c0e0e8180ded4d",
        "t.csv": "777411711f19448e875bc4e47ba2f725a84011dc361a5ef00c31b9fdbb5a3353",
    },
    "iterate-two": {
        "s.json": "ae88ff3135f80f5c3e3e5b5bd112e12a1b662a0d48b74c0c4313422114a6b49a",
        "t.csv": "af4372440d5c6f570012fcb706541e22fa04f1992e87008bb3e468808a066530",
    },
    "predict-critical": {
        "p.json": "fcb9562ae97ecc65c9266d3827e5ea28d3bf91b89b35bb782fe55928f25bf247",
    },
    "predict-four": {
        "p.json": "263520e4c53354d5096722e15f1fbe2d2cc37204fbde412b004a1d116dbb8126",
    },
    "predict-two-point": {
        "p.json": "6c24fc783da4d1f845c04bb57d488c5d8fd5df21a501aeb8d0058fa557dac0c2",
    },
    "predict-two-state": {
        "p.json": "4ae6d0f62761463f5079ee17dcc15d68fa44d6b0e186a2b4cd1fcc3781b4548d",
    },
    "sweep-critical": {
        "s.csv": "046c3e92b59938cc796655a40a209da8dcedf987f7ee0cd4264cf2550bcc5e78",
    },
    "sweep-four": {
        "s.csv": "762f2153dc5319a0dd3648d9cf1a361c44a7d3496e9364bb05d6a202a1736569",
    },
    "sweep-four-fixed-start": {
        "s.csv": "458bb1017b3d9b07749c8e52d79a696511c2692ca0c78c1cc3745681fb281410",
    },
    "sweep-two": {
        "s.csv": "9a1674cb99dbe09d57a76e7bffa347d509ae4e75a0038a77aae6a236493296a7",
    },
    "sweep-two-fixed-start": {
        "s.csv": "c9e3397ef19d8f51a66d5301abab485dd34b949cac506e5001a57f52b85c4298",
    },
    "verify-four-portrait": {
        "p.csv": "ecea692027eb11b177132f75efb617692674a0616fc06c87d86613413bd41b27",
        "r.json": "5931f69a182c1329dbbedb8ca6379896964c630e75df5d885068aaea10a179cd",
    },
    "verify-two": {
        "r.json": "c8e4b5aac12de8b8c358ce8c5922262cce9b2866e0616b949a7165cf4d5caeb1",
    },
    "verify-two-portrait": {
        "p.csv": "53d15a0952a799780b6c24ec9a45f65529d12bad16f36af8b3b8fe0a07345909",
        "r.json": "4016bfc251af0dee80780d65709536641052cf059d035135f0de7475eb585ed5",
    },
}


def run_case(name, directory):
    """Run case ``name`` in ``directory``; its exit code and {file: sha256}."""
    for fname, doc in INPUTS.items():
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    argv, outputs = CASES[name]
    code = main([arg.replace("{d}", str(directory)) for arg in argv])
    digests = {}
    for fname in outputs:
        with open(os.path.join(directory, fname), "rb") as fh:
            digests[fname] = hashlib.sha256(fh.read()).hexdigest()
    return code, digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_recorded_digests(name, tmp_path, capsys):
    code, digests = run_case(name, tmp_path)
    assert code == 0
    assert digests == DIGESTS[name]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    names = sys.argv[1:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown cases: {', '.join(unknown)}")
    table = {}
    for case in names:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            code, table[case] = run_case(case, tmp)
        if code != 0:
            sys.exit(f"{case}: exit code {code}")
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    sys.stdout.write("\n")

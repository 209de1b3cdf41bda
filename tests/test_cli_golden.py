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
    # Edge rows: parameter values outside (0, 1), starts inside the fixed band,
    # four-type grids across a + c = 1 and b + d = 1, critical-line grids
    # across a = 1/2.
    "sweep-two-invalid-rows": (["sweep", "--case", "two-type", "--a", "0:1:5", "--b", "0:0.5:3",
                                "--state", "grid:3", "--output", "{d}/s.csv"], ["s.csv"]),
    "sweep-two-fixed-grid-starts": (["sweep", "--case", "two-type", "--a", "0.2:0.8:3",
                                     "--b", "0.3:0.9:3", "--state", "grid:5", "--abs-eps", "0.02",
                                     "--output", "{d}/s.csv"], ["s.csv"]),
    "sweep-four-critical-lines": (["sweep", "--case", "four-type", "--a", "0:1:6",
                                   "--b", "0.4:0.6:3", "--c", "0.3:0.7:5", "--d", "0.5",
                                   "--state", FOUR_STATE, "--output", "{d}/s.csv"], ["s.csv"]),
    "sweep-critical-half": (["sweep", "--case", "critical-line", "--a", "0:1:9",
                             "--a0", "0.2:0.8:3", "--c0", "0.5:1:3", "--x0", "grid:7",
                             "--abs-eps", "0.02", "--output", "{d}/s.csv"], ["s.csv"]),
}

DIGESTS = {
    "classify-four": {
        "c.json": "7ce3ed537c17d1977cb81a806b5e3b65dcdfff77311f7b4afa075768b3c52026",
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
        "f.json": "55601a27e9b596095d3c923250f717c51f4c864c4f405dc08d292c9ce16f4b3a",
    },
    "fixed-points-four": {
        "f.json": "78d9348340c395b93acfa84ec82de502a8472e52553da494d8fd2797c4c85605",
    },
    "fixed-points-four-on-line": {
        "f.json": "4ef38524aad2d27129e8941f4de2dd8792d50572ce5c2ac12266db6af9956d93",
    },
    "fixed-points-two": {
        "f.json": "3213acfe938dbe7f7fd987b17f6c1811d3f1b5c3f0b1e198b2b545adf3caed52",
    },
    "iterate-four": {
        "s.json": "616e3750c32fc62f3877f1549d6746752ff91e89ecc325680cb8adab35f76028",
        "t.csv": "777411711f19448e875bc4e47ba2f725a84011dc361a5ef00c31b9fdbb5a3353",
    },
    "iterate-two": {
        "s.json": "27a0d30aadbde9fa0c0c5b3ac754c89d4c4b390d9b2418af7e4b80debf0e1bdc",
        "t.csv": "af4372440d5c6f570012fcb706541e22fa04f1992e87008bb3e468808a066530",
    },
    "predict-critical": {
        "p.json": "7126a618ca165c93c4e7689d17153c75cdc083957ed7a415e8f8af29b74a1e0a",
    },
    "predict-four": {
        "p.json": "263520e4c53354d5096722e15f1fbe2d2cc37204fbde412b004a1d116dbb8126",
    },
    "predict-two-point": {
        "p.json": "c96b5c3443686cb984c071aa772699d272b1ed7f5f60dd87f0568223b3a0f440",
    },
    "predict-two-state": {
        "p.json": "bc87f5f36ba0ca03024cc2a4c68490687acfb95b332a4f2b3027ab70e18f8409",
    },
    "sweep-critical": {
        "s.csv": "c8fe0aef1076800b3d225dbce1fee8268793a750026d4ff7a9cb9238e2a1cb20",
    },
    "sweep-critical-half": {
        "s.csv": "69fe9977e23273387154e245f63f7a3da1c5517a4290b772040631b77d5b6e55",
    },
    "sweep-four": {
        "s.csv": "9451316d6d20368241332d74fcdfba098007f4a0fca86cc2ba530e2f3fe8c551",
    },
    "sweep-four-critical-lines": {
        "s.csv": "5e4afab7bac1b41210a45e0fe1403f5b7320b0758babbb0c3a69f9ab6b5e0e26",
    },
    "sweep-four-fixed-start": {
        "s.csv": "458bb1017b3d9b07749c8e52d79a696511c2692ca0c78c1cc3745681fb281410",
    },
    "sweep-two": {
        "s.csv": "14ce2080f775027432f0440f2c6b44e6891c984caeb3942828eaf9acba36a626",
    },
    "sweep-two-fixed-grid-starts": {
        "s.csv": "fe3d277e5b3f84c7cb7e1cdfd32035a08dd14d36e719ba5b7f19f84b5f3e5def",
    },
    "sweep-two-fixed-start": {
        "s.csv": "c9e3397ef19d8f51a66d5301abab485dd34b949cac506e5001a57f52b85c4298",
    },
    "sweep-two-invalid-rows": {
        "s.csv": "b61e833674b31327af9395d710f50584449651bd793494a3f5645791c1e23068",
    },
    "verify-four-portrait": {
        "p.csv": "ecea692027eb11b177132f75efb617692674a0616fc06c87d86613413bd41b27",
        "r.json": "f30847f00eb2d1032d421679a1ca4b66f133fedb2b827db47196d2c835177938",
    },
    "verify-two": {
        "r.json": "ee7c95514d733d7e9850810619ee7fce737696b30ee5efa7d225001d605560f2",
    },
    "verify-two-portrait": {
        "p.csv": "53d15a0952a799780b6c24ec9a45f65529d12bad16f36af8b3b8fe0a07345909",
        "r.json": "e69063b82e0aeb1a2b16434e72c07c045db4d05bb77d1df3d13d33db1cfa573b",
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

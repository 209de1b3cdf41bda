"""Fresh processes started by the benchmark; each imports only what it measures.

    python3 bench/probe.py baseline                 # import numpy
    python3 bench/probe.py setup SRC FROM TO        # import qsobp.cli, copy the inputs
    python3 bench/probe.py rss SRC COMMANDS_JSON     # run the CLI commands, print peak RSS

``baseline`` and ``setup`` are timed in alternation by ``run.py``: a setup
time divided by the baseline time next to it cancels most of the drift in a
shared machine's speed.  ``rss`` runs the workload's commands once, with
nothing of the harness loaded, and prints its exit codes and ``ru_maxrss``
as JSON.  Only the standard library is imported at the top.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout


def _import_cli(src: str):
    sys.path.insert(0, src)
    import qsobp.cli

    return qsobp.cli


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "baseline":
        import numpy  # noqa: F401
    elif mode == "setup":
        src, source, target = args
        _import_cli(src)
        shutil.copytree(source, target)
    elif mode == "rss":
        src, commands = args
        cli = _import_cli(src)
        codes = []
        with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
            for command in json.loads(commands):
                try:
                    codes.append(cli.main(command))
                except SystemExit as exc:
                    codes.append(exc.code)
                except Exception:  # the harness counts it as a failed check
                    codes.append("exception")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"codes": codes, "peak_rss_mb": peak_kib / 1024.0}))
    else:
        raise SystemExit(f"unknown probe {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

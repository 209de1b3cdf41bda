"""Layered benchmark of the ``qsobp`` CLI.

Run one workload:

    python3 bench/run.py --workload graph-operator --seed 1 --seconds 20 --trace 0

The workload's commands go through ``qsobp.cli.main(argv)`` in process, in
rounds, until ``--seconds`` have passed (at least a few rounds).  The first
and the last round's outputs are checked against the benchmark's own
references.  With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are
reported: ``wall_s`` (mean over rounds of the round's summed command time,
corrected for the machine's speed by a calibration kernel that runs before
every command), ``setup_s`` (median over fresh processes that import qsobp
and copy the inputs, each divided by the time of a fresh process next to it
that imports only numpy) and ``peak_rss_mb`` (of a fresh process that runs
the commands once).  Every raw time is kept in the provenance.  With
``--trace 1`` rounds alternate between untraced and traced, and the traced
rounds give the per-layer metrics.  The last line of standard output is the
result as JSON; the line before it holds the run's provenance.

Other modes:

    python3 bench/run.py --self-test                    # tiny inputs, all metrics, all checks
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

``--out PATH`` appends each run's record to a JSON-lines file, which is
what ``--compare`` reads.  Only numpy and the standard library are used,
and the package is imported from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import checks as checks_mod
import compare
import inputs as inputs_mod
from spans import Tracer, median_metrics

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_PAIRS = 11
# About the seconds of ``probe.py baseline`` (a fresh process that imports
# numpy) on a 2-core x86-64 Linux VM (Python 3.11, numpy 2.4); setup_s is
# reported at this speed.
SETUP_BASELINE_S = 0.2
MIN_ROUNDS = {0: 3, 1: 4}
# calibration_kernel() on a 2-core x86-64 Linux VM (Python 3.11, numpy 2.4)
# when nothing else loaded the machine.
CALIBRATION_REF_S = 0.083
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_cli():
    """``qsobp.cli`` from this checkout's ``src/``; ImportError when it is absent."""
    src = ROOT / "src"
    if not (src / "qsobp" / "cli.py").is_file():
        raise ImportError(f"no qsobp package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("qsobp.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"qsobp was imported from {cli.__file__}, not from {src}")
    return cli


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(inp: inputs_mod.Inputs, size: str) -> dict:
    return {
        "workload": inp.workload,
        "seed": inp.seed,
        "size": size,
        "inputs_sha256": inp.digest(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


# ---------------------------------------------------------------------------
# Measuring.
# ---------------------------------------------------------------------------


def _probe(*args: str) -> list[str]:
    return [sys.executable, str(PROBE), *args]


def measure_setup(workdir: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes: (baselines that import numpy, setups that
    import qsobp.cli and copy the workload's input files from ``workdir``).

    The two kinds alternate, so each setup has a baseline run next to it at
    the same machine speed.  Generating the inputs is left out: for
    graph-operator it screens starts for about a second, work of the
    benchmark that no change to qsobp moves.
    """
    baselines, setups = [], []
    src = str(ROOT / "src")
    for k in range(SETUP_PAIRS):
        target = f"{workdir}-probe{k}"
        for times, cmd in ((baselines, _probe("baseline")),
                           (setups, _probe("setup", src, workdir, target))):
            start = perf_counter()
            try:
                subprocess.run(cmd, check=True)
                times.append(perf_counter() - start)
            finally:
                shutil.rmtree(target, ignore_errors=True)
    return baselines, setups


def measure_peak_rss(inp: inputs_mod.Inputs, workdir: str) -> tuple[float, list]:
    """Peak RSS (MB) and exit codes of a fresh process that imports qsobp.cli
    and runs the workload's commands once, with nothing of the harness loaded."""
    commands = json.dumps([inputs_mod.argv(t, workdir) for t in inp.commands])
    done = subprocess.run(_probe("rss", str(ROOT / "src"), commands),
                          check=True, capture_output=True, text=True)
    report = json.loads(done.stdout.splitlines()[-1])
    return report["peak_rss_mb"], report["codes"]


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter, numpy and JSON work.

    It runs next to every round and tracks how fast the machine is at that
    moment; it calls nothing in qsobp, so no change to the package moves it.
    """
    start = perf_counter()
    s = (0.2, 0.3)
    for _ in range(60_000):
        nxt = (s[0] + 0.3 * (1.0 - s[0]) * s[1], s[1] * (s[0] + 0.6 * (1.0 - s[0])))
        s = nxt if max(abs(a - b) for a, b in zip(nxt, s)) > 1e-12 else (0.2, 0.3)
    v = np.linspace(0.0, 1.0, 64)
    for _ in range(2_000):
        v = np.einsum("i,i->i", v, v) + 0.1
        v /= v.max()
    tensor = np.full((64, 64, 128), 1.0 / 128)  # 4 MB, streamed like an operator step
    for _ in range(40):
        v = np.einsum("ikj,i,k->j", tensor, v, v)[:64] + 0.1
        v /= v.max()
    json.loads(json.dumps([[0.1234567 * i] * 64 for i in range(200)]))
    return perf_counter() - start


def run_round(cli, inp: inputs_mod.Inputs, workdir: str,
              calibs: list[float] | None) -> tuple[list[float], list, list[str]]:
    """Runs every command once; returns each command's time, exit codes, stdout.

    With ``calibs`` the calibration kernel runs before each command and its
    times are appended there.
    """
    times, codes, outs = [], [], []
    for template in inp.commands:
        if calibs is not None:
            calibs.append(calibration_kernel())
        out = io.StringIO()
        args = inputs_mod.argv(template, workdir)
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(out):
                code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash of the program is a failed check, not a harness crash
            code = "exception"
            out.write(traceback.format_exc())
        times.append(perf_counter() - start)
        codes.append(code)
        outs.append(out.getvalue())
        if code != 0:
            sys.stderr.write(f"bench: {template[0]} exited with {code}:\n{out.getvalue()}\n")
    return times, codes, outs


def calibrated_wall(rounds: list[list[float]], calibs: list[float]) -> float:
    """Mean round time (summed command times) over the mean calibration
    kernel time of the run, scaled to seconds at the kernel's reference time.

    The kernel runs before every command, so its mean samples the machine's
    speed over the same minutes as the rounds.  Single kernel times swing
    by up to 2x between two levels, so no single round is corrected by the
    samples next to it alone.
    """
    mean_round = statistics.fmean(sum(times) for times in rounds)
    return mean_round * CALIBRATION_REF_S / statistics.fmean(calibs)


def output_bytes(inp: inputs_mod.Inputs, workdir: str) -> int:
    return sum(
        entry.stat().st_size
        for entry in os.scandir(workdir)
        if entry.is_file() and entry.name not in inp.files
    )


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full", spans: str | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, provenance)."""
    spec = load_spec()
    cli = load_cli()
    inp = inputs_mod.make_inputs(workload, seed, size)
    work_root = ROOT / ".bench_work"
    workdir = str(work_root / f"{workload}-{os.getpid()}")
    checks = checks_mod.Checks()
    check_rng = np.random.default_rng([seed, 1])
    checker = checks_mod.CHECKERS[workload]
    tracer = Tracer() if trace else None
    rounds, traced_walls, calibs, sizes, mismatches = [], [], [], [], []
    try:
        inputs_mod.write_inputs(inp, workdir)
        if not trace:
            baselines, setups = measure_setup(workdir)
            peak_rss_mb, codes = measure_peak_rss(inp, workdir)
            for template, code in zip(inp.commands, codes):
                checks.add(f"{template[0]} exits 0 in a fresh process", code == 0)
        begin = perf_counter()
        while len(sizes) < MIN_ROUNDS[trace] or perf_counter() - begin < seconds:
            traced = tracer is not None and len(sizes) % 2 == 1
            gc.collect()
            if traced:
                tracer.install()
                tracer.begin_round()
            try:
                times, codes, outs = run_round(cli, inp, workdir, None if trace else calibs)
            finally:
                if traced:
                    tracer.end_round()
                    tracer.uninstall()
            if traced:
                traced_walls.append(sum(times))
            else:
                rounds.append(times)
            for template, code in zip(inp.commands, codes):
                checks.add(f"{template[0]} exits 0", code == 0)
            ok = all(code == 0 for code in codes)
            # Outputs are deterministic: every round's sizes are compared, the
            # first and the last round's contents are checked in full.
            if ok and not sizes:
                mismatches.append(checker(checks, workdir, inp.expect, outs, check_rng) or 0.0)
            sizes.append(output_bytes(inp, workdir))
        if ok:
            mismatches.append(checker(checks, workdir, inp.expect, outs, check_rng) or 0.0)
        if not trace:
            calibs.append(calibration_kernel())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        remove_if_empty(work_root)
    checks.add("output sizes repeat across rounds", len(set(sizes)) == 1)
    walls = [sum(times) for times in rounds]
    prov = provenance(inp, size)
    prov.update(seconds=seconds, trace=trace, round_wall_s=walls,
                traced_round_wall_s=traced_walls)
    if trace:
        metrics = traced_metrics(tracer, checks, workload, walls, traced_walls)
        metrics["cli.output_bytes"] = sizes[0]
        metrics["cli.verify_max_mismatch"] = max(mismatches, default=0.0)
        if spans:
            tracer.write_spans(spans)
        wanted = spec["per_layer"]
    else:
        # The speed of a shared machine drifts by up to 2x over minutes.  Round
        # times are divided by the calibration kernel's times of the same run,
        # each setup time by the baseline process's time next to it.
        metrics = {
            "wall_s": calibrated_wall(rounds, calibs),
            "setup_s": statistics.median(s / b for s, b in zip(setups, baselines))
            * SETUP_BASELINE_S,
            "peak_rss_mb": peak_rss_mb,
        }
        prov.update(round_command_s=rounds, calibration_s=calibs,
                    setup_baseline_s=baselines, setup_s=setups)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"bench: metrics absent (traced name gone?): {', '.join(missing)}\n")
    for name in checks.failures:
        sys.stderr.write(f"bench: check failed: {name}\n")
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    return result, prov


def traced_metrics(tracer: Tracer, checks, workload: str, walls, traced_walls) -> dict:
    per_round = [tracer.round_metrics(i) for i in range(len(tracer.rounds))]
    metrics, repeat = median_metrics(per_round)
    checks.add("per-layer counts repeat across traced rounds", repeat)
    metrics["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    # The properties each workload was chosen for.
    if workload == "closed-form-sweep":
        checks.add("closed-form-sweep never iterates", metrics.get("dynamics.steps", 0) == 0)
    if workload == "closed-form-verify":
        seen = set().union(*(tracer.span_names_in_round(i) for i in range(len(tracer.rounds))))
        checks.add(
            "closed-form-verify never constructs",
            not any(name.startswith("construction.") for name in seen),
        )
    return metrics


# ---------------------------------------------------------------------------
# Self-test.
# ---------------------------------------------------------------------------


def self_test() -> int:
    """Every workload at tiny size, traced and untraced: all metrics, all checks."""
    spec = load_spec()
    problems = []
    scratch = ROOT / ".bench_work" / f"self-test-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    records = str(scratch / "records.jsonl")
    spans = str(scratch / "spans.csv")
    try:
        for workload in inputs_mod.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                result, prov = run_workload(workload, 7, 0.0, trace, "tiny", spans if trace else None)
                append_record(records, result, prov)
                wanted = {m["name"]: m["unit"] for m in spec[kind]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != wanted:
                    problems.append(f"{workload} trace {trace}: metrics {sorted(set(wanted) ^ set(got))}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{workload} trace {trace}: {result['failed']} checks failed")
            with open(spans, encoding="utf-8") as fh:
                if sum(1 for _ in fh) < 2:
                    problems.append(f"{workload}: no spans written")
        with redirect_stdout(io.StringIO()) as out:
            compare.main(records, records, spec)
        if out.getvalue().count("within-bound") < len(spec["end_to_end"]):
            problems.append("compare of a result with itself is not within bound")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        remove_if_empty(scratch.parent)
    for p in problems:
        print(f"self-test: {p}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


def append_record(path: str, result: dict, prov: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": prov, "result": result}, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    parser.add_argument("--spans", help="write the traced run's spans to this CSV file")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare.main(*args.compare, load_spec())
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        result, prov = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                    spans=args.spans)
    except (ImportError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        append_record(args.out, result, prov)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the affectseq command chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (it imports ``src/affectseq``).
One run builds the workload's inputs from the seed in a fresh directory
under ``.perfbench_runs/`` (several times, to time set-up), then runs the
workload's ``affectseq`` command chain in a closed loop with one client
for S seconds, checks every output, and prints each metric by name with
its unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A fixed reference kernel runs between the chain's commands; the bounded
``pipeline_rel`` is a pass's wall time divided by the kernel's median time
in that pass, which cancels most of a shared host's changing speed.
``setup_s`` is rescaled the same way, to the speed at which the kernel
takes 0.07 s.
``--trace 0`` reports the end-to-end metrics of untraced passes;
``--trace 1`` reports per-layer metrics from traced passes, plus the
tracing overhead against untraced passes of the same run, and writes the
spans of the last traced pass to ``.perfbench_runs/trace-<workload>-seed<N>.json``.
See perfbench/README.md for the workloads, metrics and gates.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".perfbench_runs"
WORKLOADS = ("paper_train", "wide_infer", "post_long")
RUN_LIMIT_S = 175.0
SETUP_LIMIT_S = 60.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread keeps the chain, like the reference kernel, on one core.
# On a 2-vCPU shared host a second thread cut wide_infer's pass by about
# 5 % and widened the run-to-run spread of pipeline_rel about 1.7x.
BLAS_THREADS = 1

# name -> unit; every workload reports each of these with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "pipeline_rel": "x",
    "peak_rss_mb": "MB",
}
# Per-call percentiles are reported for these layers.
PERCENTILE_LAYERS = (
    "dataio.load_features", "dataio.load_predictions", "dataio.gather",
    "seqmodel.encode", "model.predict_batch", "model.training_loss",
    "autodiff.backward", "numerics.adam_step", "smoothing.filtfilt",
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it, when that percentile lies above the median."""
    n = len(values)
    k = n - 11
    if 100.0 * (k + 1) / n <= 50.0:
        return None
    return 100.0 * (k + 1) / n, sorted(values)[k]


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    found = tail(values)
    high = (f"p{found[0]:.0f} {found[1]:.6g}" if found
            else f"max {max(values):.6g}, too few for a tail percentile")
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}, {high}"


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_worker(phase: str, args: list[str], run_dir: Path, env: dict, timeout: float) -> dict:
    result = run_dir / f"{phase}.json"
    log = run_dir / f"{phase}.log"
    command = [sys.executable, str(BENCH_DIR / "worker.py"), phase, *args,
               "--result", str(result)]
    with open(log, "w", encoding="utf-8") as out:
        try:
            done = subprocess.run(command, stdout=out, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{phase} did not finish within {timeout:.0f} s") from None
    if done.returncode != 0 or not result.exists():
        lines = log.read_text(encoding="utf-8", errors="replace").splitlines()
        raise BenchError(f"{phase} worker exited with code {done.returncode}:\n"
                         + "\n".join(lines[-20:]))
    return json.loads(result.read_text(encoding="utf-8"))


def command_metrics(passes: list[dict]) -> dict[str, tuple[list[float], str]]:
    """Per-command wall time and throughput, one value per pass."""
    out: dict[str, tuple[list[float], str]] = {}
    names = [name for name, _, _ in passes[0]["commands"]]
    for name in dict.fromkeys(names):
        seconds = [sum(s for n, s, _ in p["commands"] if n == name) for p in passes]
        out[f"{name}_s"] = (seconds, "s")
        work = sum(w or 0 for n, _, w in passes[0]["commands"] if n == name)
        if work:
            unit = "samples" if name == "smooth" else "windows"
            out[f"{name}_{unit}_per_s"] = ([work / s for s in seconds], "1/s")
    return out


def end_to_end(setup: dict, chain: dict) -> tuple[dict, list[str]]:
    passes = chain["untraced"]
    series = {
        "setup_s": (setup["scaled"], "s"),
        "setup_wall_s": (setup["times"], "s"),
        "pipeline_rel": ([p["pipeline_s"] / p["reference_s"] for p in passes], "x"),
        "pipeline_s": ([p["pipeline_s"] for p in passes], "s"),
        "reference_s": ([p["reference_s"] for p in passes], "s"),
        "peak_rss_mb": ([chain["peak_rss_mb"]], "MB"),
        **command_metrics(passes),
    }
    notes = {"setup_s": "median of set-ups of wall time x 0.07 s / reference-kernel time",
             "setup_wall_s": "median of set-ups", "peak_rss_mb": "peak of the chain process",
             "pipeline_rel": "median of passes of pass wall time / median reference-kernel time",
             "reference_s": "median of passes of the median reference-kernel time"}
    metrics, lines = {}, []
    for name, (values, unit) in series.items():
        value = statistics.median(values)
        if name in END_TO_END:
            metrics[name] = {"value": value, "unit": unit}
        note = notes.get(name, "median of passes")
        lines.append(f"metric {name} = {value:.6g} {unit}  ({note}; {quartiles(values)})")
    for name, value in chain["scores"].items():
        if name.startswith(("eval_", "untrained_")):
            lines.append(f"metric {name} = {value:.6g}  (final report; repeats exactly for a seed)")
    return metrics, lines


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(setup: dict, chain: dict) -> tuple[dict, list[str]]:
    """Layer metrics from the traced passes; boundaries that are gone are left out."""
    table = {**chain["layers"], **setup["layers"]["layers"]}
    missing = chain["missing"] + setup["layers"]["missing"]
    passes = len(chain["traced"])
    metrics, lines = {}, []

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name, entry in table.items():
        put(f"{name}.calls", entry["calls"], "count")
        put(f"{name}.self_s", entry["self_s"], "s")
        durations = entry["durations"]
        line = f"layer {name}: calls {entry['calls']:g}, self {entry['self_s']:.6g} s"
        if name in PERCENTILE_LAYERS:
            put(f"{name}.p50_ms", 1e3 * statistics.median(durations) if durations else 0.0, "ms")
            line += f"; per call ms: {quartiles([1e3 * d for d in durations])}"
        lines.append(line)

    def work_of(name: str, index: int | None = None) -> tuple[float, float]:
        entry = table[name]
        work = [w if index is None else w[index] for w in entry["work"]]
        return float(sum(work)), entry["busy_s"]

    if "dataio.load_features" in table:
        parsed, busy = work_of("dataio.load_features")
        put("dataio.load_features.mb_per_s", _ratio(parsed / 1e6, busy), "MB/s")
        put("dataio.load_features.mb_parsed", parsed / 1e6 / passes, "MB")
    if "dataio.load_predictions" in table:
        parsed, _ = work_of("dataio.load_predictions")
        put("dataio.load_predictions.mb_parsed", parsed / 1e6 / passes, "MB")
    if "seqmodel.encode" in table:
        flops, busy = work_of("seqmodel.encode", 0)
        moved, _ = work_of("seqmodel.encode", 1)
        put("seqmodel.encode.gflop_per_s", _ratio(flops / 1e9, busy), "GFLOP/s")
        put("seqmodel.encode.computed_gflop", flops / 1e9 / passes, "GFLOP")
        put("seqmodel.encode.computed_gb_moved", moved / 1e9 / passes, "GB")
        put("seqmodel.encode.flop_per_byte", _ratio(flops, moved), "flop/B")
        calls = table["seqmodel.encode"]["work"]
        if calls:
            biggest = max(calls)
            lines.append(f"kernel seqmodel.encode (computed): largest batch {biggest[0] / 1e9:.4g} "
                         f"GFLOP, {biggest[1] / 1e6:.4g} MB moved; per pass "
                         f"{flops / 1e9 / passes:.4g} GFLOP, {moved / 1e9 / passes:.4g} GB")
    if "smoothing.filtfilt" in table:
        samples, busy = work_of("smoothing.filtfilt")
        put("smoothing.filtfilt.samples_per_s", _ratio(samples, busy), "1/s")
    if chain.get("nodes_counted"):
        for layer, name in (("model.training_loss", "autodiff.nodes_per_train_step"),
                            ("model.predict_batch", "autodiff.nodes_per_predict_batch")):
            if layer in table:
                nodes = table[layer]["nodes"]
                put(name, statistics.median(nodes) if nodes else 0, "count")
    else:
        missing.append("autodiff.Var (graph node counts)")

    untraced = statistics.median(p["pipeline_s"] for p in chain["untraced"])
    traced = statistics.median(p["pipeline_s"] for p in chain["traced"])
    put("trace.pipeline_s", traced, "s")
    put("trace.overhead_s", traced - untraced, "s")
    lines.append(f"tracing overhead: traced pipeline_s {traced:.6g} s - untraced {untraced:.6g} s "
                 f"= {traced - untraced:.6g} s ({100 * (traced - untraced) / untraced:.1f}%)")
    for name in missing:
        lines.append(f"layer {name}: missing (boundary not found in this revision)")
    for name, value in metrics.items():
        lines.append(f"metric {name} = {value['value']:.6g} {value['unit']}")
    return metrics, lines


def run(args) -> int:
    if not (ROOT / "src" / "affectseq" / "cli.py").is_file():
        raise BenchError(f"no affectseq sources under {ROOT / 'src'}; "
                         "run this from the root of a source checkout")
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    trace = ["--trace"] if args.trace else []
    common = ["--workload", args.workload, "--seed", str(args.seed), *trace]

    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=RUNS_DIR))
    try:
        setup = run_worker("setup", [*common, "--base", str(run_dir)], run_dir, env,
                           SETUP_LIMIT_S)
        chain = run_worker("chain", [*common, "--seconds", str(args.seconds),
                                     "--inputs", setup["inputs"], "--work", str(run_dir / "work")],
                           run_dir, env, RUN_LIMIT_S - (time.monotonic() - started))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    environment = {"nproc": nproc, "blas_threads": BLAS_THREADS, **chain["env"],
                   "git_revision": git_revision(), "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(f"perfbench {args.workload}: closed loop, 1 client, "
          f"{len(chain['untraced']) + len(chain['traced'])} timed passes after 1 reference pass")
    print("env " + json.dumps(environment))

    complete = chain["traced"] if args.trace else chain["untraced"]
    if not complete:
        raise BenchError("no pass of the chain completed:\n" + "\n".join(chain["errors"]))
    if args.trace:
        metrics, lines = per_layer(setup, chain)
        trace_file = RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": environment, "spans": chain["spans"]}),
                              encoding="utf-8")
        lines.append(f"spans of the last traced pass written to {trace_file.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(setup, chain)
    print("\n".join(lines))

    problems = list(chain["problems"])
    if not setup["deterministic"]:
        problems.append("set-up wrote different bytes for the same seed")
    attempted, failed = chain["attempted"], chain["failed"]
    print(f"gate commands exit 0: {attempted - failed}/{attempted} "
          f"(op_failure_rate {failed / attempted:.6g})")
    for error in chain["errors"]:
        print(f"error {error}")
    for check in [*chain["checks"], "set-up byte-identical across repeats"]:
        print(f"gate {check}")
    print("gates: " + ("pass" if not problems and failed == 0 else "FAIL"))
    for problem in problems:
        print(f"gate failure: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

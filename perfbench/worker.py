"""Benchmark worker, one process per phase.

    worker.py setup --workload W --seed N --base DIR --result FILE [--trace]
    worker.py chain --workload W --seed N --seconds S --inputs DIR --work DIR
                    --result FILE [--trace]

``setup`` builds the workload's inputs into fresh directories
``DIR/setup<k>``, at least three times and until two seconds have been
spent on it, and keeps the last; each build is timed between two runs
of the reference kernel. ``chain`` runs the workload's
``affectseq`` command chain in this process, one command after another:
one reference pass, fully checked, then timed passes in a closed loop
(one client, the next pass starts when the previous one has finished)
for S seconds. A fixed reference kernel runs before each command and
after the last, outside the commands' timings, to gauge the host's speed
during the pass. With ``--trace`` the first half of the time runs untraced
and the second half traced. Each pass writes into a fresh directory and
its outputs must be byte-identical to the reference pass's. Results go to
FILE as JSON; perfbench/run.py starts both phases and reads them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from affectseq.cli import main as cli_main

from tracing import COMMAND_LAYERS, LAYERS, SETUP_LAYERS, Tracer, span_records, summarize
from workloads import WORKLOADS, Chain, read_track

MIN_PASSES = 2
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 25, 2.0
# Set-up is mostly formatting numbers into CSV and checkpoint text, so its
# reference kernel is all interpreter work.
SETUP_REFERENCE = (1.0, 0.0, 0.0)
REPORT_TOLERANCE = 1e-9
ENSEMBLE_TOLERANCE = 1e-12


def tree_digest(paths) -> str:
    """SHA-256 over the bytes and relative names of every file under ``paths``."""
    h = hashlib.sha256()
    for top in paths:
        files = sorted(p for p in top.rglob("*") if p.is_file()) if top.is_dir() else [top]
        for path in files:
            h.update(str(path.relative_to(top) if top.is_dir() else path.name).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def chain_digest(chain: Chain) -> str:
    return tree_digest([*chain.prediction_dirs, chain.report_dir, *chain.artifacts])


def _environment() -> dict:
    env = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    return env


def cmd_setup(args) -> dict:
    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    kernel = ReferenceKernel(SETUP_REFERENCE)
    times, reference, passes, digests, target = [], [], [], [], None
    with tracer.install(SETUP_LAYERS) if args.trace else contextlib.nullcontext():
        while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S
                                                and len(times) < SETUP_MAX_REPS):
            if target is not None:
                shutil.rmtree(target)
            target = args.base / f"setup{len(times)}"
            tracer.reset()
            before = kernel.run()
            start = time.perf_counter()
            workload.setup(target, args.seed)
            times.append(time.perf_counter() - start)
            reference.append((before + kernel.run()) / 2)
            passes.append(tracer.spans)
            digests.append(tree_digest([target]))
    result = {"times": times, "inputs": str(target),
              "scaled": [t * ReferenceKernel.NOMINAL_S / r for t, r in zip(times, reference)],
              "deterministic": len(set(digests)) == 1}
    if args.trace:
        result["layers"] = _layer_table(summarize(passes), SETUP_LAYERS, tracer.missing)
    return result


def _call(argv: list[str], errors: list[str]) -> int:
    try:
        return cli_main(argv)
    except Exception:  # a crash is a failed command; keep it and report it
        errors.append(f"{argv[0]}: {traceback.format_exc(limit=3)}")
        return -1


class ReferenceKernel:
    """Fixed work that calls no affectseq code, timed between the chain's
    commands to gauge how fast the host runs during a pass.

    On a shared host the same pass can take 1.7x longer a minute later,
    in CPU time as well as wall time. The kernel slows with it, so a
    pass's wall time divided by the kernel's median time over that pass
    repeats far better across runs than the wall time does. Different
    kinds of work slow by different amounts, so the kernel is built from
    three parts in the shares a workload gives (``Workload.reference``):
    interpreter work (parsing a CSV block into floats and formatting it
    back, as the package's track reads and writes do), numpy elementwise
    ops on small arrays (as the autodiff graph does) and matrix products
    (as the encoders do). One run takes about 0.07 s whatever the shares.
    """

    # CSV rows, elementwise steps and matrix products that each take
    # about NOMINAL_S seconds with one BLAS thread on the 2-vCPU host the
    # benchmark was built on.
    FULL = (14_000, 270, 21)
    NOMINAL_S = 0.07

    def __init__(self, shares: tuple[float, float, float]) -> None:
        rows, self._elementwise, self._matmul = (
            round(share * n) for share, n in zip(shares, self.FULL))
        rng = np.random.default_rng(0)
        self._csv = "\n".join(f"m000,{t},{a!r},{b!r}" for t, (a, b)
                              in enumerate(rng.standard_normal((rows, 2)).tolist()))
        self._a = rng.standard_normal((128, 1582))
        self._b = rng.standard_normal((1582, 256))
        self._c = rng.standard_normal((128, 512))

    def run(self) -> float:
        """Wall seconds one run of the kernel took."""
        start = time.perf_counter()
        rows = []
        for line in self._csv.splitlines():
            fields = line.split(",")
            int(fields[1])
            rows.append([float(v) for v in fields[2:]])
        "\n".join(f"m000,{t},{a!r},{b!r}" for t, (a, b) in enumerate(rows))
        x = self._c
        for _ in range(self._elementwise):
            x = np.tanh(x) * 0.5 + self._c
        for _ in range(self._matmul):
            x = x + (self._a @ self._b)[:, :1]
        return time.perf_counter() - start


def run_pass(chain: Chain, tracer: Tracer | None, errors: list[str],
             kernel: ReferenceKernel) -> dict:
    """Run the chain once; timings per command, how many failed, and the
    median time of the reference kernel run before each command and
    after the last (the median, because the run right after a long
    command is often slow). ``pipeline_s`` sums the commands' times only."""
    gc.collect()
    commands, reference = [], []
    for i, argv in enumerate(chain.commands):
        reference.append(kernel.run())
        begin = time.perf_counter()
        if tracer is None:
            code = _call(argv, errors)
        else:
            with tracer.span(f"cli.{argv[0]}"):
                code = _call(argv, errors)
        commands.append([argv[0], time.perf_counter() - begin, chain.work.get(i)])
        if code != 0:
            errors.append(f"{argv[0]} exited with code {code}")
            return {"pipeline_s": None, "commands": commands, "failed": 1}
    reference.append(kernel.run())
    return {"pipeline_s": sum(seconds for _, seconds, _ in commands),
            "reference_s": statistics.median(reference), "commands": commands, "failed": 0}


def _macro_scores(preds: dict, annos: dict) -> dict[str, float]:
    """Macro-per-movie MSE and PCC, computed here independently of affectseq."""
    scores = {}
    for j, dim in enumerate(("valence", "arousal")):
        mses, pccs = [], []
        for movie, truth in annos.items():
            pred = preds[movie][: truth.shape[0], j]
            mses.append(np.mean((pred - truth[:, j]) ** 2))
            if np.ptp(pred) > 0 and np.ptp(truth[:, j]) > 0:
                pccs.append(np.corrcoef(pred, truth[:, j])[0, 1])
        scores[f"{dim}_mse"] = float(np.mean(mses))
        scores[f"{dim}_pcc"] = float(np.mean(pccs)) if pccs else float("nan")
    return scores


def _parse_report(path: Path) -> dict[str, float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "metric,aggregation,value":
        raise ValueError(f"unexpected header {lines[0]!r}")
    values = {}
    for line in lines[1:]:
        name, _, value = line.split(",")
        values[name] = float(value)
    return values


def check_outputs(chain: Chain, inputs: Path) -> tuple[list[str], dict]:
    """Gate one pass's outputs; returns (problems, eval numbers)."""
    problems = []
    annos = {p.stem: read_track(p)
             for p in sorted((inputs / "data" / "annotations").glob("*.csv"))}
    tracks = {}
    for directory in chain.prediction_dirs:
        got = {p.stem: read_track(p) for p in sorted(directory.glob("*.csv"))}
        tracks[directory] = got
        if sorted(got) != sorted(annos):
            problems.append(f"{directory.name}: movies {sorted(got)} != annotated {sorted(annos)}")
            continue
        for movie, values in got.items():
            if values.shape != annos[movie].shape:
                problems.append(f"{directory.name}/{movie}: shape {values.shape} "
                                f"!= annotation {annos[movie].shape}")
            elif not np.isfinite(values).all():
                problems.append(f"{directory.name}/{movie}: non-finite values")
    if problems:
        return problems, {}

    try:
        report = _parse_report(chain.report_dir / "report.csv")
        headline = {k: report[k] for k in
                    ("valence_mse", "valence_pcc", "arousal_mse", "arousal_pcc")}
    except (OSError, ValueError, KeyError) as exc:
        return [f"report.csv does not parse: {exc}"], {}
    expected = _macro_scores(tracks[chain.prediction_dirs[-1]], annos)
    for key, value in headline.items():
        if not abs(value - expected[key]) <= REPORT_TOLERANCE:
            problems.append(f"report {key} = {value!r}, recomputed {expected[key]!r}")
    if chain.ensemble is not None:
        sources, target = chain.ensemble
        for movie in annos:
            mean = np.mean([tracks[d][movie] for d in sources], axis=0)
            if not np.allclose(tracks[target][movie], mean, rtol=0, atol=ENSEMBLE_TOLERANCE):
                problems.append(f"ensemble/{movie} is not the mean of its runs")
    scores = {
        "eval_mse": (headline["valence_mse"] + headline["arousal_mse"]) / 2,
        "eval_pcc": (headline["valence_pcc"] + headline["arousal_pcc"]) / 2,
        **headline,
    }
    return problems, scores


def check_learning(workload, scores: dict, chain: Chain, inputs: Path) -> tuple[list[str], dict]:
    """Trained model: eval_pcc above the floor, eval_mse below the untrained
    model's, which ``chain`` has scored."""
    problems, untrained = check_outputs(chain, inputs)
    if problems:
        return [f"untrained chain: {p}" for p in problems], {}
    if not scores["eval_pcc"] > workload.pcc_floor:
        problems.append(f"eval_pcc {scores['eval_pcc']:.4f} not above the learning floor "
                        f"{workload.pcc_floor}")
    if not scores["eval_mse"] < untrained["eval_mse"]:
        problems.append(f"eval_mse {scores['eval_mse']:.4f} not below the untrained "
                        f"model's {untrained['eval_mse']:.4f}")
    return problems, {"untrained_eval_mse": untrained["eval_mse"],
                      "untrained_eval_pcc": untrained["eval_pcc"]}


def _layer_table(per_layer: dict, layers, missing: list[str]) -> dict:
    """Zero rows for boundaries that exist but were never entered."""
    present = [name for name, *_ in layers if name not in missing]
    table = {name: {"calls": 0, "self_s": 0.0, "durations": [], "work": [],
                    "busy_s": 0.0, "nodes": []} for name in present}
    table.update(per_layer)
    return {"layers": table, "missing": missing}


def cmd_chain(args) -> dict:
    workload = WORKLOADS[args.workload]
    errors: list[str] = []
    attempted = failed = 0
    passes = {"untraced": [], "traced": []}
    trace_passes = []
    tracer = Tracer()
    kernel = ReferenceKernel(workload.reference)

    reference = workload.chain(args.inputs, args.work / "pass000")
    first = run_pass(reference, None, errors, kernel)
    attempted += len(first["commands"])
    failed += first["failed"]
    problems, scores, digest = [], {}, None
    checks = ["prediction tracks finite and cover every annotated second",
              "report.csv parses and matches a recomputation from the tracks"]
    if reference.ensemble is not None:
        checks.append("ensemble is the mean of its runs")
    if workload.untrained is not None:
        checks.append(f"eval_pcc > {workload.pcc_floor} and eval_mse below the untrained model's")
    checks.append("every timed pass byte-identical to the reference pass"
                  + (" (traced passes included)" if args.trace else ""))
    if not failed:
        problems, scores = check_outputs(reference, args.inputs)
        digest = chain_digest(reference)
    if scores and workload.untrained is not None:
        baseline = workload.untrained(args.inputs, args.work / "untrained")
        result = run_pass(baseline, None, errors, kernel)
        attempted += len(result["commands"])
        failed += result["failed"]
        if not failed:
            found, untrained = check_learning(workload, scores, baseline, args.inputs)
            problems += found
            scores.update(untrained)

    start = time.perf_counter()
    phases = [("untraced", start + args.seconds / 2 if args.trace else start + args.seconds)]
    if args.trace:
        phases.append(("traced", start + args.seconds))
    count = 0
    for phase, deadline in phases if not failed else []:
        with tracer.install(LAYERS) if phase == "traced" else contextlib.nullcontext():
            while True:
                count += 1
                chain = workload.chain(args.inputs, args.work / f"pass{count:03d}")
                tracer.reset()
                begin = time.perf_counter()
                result = run_pass(chain, tracer if phase == "traced" else None, errors, kernel)
                took = time.perf_counter() - begin
                attempted += len(result["commands"])
                failed += result["failed"]
                if result["failed"]:
                    break
                if chain_digest(chain) != digest:
                    problems.append(f"{phase} pass {count}: outputs differ from the reference pass")
                shutil.rmtree(args.work / f"pass{count:03d}")
                passes[phase].append(result)
                if phase == "traced":
                    trace_passes.append(tracer.spans)
                done = len(passes[phase]) >= MIN_PASSES
                if done and time.perf_counter() + took > deadline:
                    break
        if failed:
            break

    out = {
        "attempted": attempted, "failed": failed, "checks": checks, "problems": problems,
        "errors": errors[:5], "scores": scores, "env": _environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        **passes,
    }
    if trace_passes:
        out.update(_layer_table(summarize(trace_passes), COMMAND_LAYERS + LAYERS,
                                tracer.missing))
        out["nodes_counted"] = tracer.counts_nodes
        out["spans"] = span_records(trace_passes[-1])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="phase", required=True)
    for phase in ("setup", "chain"):
        p = sub.add_parser(phase)
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--result", type=Path, required=True)
        p.add_argument("--trace", action="store_true")
    sub.choices["setup"].add_argument("--base", type=Path, required=True)
    sub.choices["chain"].add_argument("--seconds", type=float, required=True)
    sub.choices["chain"].add_argument("--inputs", type=Path, required=True)
    sub.choices["chain"].add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.phase == "setup" else cmd_chain(args)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

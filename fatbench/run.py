"""FedProphet FAT benchmark: end-to-end metrics per workload, or a traced run.

Usage (from the repository root)::

    python3 fatbench/run.py                                  # every workload
    python3 fatbench/run.py --workload prophet_cascade --seed 3 --seconds 20
    python3 fatbench/run.py --workload jfat_fused --trace 1  # per-layer run

One workload runs in this process: repeated complete runs (set up the
task and experiment, ``run()``, ``final_eval``) in a closed loop until
``--seconds`` is spent, at least three of them.  Without a workload every
workload runs, each in a child process of its own so peak memory is per
workload.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  Reports, Chrome traces and the per-layer table go to
``.fatbench/`` (``--out``).  See ``fatbench/README.md`` for every metric.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
from hostinfo import pin_blas_threads  # noqa: E402  (no numpy import)

# BLAS sizes its thread pool when numpy loads; the pin must come first.
pin_blas_threads()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import measure  # noqa: E402
from calibration import REFERENCE_S, calibrate  # noqa: E402

WORKLOAD_NAMES = ("prophet_cascade", "jfat_fused", "jfat_async_durable")
MIN_RUNS = 3
#: Extra set-ups timed after the measured runs: set-up is milliseconds, so
#: its median needs more samples than the runs give.
SETUP_REPEATS = 10

#: End-to-end metric -> unit, in report order (BENCHMARK.json ``end_to_end``).
#: Every timing is host-speed adjusted (see ``calibration.py``).
END_TO_END = {
    "setup_s": "s",
    "round_s.p50": "s",
    "run_s": "s",
    "train_samples_per_s": "1/s",
    "final_eval_s": "s",
    "eval_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class RunRecord:
    """One complete run of a workload: its timings, outputs and checks."""

    setup_s: float
    run_s: float = 0.0
    final_eval_s: float = 0.0
    windows: List[tuple] = field(default_factory=list)  # (start, end) per round
    train_samples: int = 0
    eval_samples: int = 0
    sim_time_s: float = 0.0
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    layers: Optional[Dict[str, float]] = None
    calib_s: float = REFERENCE_S  # mean of the calibration points around the run


def weight_digest(exp) -> str:
    """SHA-256 over the final global weights (and FedProphet's aux heads)."""
    h = hashlib.sha256()
    states = [exp.global_model.state_dict()]
    states += [head.state_dict() for head in getattr(exp, "heads", []) if head is not None]
    for state in states:
        for key in sorted(state):
            value = state[key]
            h.update(key.encode())
            h.update(str((value.dtype.str, value.shape)).encode())
            h.update(value.tobytes())
    return h.hexdigest()


def weights_finite(exp) -> bool:
    import numpy as np

    return all(np.isfinite(v).all() for v in exp.global_model.state_dict().values())


def run_once(name: str, seed: int, workdir: str, probe=None, replay: bool = False) -> RunRecord:
    """Set up, run and final-evaluate one workload; checks run untimed.

    ``replay`` re-executes a journalled run from its journal afterwards.
    """
    from workloads import WORKLOADS

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    t0 = time.perf_counter()
    built = WORKLOADS[name](seed, workdir)
    record = RunRecord(setup_s=time.perf_counter() - t0)
    exp = built.experiment
    if probe is not None:
        probe.bind(exp)
    starts: List[float] = []
    sample_round = exp.sample_round

    def timed_sample_round(round_idx):
        starts.append(time.perf_counter())
        return sample_round(round_idx)

    exp.sample_round = timed_sample_round
    record.attempted = built.rounds + built.evals + 1
    try:
        t1 = time.perf_counter()
        history = exp.run()
        t2 = time.perf_counter()
        result = exp.final_eval()
        t3 = time.perf_counter()
    except Exception as error:  # a failed operation is counted, not fatal
        record.failed = record.attempted
        record.problems.append(f"run raised {type(error).__name__}: {error}")
        return record
    finally:
        exp.close()
    record.run_s, record.final_eval_s = t2 - t1, t3 - t2
    record.windows = measure.round_windows(starts, t2)
    done = [r for r in history if not r.aborted]
    record.train_samples = built.samples_per_round * len(done)
    plan = exp.eval_plan(with_autoattack=True)
    record.eval_samples = len(exp.task.test) * len(plan.attacks)
    record.sim_time_s = exp.clock_s
    record.digest = weight_digest(exp)
    evals_done = sum(1 for r in history if r.eval is not None)
    record.failed = (built.rounds - len(done)) + max(built.evals - evals_done, 0)

    if len(history) != built.rounds:
        record.problems.append(f"history has {len(history)} rounds, expected {built.rounds}")
    if len(starts) != built.rounds:
        record.problems.append(f"{len(starts)} rounds sampled, expected {built.rounds}")
    if not weights_finite(exp):
        record.problems.append("final weights are not finite")
    accs = (result.clean_acc, result.pgd_acc, result.aa_acc)
    if not all(a is not None and 0.0 <= a <= 1.0 for a in accs):
        record.problems.append(f"final_eval accuracies out of range: {accs}")
    if probe is not None:
        record.layers = probe.metrics(record.windows)
    if replay and built.journal_path is not None:
        record.problems += verify_replay(built, workdir)
    return record


def verify_replay(built, workdir: str) -> List[str]:
    """Replay the run's journal; every event must re-emit bit for bit."""
    from repro.flsim.replay import replay_run

    replay_journal = os.path.join(workdir, "replay", os.path.basename(built.journal_path))
    try:
        report = replay_run(built.journal_path, lambda: built.rebuild(replay_journal))
    except Exception as error:
        return [f"journal replay failed: {type(error).__name__}: {error}"]
    if report.rounds != built.rounds or report.events_verified < built.rounds:
        return [f"journal replay covered {report.rounds} rounds / "
                f"{report.events_verified} events, expected {built.rounds} rounds"]
    return []


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_repeats(records: List[RunRecord]) -> List[str]:
    """Repeated runs of one seed must end bit-identical (the determinism contract)."""
    problems = []
    digests = {r.digest for r in records if r.digest}
    if len(digests) > 1:
        problems.append(f"final-weight digests differ across {len(records)} runs")
    clocks = {r.sim_time_s for r in records if r.digest}
    if len(clocks) > 1:
        problems.append("simulated clock differs across runs")
    return problems


def time_setups(name: str, seed: int, workdir: str, repeats: int) -> List[float]:
    """Wall time of constructing the task and experiment, ``repeats`` times."""
    from workloads import WORKLOADS

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        built = WORKLOADS[name](seed, workdir)
        times.append(time.perf_counter() - t0)
        built.experiment.close()
    return times


def end_to_end(records: List[RunRecord], setups: List[float], setups_calib_s: float) -> Dict[str, dict]:
    """Every end-to-end metric with its unit, sample count and raw median.

    Timings are adjusted to the reference host speed with the calibration
    points around the run they come from, and ``raw`` keeps their
    wall-clock median; peak memory is reported as measured.
    """
    ok = [r for r in records if r.digest]

    def samples(adjust) -> Dict[str, List[float]]:
        return {
            "setup_s": [adjust(r.setup_s, r.calib_s) for r in records]
            + [adjust(s, setups_calib_s) for s in setups],
            "round_s.p50": [adjust(hi - lo, r.calib_s) for r in ok for lo, hi in r.windows],
            "run_s": [adjust(r.run_s, r.calib_s) for r in ok],
            "train_samples_per_s": [r.train_samples / adjust(r.run_s, r.calib_s) for r in ok],
            "final_eval_s": [adjust(r.final_eval_s, r.calib_s) for r in ok],
            "eval_samples_per_s": [r.eval_samples / adjust(r.final_eval_s, r.calib_s) for r in ok],
            "peak_rss_mb": [peak_rss_mb()],
        }

    adjusted = samples(lambda s, calib_s: measure.host_adjusted(s, calib_s, REFERENCE_S))
    wall = samples(lambda s, calib_s: s)
    out = {
        name: {"value": measure.median(values), "unit": END_TO_END[name], "n": len(values),
               "raw": measure.median(wall[name])}
        for name, values in adjusted.items()
    }
    rounds = adjusted["round_s.p50"]
    out["round_s.p50"]["tail"] = {
        k: v for k, v in measure.summarize(rounds).items() if k not in ("p50", "n")
    }
    return out


def measure_workload(name: str, seed: int, seconds: float, out_dir: str) -> dict:
    """Untraced repeated runs until the time budget is spent."""
    workdir = os.path.join(out_dir, "work", name)
    records: List[RunRecord] = []
    start = time.perf_counter()
    calib_before = calibrate()
    while True:
        t0 = time.perf_counter()
        records.append(run_once(name, seed, workdir, replay=not records))
        calib_after = calibrate()
        records[-1].calib_s = (calib_before + calib_after) / 2
        calib_before = calib_after
        per_run = time.perf_counter() - t0
        if records[-1].problems or records[-1].failed:
            break
        spent = time.perf_counter() - start
        if len(records) >= MIN_RUNS and spent + per_run > seconds:
            break
    setups = time_setups(name, seed, workdir, SETUP_REPEATS)
    setups_calib_s = (calib_before + calibrate()) / 2
    shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for r in records for p in r.problems] + check_repeats(records)
    metrics = end_to_end(records, setups, setups_calib_s) if any(r.digest for r in records) else {}
    return {"records": records, "metrics": metrics, "problems": problems}


def trace_workload(name: str, seed: int, seconds: float, out_dir: str) -> dict:
    """Alternate untraced and traced runs; per-layer metrics from the traced ones."""
    from layers import LayerProbe, metric_units, surprises, zero_count_violations
    from spans import Tracer

    workdir = os.path.join(out_dir, "work", name)
    plain: List[RunRecord] = []
    traced: List[RunRecord] = []
    first_tracer = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_once(name, seed, workdir, replay=not plain))
        tracer = Tracer()
        probe = LayerProbe(tracer)
        probe.install()
        try:
            traced.append(run_once(name, seed, workdir, probe=probe))
        finally:
            tracer.uninstall()
        if first_tracer is None:
            first_tracer = tracer
        per_pair = time.perf_counter() - t0
        if plain[-1].problems or traced[-1].problems or traced[-1].failed:
            break
        if time.perf_counter() - start + per_pair > seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)
    records = plain + traced
    problems = [p for r in records for p in r.problems] + check_repeats(records)
    units = metric_units()
    metrics: Dict[str, dict] = {}
    done = [r for r in traced if r.layers is not None]
    if done:
        for key, unit in units.items():
            if key.startswith("trace.overhead"):
                continue
            metrics[key] = {"value": measure.median([r.layers[key] for r in done]), "unit": unit}
        untraced_s = measure.median([r.run_s for r in plain if r.digest])
        overhead = measure.median([r.run_s for r in done]) - untraced_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": overhead / untraced_s, "unit": "ratio"}
        calls = {k[: -len(".calls")]: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
        calls.update({k: v["value"] for k, v in metrics.items() if ".peak_alloc_mb." in k})
        missing = zero_count_violations(name, calls)
        if missing:
            problems.append("zero-count guard: no calls recorded for " + ", ".join(missing))
        unexpected = surprises(name, calls)
        trace_path = os.path.join(out_dir, f"trace-{name}.json")
        rounds = [
            {"ph": "X", "name": "round", "cat": "round", "pid": 1, "tid": 2,
             "ts": lo, "dur": hi - lo}
            for lo, hi in done[0].windows
        ]
        first_tracer.chrome_trace(trace_path, f"fatbench {name} seed {seed}", rounds)
    else:
        unexpected, trace_path = [], None
    return {"records": records, "metrics": metrics, "problems": problems,
            "surprises": unexpected, "trace_path": trace_path}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_single(name: str, seed: int, result: dict, facts: dict) -> dict:
    """Print the human-readable report and return the final JSON object."""
    from hostinfo import describe

    records: List[RunRecord] = result["records"]
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    print(describe(facts))
    traced = sum(1 for r in records if r.layers is not None)
    print(f"workload {name} seed {seed}: {len(records) - traced} untraced and {traced} traced runs")
    for key, entry in result["metrics"].items():
        line = f"  {key:<48} {_fmt(entry['value']):>12} {entry['unit']}"
        if "n" in entry:
            line += f"  n={entry['n']}"
        if "raw" in entry and entry["unit"] != "MB":
            line += f"  wall={_fmt(entry['raw'])}"
        for tail_key, tail_value in entry.get("tail", {}).items():
            line += f"  {tail_key}={_fmt(tail_value)}"
        print(line)
    print(f"  {'ops_failed_ratio':<48} {_fmt(measure.ops_failed_ratio(attempted, failed)):>12}"
          f" ratio  n={attempted}")
    if not traced and records:
        calib = measure.median([r.calib_s for r in records])
        print(f"  {'calibration kernel (median)':<48} {_fmt(calib):>12} s"
              f"  reference={_fmt(REFERENCE_S)}  host speed={_fmt(REFERENCE_S / calib)}")
    if records and records[0].digest:
        print(f"  {'sim_time_s (deterministic per seed)':<48} {_fmt(records[0].sim_time_s):>12} s")
    if result.get("trace_path"):
        print(f"  chrome trace: {result['trace_path']}")
    for surprise in result.get("surprises", []):
        print(f"  note: {surprise} was predicted absent on {name} but recorded calls")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if not result["problems"]:
        digest = records[0].digest[:16] if records else "-"
        print(f"  checks passed: {len(records)} runs bit-identical (digest {digest}), "
              f"history complete, weights finite")
    return {
        "correct": not result["problems"] and bool(result["metrics"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()},
    }


def write_layer_table(path: str, per_workload: Dict[str, Dict[str, dict]]) -> None:
    """Self time per layer x workload, plus the share no span covers."""
    from layers import SPAN_NAMES

    names = list(per_workload)
    width = max(len(n) for n in SPAN_NAMES) + 2
    lines = ["self time per run (s); calls in brackets", " " * width + "".join(f"{n:>26}" for n in names)]
    for layer in SPAN_NAMES:
        cells = []
        for w in names:
            m = per_workload[w]
            calls = m.get(f"{layer}.calls", {}).get("value", 0)
            cells.append(f"{m.get(f'{layer}.self_s', {}).get('value', 0.0):>14.4f} [{calls:>8.0f}]")
        lines.append(f"{layer:<{width}}" + "".join(f"{c:>26}" for c in cells))
    for key in ("trace.uncovered_share", "trace.overhead_s", "trace.overhead_frac"):
        lines.append(f"{key:<{width}}" + "".join(
            f"{per_workload[w].get(key, {}).get('value', float('nan')):>26.4f}" for w in names))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def run_single(args) -> int:
    from hostinfo import host_facts, host_key

    facts = host_facts()
    os.makedirs(args.out, exist_ok=True)
    if args.trace:
        result = trace_workload(args.workload, args.seed, args.seconds, args.out)
    else:
        result = measure_workload(args.workload, args.seed, args.seconds, args.out)
    final = report_single(args.workload, args.seed, result, facts)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": facts, "host_key": host_key(facts),
        "metrics": result["metrics"], "problems": result["problems"],
        "runs": len(result["records"]), "correct": final["correct"],
        "attempted": final["attempted"], "failed": final["failed"],
    }
    kind = "layers" if args.trace else "result"
    with open(os.path.join(args.out, f"{kind}-{args.workload}.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    if args.trace and result["metrics"]:
        write_layer_table(os.path.join(args.out, f"layers-{args.workload}.txt"),
                          {args.workload: result["metrics"]})
    print(json.dumps(final))
    return 0


def run_all(args) -> int:
    """Every workload, each in a child process; a combined report at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    layer_metrics: Dict[str, Dict[str, dict]] = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            final = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {proc.returncode})")
            summary["correct"] = False
            continue
        summary["correct"] &= bool(final["correct"]) and proc.returncode == 0
        summary["attempted"] += final["attempted"]
        summary["failed"] += final["failed"]
        for key, entry in final["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = entry
        layer_metrics[name] = final["metrics"]
    if args.trace and layer_metrics:
        table = os.path.join(args.out, "layers.txt")
        write_layer_table(table, layer_metrics)
        print(f"per-layer table: {table}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".fatbench"))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    from workloads import SEED_SPACE

    args.seed %= SEED_SPACE
    sys.path.insert(1, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())

"""ppsrelax benchmark: three long workloads driven through ``ppsrelax.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. A run generates the workload's JSON config from the
seed, times the set-up in several fresh processes, then runs the
workload's command in a closed loop (one client, the next call starts
when the previous one returns) in its own single-threaded process, with
BLAS/OpenMP threads pinned to 1. Every distinct output is checked against
an independent numpy reference (``gate.py``).

On a shared host, other tenants' load changes how fast the same work
runs, by up to 2x over minutes on a 2-vCPU Xeon virtual machine. A fixed
reference kernel (``reference.py``, in a probe process) is therefore
timed before and after every call, and each call's wall time is scaled
to the kernel's nominal speed: ``corrected = wall * REFERENCE_S / ref``,
with ``ref`` the mean of the two bracketing runs. The set-up probes are
bracketed the same way. ``setup_s``, ``run_s`` and ``items_per_s`` are
taken from the corrected times; the uncorrected wall figures are printed
and recorded beside them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` splits the
time between an untraced and a traced process and prints the per-layer
metrics: counts and busy time are per command call, taken from spans the
tracer records around the package's layer functions. ``--workload all``
runs every workload both ways and prints every metric by name with its
unit, its sample count and, for each layer, busy time as a share of the
traced run_s. The last line of a single-workload run is one JSON object
with the keys correct, attempted, failed and metrics.

Run records, and the spans of the last traced run of each workload, are
written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
from reference import REFERENCE_S, SpeedProbe
from workloads import WORKLOADS, items_per_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Timed set-up probes per run (after one untimed warm-up that compiles
#: the bytecode cache), each in a fresh process and each bracketed by two
#: runs of the reference kernel.
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
PINNED_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> (span name, summary key); counts and busy time are
#: divided by the number of command calls in the traced run.
LAYERS = {
    f"{span}.{key}": (span, key)
    for span, keys in (
        ("relaxation.evolve_exact", ("calls", "busy_s")),
        ("analysis.decompose", ("calls", "busy_s")),
        ("relaxation.build_matrix", ("calls", "busy_s")),
        ("relaxation.initial_rate", ("calls", "busy_s")),
        (
            "spectra.fit_doublet",
            ("calls", "busy_s", "p50_us", "p99_us", "lm_iterations", "not_converged",
             "low_confidence"),
        ),
        ("spectra.synthesize", ("calls", "busy_s")),
        ("spectra.add_noise", ("calls", "busy_s")),
        ("spectra.coefficients_from_fits", ("calls", "busy_s", "failed")),
        ("scenario.load_scenario", ("busy_s",)),
    )
    for key in keys
}
PERCENTILES = ("p50_us", "p99_us")

#: every per-layer metric -> unit
PER_LAYER = {
    name: {"busy_s": "s", "p50_us": "us", "p99_us": "us"}.get(key, "count")
    for name, (_span, key) in LAYERS.items()
} | {
    "scenario.self_s": "s",
    "scenario.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env.update({name: str(PINNED_THREADS) for name in THREAD_VARS})
    return env


def _run_child(command: str, config: Path, work: Path, tag: str, *, seconds=0.0,
               trace=0, setup_only=False) -> dict:
    out = work / tag
    result = work / f"{tag}.json"
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--command", command, "--config", str(config), "--out", str(out),
        "--result", str(result), "--seconds", repr(seconds), "--trace", str(trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(
        argv, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(
            f"workload process {tag} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    doc = json.loads(result.read_text())
    if not Path(doc["package"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported ppsrelax from {doc['package']}, not from {SRC}")
    return doc


def corrected_s(call: dict) -> float:
    """A call's wall seconds at the reference kernel's nominal speed."""
    return call["seconds"] * REFERENCE_S / call["reference_s"]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return proc.stdout.strip() or "unknown"


def environment(seed: int, numpy_version: str) -> dict:
    """Run record: interpreter, numpy, cores, pinned threads, commit, seed."""
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_threads": PINNED_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
        "machine": f"{platform.machine()} {platform.system()} {platform.release()}, "
        f"{os.cpu_count()} logical CPUs",
    }


def _tally(command, doc, children, verdicts) -> tuple[int, int, list[str]]:
    """(attempted items, failed items, problems) over every call of the children."""
    items = items_per_call(command, doc)
    attempted = failed = 0
    problems = []
    for child in children:
        for call in child["calls"]:
            attempted += items
            if call["code"] != 0 or call["digest"] is None:
                failed += items
                problems.append(f"call exited with {call['code']}: {call['error'] or ''}".strip())
            else:
                failed += verdicts[call["digest"]].failed_items
    problems += [f"output check: {v.message}" for v in verdicts.values() if not v.ok]
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload and return its record (metrics, counts, environment)."""
    command, make_config = WORKLOADS[workload]
    doc = make_config(seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=OUT))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(doc))
        _run_child(command, config, work, "warmup", setup_only=True)
        setup_calls = []
        with SpeedProbe(_child_env()) as probe:
            before = probe.measure()
            for i in range(SETUP_PROBES):
                setup = _run_child(command, config, work, f"setup{i}", setup_only=True)
                after = probe.measure()
                setup_calls.append(
                    {"seconds": setup["setup_s"], "reference_s": (before + after) / 2}
                )
                before = after
        setups = [corrected_s(call) for call in setup_calls]
        if trace:
            children = [
                _run_child(command, config, work, "untraced", seconds=seconds / 2),
                _run_child(command, config, work, "traced", seconds=seconds / 2, trace=1),
            ]
        else:
            children = [_run_child(command, config, work, "untraced", seconds=seconds)]

        verdicts, sizes = {}, {}
        for child in children:
            for digest, path in child["kept"].items():
                if digest not in verdicts:
                    verdicts[digest] = gate.check(command, doc, path)
                    sizes[digest] = Path(path).stat().st_size
        attempted, failed, problems = _tally(command, doc, children, verdicts)

        untraced = children[0]
        times = [corrected_s(call) for call in untraced["calls"]]
        wall = [call["seconds"] for call in untraced["calls"]]
        run_s = statistics.median(times)
        untraced_items, untraced_failed, _ = _tally(command, doc, [untraced], verdicts)
        done = untraced_items - untraced_failed
        record = {
            "workload": workload,
            "command": command,
            "trace": trace,
            "environment": environment(seed, untraced["numpy"]),
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:10],
            "samples": {
                "setup_s": len(setups),
                "run_s": len(times),
                "items_per_s": f"{len(times)} calls over {sum(times):.3f} corrected s",
            },
            "calls_s": times,
            "wall_calls_s": wall,
            "reference_s": [call["reference_s"] for call in untraced["calls"]],
            "end_to_end": {
                "setup_s": statistics.median(setups),
                "run_s": run_s,
                "items_per_s": done / sum(times),
                "peak_rss_mb": untraced["peak_rss_mb"],
            },
            "wall": {
                "setup_s": statistics.median(call["seconds"] for call in setup_calls),
                "run_s": statistics.median(wall),
                "items_per_s": done / sum(wall),
            },
        }
        if trace:
            traced = children[1]
            record["per_layer"] = _layer_metrics(traced, run_s, sizes)
            record["traced_calls_s"] = [corrected_s(call) for call in traced["calls"]]
            record["wrappers"] = {
                "installed": traced["trace"]["installed"],
                "absent": traced["trace"]["absent"],
            }
            record["root_s_per_call"] = traced["trace"]["root_s"] / traced["trace"]["roots"]
            record["children_s_per_call"] = (
                traced["trace"]["children_s"] / traced["trace"]["roots"]
            )
            shutil.copyfile(work / "traced" / "spans.npz", OUT / f"spans-{workload}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / f"record-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record


def _layer_metrics(traced: dict, untraced_run_s: float, sizes: dict) -> dict:
    summary = traced["trace"]
    calls = summary["roots"]
    metrics = {}
    for name, (span, key) in LAYERS.items():
        value = summary["layers"].get(span, {}).get(key, 0)
        metrics[name] = value if key in PERCENTILES else value / calls
    metrics["scenario.self_s"] = summary["self_s"] / calls
    metrics["scenario.csv_bytes"] = statistics.median(sizes.values()) if sizes else 0
    traced_run_s = statistics.median(corrected_s(call) for call in traced["calls"])
    metrics["trace.overhead_s"] = traced_run_s - untraced_run_s
    return metrics


def result_line(record: dict) -> dict:
    """The JSON result object: end-to-end metrics untraced, per-layer traced."""
    if record["trace"]:
        units, values = PER_LAYER, record["per_layer"]
    else:
        units, values = END_TO_END, record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def print_report(record: dict) -> None:
    """Every metric of the record by name, with unit and sample count."""
    env = record["environment"]
    print(f"== {record['workload']} ({record['command']}), seed {env['seed']}, "
          f"trace {record['trace']} ==")
    print("record: " + json.dumps(env, sort_keys=True))
    e2e, samples = record["end_to_end"], record["samples"]
    share = record["failed"] / record["attempted"]
    print(f"  {'setup_s':28} {e2e['setup_s']:12.6g} s      "
          f"median of {samples['setup_s']} processes")
    print(f"  {'run_s':28} {e2e['run_s']:12.6g} s      median of {samples['run_s']} calls")
    print(f"  {'items_per_s':28} {e2e['items_per_s']:12.6g} 1/s    {samples['items_per_s']}")
    print(f"  {'peak_rss_mb':28} {e2e['peak_rss_mb']:12.6g} MB     1 process")
    print(f"  {'wall setup_s':28} {record['wall']['setup_s']:12.6g} s      uncorrected")
    print(f"  {'wall run_s':28} {record['wall']['run_s']:12.6g} s      uncorrected")
    print(f"  {'wall items_per_s':28} {record['wall']['items_per_s']:12.6g} 1/s    uncorrected")
    print(f"  {'reference_s':28} {statistics.median(record['reference_s']):12.6g} s      "
          f"median of {len(record['reference_s'])} calls; nominal {REFERENCE_S} s")
    print(f"  {'failed_share':28} {share:12.6g} ratio  "
          f"{record['failed']} of {record['attempted']} items")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    if not record["trace"]:
        return
    root = record["root_s_per_call"]
    print(f"  traced run_s {statistics.median(record['traced_calls_s']):.6g} s, median of "
          f"{len(record['traced_calls_s'])} calls; busy shares are of the traced call time")
    print(f"  wrappers installed: {', '.join(record['wrappers']['installed'])}")
    if record["wrappers"]["absent"]:
        print(f"  wrappers absent: {', '.join(record['wrappers']['absent'])}")
    for name, unit in PER_LAYER.items():
        value = record["per_layer"][name]
        note = ""
        if unit == "s" and not name.startswith("trace."):
            note = f"{100.0 * value / root:6.1f} % of run_s"
        print(f"  {name:38} {value:12.6g} {unit:6} {note}")
    children, self_s = record["children_s_per_call"], record["per_layer"]["scenario.self_s"]
    print(f"  accounted: wrapped children {children:.6g} s + scenario.self_s {self_s:.6g} s"
          f" = {children + self_s:.6g} s of {root:.6g} s per root span")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ppsrelax benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not (SRC / "ppsrelax" / "cli.py").is_file():
        print(f"perfbench: no ppsrelax sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        try:
            record = measure(args.workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
            return 1
        print_report(record)
        print(json.dumps(result_line(record)))
        return 0

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                print_report(measure(workload, args.seed, args.seconds, trace))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"== {workload}, trace {trace}: FAILED: {exc}")
                status = 1
            print()
    return status


if __name__ == "__main__":
    sys.exit(main())

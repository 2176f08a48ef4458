"""One workload process of the ppsrelax benchmark.

Times the set-up (importing ppsrelax and loading the config), then calls
``ppsrelax.cli.main`` in a closed loop, one call after the other, until
``--seconds`` have passed. Each call's output CSV is hashed; the first
file of each distinct digest is kept for the correctness gate, which the
parent process runs. The reference kernel runs, in a probe process of its
own, before the first call and after every call, so that each call is
bracketed by two measures of how fast the shared host runs at that
moment. With ``--trace 1`` the layer functions are wrapped by the tracer
first. The result goes to ``--result`` as JSON.

    python3 perfbench/child.py --command simulate --config cfg.json \
        --out DIR --result result.json [--seconds 10] [--trace 0|1] [--setup-only]

ppsrelax must be importable (the parent puts the checkout's ``src`` on
PYTHONPATH and pins BLAS/OpenMP threads to 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import time
import traceback
from pathlib import Path

from reference import SpeedProbe


def _setup(command: str, config: str):
    """Import the package and load the config; returns (cli, seconds)."""
    start = time.perf_counter()
    from ppsrelax import cli, scenario

    load = scenario.load_sweep if command == "sweep" else scenario.load_scenario
    load(config)
    return cli, time.perf_counter() - start


def _observe_fit(counts: dict, result, exc) -> None:
    """LM iterations and flags of a doublet fit, from the returned fit or
    from the best attempt a NotConverged carries."""
    fit = result if exc is None else getattr(exc, "fit", None)
    if exc is not None and type(exc).__name__ == "NotConverged":
        counts["not_converged"] = counts.get("not_converged", 0) + 1
    if fit is not None:
        counts["lm_iterations"] = counts.get("lm_iterations", 0) + fit.iterations
        counts["low_confidence"] = counts.get("low_confidence", 0) + bool(
            fit.low_confidence
        )


def trace_targets():
    """(module, attribute, span name, observer) for every traced layer call.

    ``scenario`` imports the relaxation functions by name, so they are
    replaced on ``scenario``; the others are looked up on their module at
    each call. Config loading goes through ``load_sweep`` for sweep
    configs; both loaders count as ``scenario.load_scenario``.
    """
    from ppsrelax import analysis, scenario, spectra

    return [
        (scenario, "load_scenario", "scenario.load_scenario", None),
        (scenario, "load_sweep", "scenario.load_scenario", None),
        (scenario, "build_matrix", "relaxation.build_matrix", None),
        (scenario, "evolve_exact", "relaxation.evolve_exact", None),
        (scenario, "initial_rate", "relaxation.initial_rate", None),
        (analysis, "decompose", "analysis.decompose", None),
        (spectra, "synthesize", "spectra.synthesize", None),
        (spectra, "add_noise", "spectra.add_noise", None),
        (spectra, "fit_doublet", "spectra.fit_doublet", _observe_fit),
        (spectra, "coefficients_from_fits", "spectra.coefficients_from_fits", None),
    ]


def _peak_rss_mb() -> float:
    """High-water resident memory of this process.

    Read from VmHWM, which starts afresh at exec; ``ru_maxrss`` would
    also carry the peak of the parent process that spawned this one.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_loop(main, command: str, config: str, out: Path, seconds: float,
             probe: SpeedProbe) -> tuple[list, dict]:
    """Closed loop of command calls; returns (per-call records, kept files).

    Each record carries the call's wall seconds and ``reference_s``, the
    mean of the reference kernel's times just before and just after it.
    """
    calls, kept = [], {}
    start = time.perf_counter()
    before = probe.measure()
    while not calls or time.perf_counter() - start < seconds:
        out_dir = out / f"call{len(calls)}"
        argv = [command, "--config", config, "--out", str(out_dir), "--quiet"]
        error = None
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed call; the loop goes on
            code, error = None, traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - t0
        csv = out_dir / f"{command}.csv"
        digest = _digest(csv) if code == 0 and csv.is_file() else None
        if digest is not None and digest not in kept:
            kept[digest] = str(csv)
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
        after = probe.measure()
        calls.append({
            "seconds": elapsed, "reference_s": (before + after) / 2,
            "code": code, "digest": digest, "error": error,
        })
        before = after
    return calls, kept


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", required=True, choices=("simulate", "sweep", "pipeline"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli, setup_s = _setup(args.command, args.config)
    import numpy
    import ppsrelax

    result = {
        "setup_s": setup_s,
        "package": ppsrelax.__file__,
        "numpy": numpy.__version__,
    }
    if not args.setup_only:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        main_fn = cli.main
        tracer = None
        if args.trace:
            from tracer import ROOT, Tracer

            tracer = Tracer()
            tracer.install(trace_targets())
            main_fn = tracer.wrap(cli.main, ROOT)
        with SpeedProbe() as probe:
            calls, kept = run_loop(main_fn, args.command, args.config, out, args.seconds, probe)
        result["peak_rss_mb"] = _peak_rss_mb()
        result["calls"] = calls
        result["kept"] = kept
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["trace"]["installed"] = tracer.installed
            result["trace"]["absent"] = tracer.absent
            tracer.save(out / "spans.npz")
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()

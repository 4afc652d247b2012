"""perfbench: one benchmark for the tree-to-result path.

Run from the repository root::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace {0,1}

with WORKLOAD one of ``embed``, ``simulate.bsp``, ``simulate.congested``,
``simulate.pipelined``, ``simulate.faulted`` and ``service``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` measures the first
half of the window untraced and the second half traced, reports every
per-layer metric (0 for a layer the workload does not run), and writes
the spans as speedscope profiles under ``.perfbench/``.  Diagnostics go
to standard error.  See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: workload -> (module, part of the module's workload)
WORKLOADS = {
    "embed": ("embed_workload", None),
    **{f"simulate.{part}": ("simulate_workload", part)
       for part in ("bsp", "congested", "pipelined", "faulted")},
    "service": ("service_workload", None),
}
#: set-up runs per measured run: this process plus fresh interpreters, so
#: every sample includes importing the library
SETUP_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="smallest sizes (the benchmark's own tests)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def manifest() -> dict:
    """``BENCHMARK.json``: the metric names and units every run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def complete(metrics: dict, wanted: list[dict], fill_zero: bool) -> dict:
    """``metrics`` in the manifest's order and units.  A per-layer metric of
    a layer the workload does not run reads 0; any other missing or unknown
    name, or a unit that differs from the manifest's, is a bug."""
    units = {m["name"]: m["unit"] for m in wanted}
    unknown = sorted(set(metrics) - set(units))
    wrong = sorted(n for n, (_, unit) in metrics.items() if units.get(n, unit) != unit)
    missing = sorted(set(units) - set(metrics)) if not fill_zero else []
    if unknown or wrong or missing:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: unknown {unknown}, "
                           f"wrong unit {wrong}, missing {missing}")
    return {name: metrics.get(name, (0, unit)) for name, unit in units.items()}


def load_workload(name: str):
    """Import the library from this checkout, then the workload module."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import importlib

    module = importlib.import_module(WORKLOADS[name][0])
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return module


def setup_in_child(args) -> dict:
    """One set-up in a fresh interpreter; returns its JSON report."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--small"] if args.small else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_block(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def measure(wl, state, args, ledger, setups: list[dict]) -> dict:
    """The measured window: end-to-end metrics, or per-layer ones when traced.
    Timings are scaled to the reference machine (``harness.Calibration``)."""
    from harness import Calibration, Tracer, Unscaled

    tracer = Tracer()
    if not args.trace:
        cal = Calibration()
        window = wl.measure(state, args.seconds, ledger, tracer, cal)
        setup_s = statistics.median(s["setup_s"] for s in setups)
        print(f"perfbench: this machine ran {cal.slowdown():.3f}x the reference's time "
              f"({len(cal.samples)} samples); unscaled "
              f"{wl.end_to_end(state, window, Unscaled())}, setup_s {setup_s}", file=sys.stderr)
        metrics = wl.end_to_end(state, window, cal)
        # the set-ups ran just before the window, whose reading of the
        # machine scales them too
        metrics["setup_s"] = (setup_s / cal.slowdown(), "s")
        return metrics
    cal_untraced, cal = Calibration(), Calibration()
    untraced = wl.measure(state, args.seconds / 2, ledger, tracer, cal_untraced)
    tracer.enabled = True
    window = wl.measure(state, args.seconds / 2, ledger, tracer, cal)
    metrics = wl.per_layer(state, window, tracer, ledger, [s["info"] for s in setups], cal)
    metrics["obs.tracing_overhead_pct"] = (
        (wl.primary(untraced, cal_untraced) / wl.primary(window, cal) - 1.0) * 100.0, "%")
    ledger.check(tracer.ring_filled == 0,
                 f"{tracer.ring_filled} calls filled the repro.obs span ring")
    stem = f"{args.workload}-seed{args.seed}"
    layers = OUT / f"{stem}.spans.json"
    layers.write_text(json.dumps(tracer.by_name(), indent=1, sort_keys=True))
    for path in [layers, *tracer.write_speedscope(OUT / f"{stem}.json")]:
        print(f"perfbench: wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = load_workload(args.workload)
    from harness import Ledger, vm_hwm_mib

    part = WORKLOADS[args.workload][1]
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    state = None
    try:
        state = wl.setup(args.seed, args.small, workdir, ROOT, **({"part": part} if part else {}))
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "info": state.info}))
            return 0
        ledger = Ledger()
        setups = [{"setup_s": setup_s, "info": state.info}]
        for _ in range(SETUP_SAMPLES - 1):
            try:
                setups.append(setup_in_child(args))
            except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
                ledger.record(False, f"set-up: {exc}")
        metrics = measure(wl, state, args, ledger, setups)
        wl.finish(state, ledger)
    finally:
        children_mib = wl.teardown(state) if state is not None else 0.0
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics["peak_rss_mb"] = (vm_hwm_mib() + children_mib, "MiB")
    spec = manifest()
    metrics = complete(metrics, spec["per_layer" if args.trace else "end_to_end"],
                       fill_zero=bool(args.trace))
    for reason in ledger.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metric_block(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

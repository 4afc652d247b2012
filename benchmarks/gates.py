"""The gate runner: every case of the ten gate modules, checked against one
committed anchor record.

Each gate module (``bench_oracle`` ... ``bench_universal``) turns a paper
constant or a system contract into results, and its ``run(smoke)`` lists
its cases.  This script runs every case, checks every gate, and compares
every value outside a result's ``timing`` dict for equality with
``benchmarks/anchors.json``.  It exits 1 naming each failure: a gated
result that did not pass, a case that raised, or an anchored value that
is missing, extra or different.  Run::

    python benchmarks/gates.py [--full] [--out PATH] [--write-anchors]

The default is the smoke sizes, which CI runs; ``--full`` runs the sizes
EXPERIMENTS.md reports.  ``--out`` names the combined record of results
and timings (default ``gates_fresh.json`` at the repo root), and
bench_obs's sample JSONL trace is written beside it.  ``--write-anchors``
replaces the section of ``anchors.json`` for the size run with this
run's values.  It is the only way to change the record: a refresh is
deliberate, and CHANGES.md logs it as old -> new.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import bench_byzantine
import bench_faults
import bench_obs
import bench_oracle
import bench_policy
import bench_router
import bench_runtime
import bench_service
import bench_universal
import bench_vector

ANCHORS = Path(__file__).resolve().parent / "anchors.json"

BENCHES = {
    "oracle": bench_oracle,
    "obs": bench_obs,
    "router": bench_router,
    "faults": bench_faults,
    "vector": bench_vector,
    "runtime": bench_runtime,
    "service": bench_service,
    "policy": bench_policy,
    "byzantine": bench_byzantine,
    "universal": bench_universal,
}

#: values outside ``timing`` that the machine decides, reported and never
#: anchored: the verdict of a gate on a timing, and which worker process
#: ran what
UNANCHORED = {
    "theorem1_dilation_check": {"passed"},
    "all_pairs_distances_xtree": {"passed"},
    "vector_speedup": {"passed"},
    "single_job_runtime_overhead": {"passed"},
    "concurrent_load_bit_identity": {"jobs_per_shard", "shards_used"},
    "killed_worker_recovery": {"killed_shard", "resumed_shard", "migrated"},
}

#: keys a printed result line leaves out: its identity and its verdict
_NOT_PRINTED = {"bench", "name", "params", "timing", "gate", "gated", "passed"}


def anchor_key(result: dict) -> str:
    """``bench/name params``: one result's entry in the record."""
    params = json.dumps(result.get("params", {}), sort_keys=True, separators=(",", ":"))
    return f"{result['bench']}/{result['name']} {params}"


def anchored(result: dict) -> dict:
    """The values of ``result`` the record fixes."""
    skip = {"bench", "name", "params", "timing", *UNANCHORED.get(result["name"], ())}
    return {k: v for k, v in result.items() if k not in skip}


def _line(result: dict) -> str:
    if result["gated"]:
        status = "pass" if result["passed"] else "FAIL"
    else:
        status = "info" if result["passed"] else "warn"
    values = ", ".join(f"{k}={v}" for k, v in result.items() if k not in _NOT_PRINTED)
    timing = ", ".join(f"{k}={v:.4g}" for k, v in result.get("timing", {}).items())
    return f"{status}  {anchor_key(result)}  {values}" + (f"  | {timing}" if timing else "")


def run_cases(benches: dict, smoke: bool) -> tuple[list[dict], list[str]]:
    """Run every case of every bench in order, printing one line per result.

    Returns the results, each tagged with its bench and in the JSON form
    the record stores, and one line per failed gate.  A case that raises
    is a failed gate; the run goes on with the next case.
    """
    results: list[dict] = []
    failures: list[str] = []
    for bench, module in benches.items():
        for case in module.run(smoke):
            try:
                out = case()
            except Exception as exc:
                traceback.print_exc()
                name = getattr(case, "func", case).__name__
                failures.append(f"{bench}/{name} raised {exc!r}")
                print(f"FAIL  {failures[-1]}")
                continue
            for result in out if isinstance(out, list) else [out]:
                result = json.loads(json.dumps({"bench": bench, **result}))
                results.append(result)
                print(_line(result), flush=True)
                if result["gated"] and not result["passed"]:
                    failures.append(
                        f"{anchor_key(result)} failed its gate {result.get('gate', '')}".rstrip()
                    )
    return results, failures


def compare(expected: dict, fresh: dict) -> list[str]:
    """One line per anchored value that is missing, extra or different."""
    lines = []
    for key in sorted(expected.keys() | fresh.keys()):
        if key not in fresh:
            lines.append(f"{key}: missing, anchored {json.dumps(expected[key])}")
        elif key not in expected:
            lines.append(f"{key}: not anchored, fresh {json.dumps(fresh[key])}")
        else:
            want, got = expected[key], fresh[key]
            for field in sorted(want.keys() | got.keys()):
                old, new = want.get(field, "<absent>"), got.get(field, "<absent>")
                if old != new:
                    lines.append(f"{key} {field}: anchored {old}, fresh {new}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--full", action="store_true",
                        help="the sizes EXPERIMENTS.md reports, not the smoke sizes")
    parser.add_argument("--out", type=Path, default=ANCHORS.parent.parent / "gates_fresh.json",
                        help="where to write the combined record of results and timings")
    parser.add_argument("--write-anchors", action="store_true",
                        help="replace this size's section of anchors.json with this run")
    args = parser.parse_args(argv)
    size = "full" if args.full else "smoke"
    results, failures = run_cases(BENCHES, smoke=not args.full)
    trace = args.out.with_name("trace_sample.jsonl")
    bench_obs.write_sample_trace(trace, smoke=not args.full)
    fresh = {anchor_key(result): anchored(result) for result in results}
    anchors = json.loads(ANCHORS.read_text())
    if args.write_anchors:
        anchors[size] = fresh
        ANCHORS.write_text(json.dumps(anchors, indent=1, sort_keys=True) + "\n")
        print(f"wrote the {size} section of {ANCHORS}")
    else:
        failures += compare(anchors[size], fresh)
    record = {"size": size, "python": sys.version.split()[0],
              "results": results, "failures": failures}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out} and {trace}")
    for line in failures:
        print(f"FAIL  {line}")
    print(f"{len(results)} results, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

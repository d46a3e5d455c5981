#!/usr/bin/env python3
"""One command for the indfree benchmark.

    python3 perfbench/run.py --workload witness-verify --seed 1 --seconds 25 --trace 0

Workloads (perfbench/README.md says why each was chosen):
  witness-verify  witness(G, n, m, verify=True) under a 0.5 s CPU limit each
  witness-build   parse_graph -> witness -> encode_graph6 -> decode_graph6
  exact-tables    a fresh interpreter enumerates every class on 1..8
                  vertices, then asks cli.main for feasible-pair tables

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 a traced pass follows the untraced ones, with every public
function of the package wrapped, and the last line holds the per-layer
numbers and the tracing overhead. Both are one JSON object with the keys
correct, attempted, failed and metrics. Times are scaled to the reference
host (speed.py); the line before the result gives them raw. Every output
is checked outside the timed regions; the exit code is 1 when a check
fails and 2 when the package source is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("witness-verify", "witness-build", "exact-tables")
SETUP_PROBES = 11
# networkx re-check: at most this many verified witnesses with n <= 12
NX_SAMPLE = 40
# a percentile that lands on a failed request reads as this, off the scale
FAILED_MS = 1e9

E2E_UNITS = {
    "req_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if ".canon_yield" in name:
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "tables"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile_ms(lat: list[float], q: float) -> float:
    """Percentile q, smoothed: the mean of the order statistics within 2% of
    the sample count around the nearest rank, so one request's noise near
    that rank moves it less. Failed requests (math.inf) rank last."""
    ordered = sorted(lat)
    k = max(0, math.ceil(q * len(ordered)) - 1)
    w = int(0.02 * len(ordered))
    window = ordered[max(0, k - w):k + w + 1]
    v = sum(window) / len(window)
    return FAILED_MS if math.isinf(v) else v * 1000.0


def summarize(dur, failed, scale=None, rate_of=None) -> dict:
    """One pass: request durations times their scales, failures ranked last.

    Without scales the durations are taken raw. rate_of, when given,
    selects the requests the rate and percentiles are taken over; pass
    time always covers every request.
    """
    if scale is not None:
        dur = [d * f for d, f in zip(dur, scale)]
    idx = range(len(dur)) if rate_of is None else rate_of
    lat = [math.inf if failed[i] else dur[i] for i in idx]
    ok = sum(1 for v in lat if not math.isinf(v))
    return {
        "wall": sum(dur),
        "ok": len(dur) - sum(failed),
        "attempted": len(dur),
        "rate": ok / sum(dur[i] for i in idx),
        "p50": percentile_ms(lat, 0.5),
        "p90": percentile_ms(lat, 0.9),
    }


def e2e_metrics(passes: list[dict], setup_s: float, rss_mb: float) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    ok = sum(p["ok"] for p in passes)
    return {
        "req_per_s": statistics.median(p["rate"] for p in passes),
        "p50_ms": statistics.median(p["p50"] for p in passes),
        "p90_ms": statistics.median(p["p90"] for p in passes),
        "pass_s": statistics.median(p["wall"] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ok_ratio": ok / attempted,
    }


def child_cmd(kind: str, args, trace: int = 0) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--child", kind, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", str(trace)]


def measure_setup(args) -> tuple[float, float]:
    """Median time of fresh interpreters that import indfree and build the inputs.

    Returns (scaled, raw).
    """
    import time
    from speed import Speed

    speed = Speed()
    spans = []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            speed.sample()
        t0 = time.perf_counter()
        subprocess.run(child_cmd("setup", args), check=True)
        spans.append((t0, time.perf_counter()))
    for _ in range(3):
        speed.sample()
    times = [b - a for a, b in spans]
    scaled = [(b - a) * speed.scale(a, b) for a, b in spans]
    return statistics.median(scaled), statistics.median(times)


class Run:
    """Scaled and raw summaries of a run's passes, plus its check results."""

    def __init__(self, golden):
        import checks
        self.problems = checks.self_test(golden)
        self.passes: list[dict] = []
        self.raw: list[dict] = []


# --- witness workloads ------------------------------------------------------

def witness_run(args, golden, traced: bool):
    import workloads as wl

    run = Run(golden)
    setup = measure_setup(args)
    requests = wl.make_inputs(args.workload, args.seed)
    one = wl.verify_pass if args.workload == "witness-verify" else wl.build_pass
    kept = {}

    def one_pass(i, tracer=None):
        rec = one(requests, i == 0, tracer)
        if rec["out"] is not None:
            kept["out"] = rec["out"]
        return (summarize(rec["dur"], rec["failed"], rec["scale"]),
                summarize(rec["dur"], rec["failed"]))

    for scaled, raw in wl.run_passes(one_pass, args.seconds):
        run.passes.append(scaled)
        run.raw.append(raw)
    rss = wl.peak_rss_mb()
    run.problems += witness_checks(args, golden, requests, kept["out"])
    result = e2e_metrics(run.passes, setup[0], rss), e2e_metrics(run.raw, setup[1], rss)
    if not traced:
        return run, result

    import tracer as tr
    t = tr.Tracer()
    tr.install(t)
    scaled, raw = one_pass(0, t)
    run.problems += witness_checks(args, golden, requests, kept["out"])
    layers = tr.layer_metrics(t, {})
    layers["trace.overhead_s"] = scaled["wall"] - result[0]["pass_s"]
    OUT.mkdir(exist_ok=True)
    t.write(OUT / f"trace-{args.workload}-seed{args.seed}.tsv")
    run.passes, run.raw = [scaled], [raw]
    return run, (layers, {"trace.overhead_s": raw["wall"] - result[1]["pass_s"]})


def witness_checks(args, golden, requests, outputs) -> list[str]:
    import indfree
    import checks
    import workloads as wl

    def build_only(reqs):
        return [indfree.witness(pattern, n, m) for _, pattern, n, m in reqs]

    problems = []
    built = build_only(requests)
    samples = []
    for (spec, pattern, n, m), cert, out in zip(requests, built, outputs):
        want = wl.PATTERNS[spec]
        if out is None:
            problems += checks.check_witness(spec, n, m, want, cert.graph, cert.construction.value)
            continue
        problems += checks.check_witness(spec, n, m, want, out[0], out[1])
        if out[0] != cert.graph:
            problems.append(f"{spec} ({n},{m}): witness differs between two calls")
        if args.workload == "witness-verify":
            if not out[2]:
                problems.append(f"{spec} ({n},{m}): certificate not marked verified")
            if n <= 12:
                samples.append((spec, pattern, out[0]))
        elif out[2] is not None:
            if out[2] != checks.ref_graph6(out[0]):
                problems.append(f"{spec} ({n},{m}): graph6 {out[2]!r} != reference encoding")
            if out[3] != out[0]:
                problems.append(f"{spec} ({n},{m}): decoding the graph6 text does not give the witness back")
        elif n <= 62:
            problems.append(f"{spec} ({n},{m}): graph6 refused an order it supports")

    def canary():
        return [c.graph for c in build_only(wl.make_inputs(args.workload, 0))]

    problems += checks.check_digest(args.workload, args.seed, [c.graph for c in built], golden, canary)
    if samples:
        rng = random.Random(f"nx/{args.seed}")
        problems += checks.nx_recheck(rng.sample(samples, min(NX_SAMPLE, len(samples)))) or []
    return problems


# --- exact-tables -----------------------------------------------------------

def tables_child(args) -> dict:
    import workloads as wl
    if not args.trace:
        return wl.run_tables_child(args.seed)
    import tracer as tr
    t = tr.Tracer()
    tr.install(t)
    result = wl.run_tables_child(args.seed, t)
    result["layers"] = tr.layer_metrics(t, result["classes"])
    OUT.mkdir(exist_ok=True)
    t.write(OUT / f"trace-{args.workload}-seed{args.seed}.tsv")
    return result


def run_child(args, traced: bool) -> dict:
    cmd = child_cmd("tables", args, int(traced))
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def child_summary(child: dict, scaled: bool) -> dict:
    """A fresh interpreter's two phases as one pass.

    The operations are the eight enumerations and the table requests; a
    table request fails when cli.main exits nonzero. The rate and the
    percentiles are those of the table requests alone.
    """
    dur, nclass = child["dur"], len(child["classes"])
    return summarize(dur, child["failed"], child["scale"] if scaled else None, range(nclass, len(dur)))


def tables_run(args, golden, traced: bool):
    import workloads as wl

    run = Run(golden)
    setup = measure_setup(args)
    rss = []

    def one_pass(i):
        child = run_child(args, traced=False)
        run.problems.extend(tables_checks(child, golden))
        rss.append(child["rss_mb"])
        return child_summary(child, True), child_summary(child, False)

    for scaled, raw in wl.run_passes(one_pass, args.seconds):
        run.passes.append(scaled)
        run.raw.append(raw)
    peak = statistics.median(rss)
    result = e2e_metrics(run.passes, setup[0], peak), e2e_metrics(run.raw, setup[1], peak)
    if not traced:
        return run, result

    child = run_child(args, traced=True)
    run.problems += tables_checks(child, golden)
    scaled, raw = child_summary(child, True), child_summary(child, False)
    layers = child["layers"]
    layers["trace.overhead_s"] = scaled["wall"] - result[0]["pass_s"]
    run.passes, run.raw = [scaled], [raw]
    return run, (layers, {"trace.overhead_s": raw["wall"] - result[1]["pass_s"]})


def tables_checks(child, golden) -> list[str]:
    import checks
    problems = checks.check_classes(child, golden)
    for entry in child["tables"]:
        problems += checks.check_table(entry, golden)
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "indfree" / "__init__.py").is_file():
        print(f"error: the indfree package is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.child == "setup":
        wl.make_inputs(args.workload, args.seed)
        return 0
    if args.child == "tables":
        print(json.dumps(tables_child(args)))
        return 0

    golden = json.loads((HERE / "golden.json").read_text())
    work = tables_run if args.workload == "exact-tables" else witness_run
    run, (metrics, raw) = work(args, golden, bool(args.trace))
    for line in run.problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = sum(p["attempted"] for p in run.passes)
    failed = attempted - sum(p["ok"] for p in run.passes)
    units = {k: layer_unit(k) for k in metrics} if args.trace else E2E_UNITS
    print("raw: " + json.dumps({
        "passes": len(run.passes),
        "speed_factor": [round(p["wall"] / r["wall"], 4) for p, r in zip(run.passes, run.raw)],
        "metrics": raw,
    }))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 1 if run.problems else 0


if __name__ == "__main__":
    sys.exit(main())

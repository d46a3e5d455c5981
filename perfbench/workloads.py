"""Seeded inputs and timed loops for the three benchmark workloads.

All three are single-process, single-client, closed loops: the next
request starts only after the previous one returned. The witness
workloads call the library directly; exact-tables goes through
``cli.main`` inside a fresh interpreter (see ``run_tables_child``).

The library is always reached through the ``indfree`` package and its
modules at call time (``indfree.witness``, never a name bound at import),
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import random
import resource
import signal
import time

import indfree
import indfree.cli
from speed import Speed

# Forbidden patterns for both witness workloads: 4- to 6-vertex graphs that
# are not blocked, with the construction the dispatcher must pick for each.
# Specs are the text a user types, so parse_graph sees catalog names, an
# edge list (the bull) and graph6 (K_{3,3}). H:4,0,1, H:4,1,1 and the three
# H:5,* patterns are the ones whose --verify runs past the latency limit at
# n = 64.
PATTERNS = {
    "claw": "UEP",
    "path:4": "UEP",
    "cycle:4": "UEP",
    "path:5": "UEP",
    "cycle:5": "UEP",
    "5;0-1,0-2,1-2,1-3,2-4": "UEP",
    "EFz_": "UEP",
    "paw": "K3K2",
    "H:4,2,1": "K3K2",
    "H:5,2,0": "K3K2",
    "H:5,3,1": "K3K2",
    "H:3,0,1": "UEP_COMPLEMENT",
    "H:4,0,1": "UEP_COMPLEMENT",
    "H:3,0,2": "UEP_COMPLEMENT",
    "H:4,1,1": "UEP_COMPLEMENT",
    "H:5,1,1": "UEP_COMPLEMENT",
    "H:3,1,1": "K3K2_COMPLEMENT",
    "H:3,1,2": "K3K2_COMPLEMENT",
    "H:3,1,3": "K3K2_COMPLEMENT",
}

# witness-verify: a fixed grid, n skewed toward desk scale but reaching 64,
# m at the middle of each half of [0, C(n,2)]; the seed sets the order.
# A verify's cost climbs smoothly with n and m, so seeded draws of m always
# put some request near any limit, and host noise (one request's time
# varies by up to 30% here) then flips it between runs of one seed. The
# grid leaves a gap instead: when the benchmark was added every request
# cost at most 0.35 s or at least 0.75 s (scaled), and the limit sits in
# the middle.
VERIFY_N = (4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 24, 64)
VERIFY_M_QUARTERS = (1, 3)
# Per-request limit, in scaled seconds (speed.py). A request is stopped at
# STOP_AT times the limit in process CPU time, so waiting for a core does
# not count, and it is a miss if it was stopped or its scaled time exceeds
# the limit: deciding on the scaled time, not on the host's speed when the
# request started, keeps the miss count exact through fast changes of speed.
LIMIT_S = 0.5
STOP_AT = 1.5

# witness-build: every n in 2..64 equally often, m uniform on [0, C(n,2)].
BUILD_N = range(2, 65)
BUILD_M_STRATA = 2

# exact-tables: families with wide infeasible regions (the first six),
# families whose tables are all feasible, and every other 4- and 5-vertex
# graph alone (as graph6), each at n = 6, 7, 8: 162 distinct tables, so
# the latency percentiles rest on enough calls. A spec with a semicolon is
# an edge list and goes through --edges.
SINGLETONS = (
    "C?", "CK", "C]", "C@", "CB", "CJ", "C^",
    "D??", "D@O", "DBW", "DFw", "D?C", "D@S", "D?K", "D_K", "DIk", "D?[",
    "DC[", "D?{", "DK{", "D]{", "D@K", "D`K", "Dbk", "D@[", "D`[", "D@{",
    "DL{", "DB[", "DR[", "Dr[", "DB{", "DF{", "DJ[", "DJ{", "D^{", "D~{",
)
FAMILIES = (
    ("cycle:4", "complete:4", "empty:4"),
    ("complete:3", "empty:3"),
    ("claw", "complete:3"),
    ("diamond", "empty:3"),
    ("H:3,1,1", "H:3,0,1"),
    ("H:4,0,1", "empty:4"),
    ("complete:4",),
    ("star:4", "complete:4"),
    ("matching:2", "cycle:4"),
    ("cycle:4", "claw"),
    ("claw",),
    ("paw",),
    ("path:4",),
    ("cycle:5",),
    ("path:5",),
    ("H:5,2,0",),
    ("5;0-1,0-2,1-2,1-3,2-4",),
) + tuple((g,) for g in SINGLETONS)
TABLE_N = (6, 7, 8)
CLASS_N = range(1, 9)


class LimitExceeded(BaseException):
    """Raised into a request by the CPU-time alarm; not an indfree error."""


def _on_alarm(signum, frame):
    raise LimitExceeded()


def _draw_m(rng: random.Random, n: int, stratum: int, strata: int) -> int:
    top = n * (n - 1) // 2 + 1
    lo = stratum * top // strata
    hi = (stratum + 1) * top // strata
    return rng.randrange(lo, max(hi, lo + 1))


def verify_requests(seed: int) -> list[tuple[str, int, int]]:
    out = [
        (spec, n, k * (n * (n - 1) // 2) // 4)
        for spec in PATTERNS
        for n in VERIFY_N
        for k in VERIFY_M_QUARTERS
    ]
    random.Random(f"witness-verify/{seed}").shuffle(out)
    return out


def build_requests(seed: int) -> list[tuple[str, int, int]]:
    rng = random.Random(f"witness-build/{seed}")
    out = [
        (spec, n, _draw_m(rng, n, s, BUILD_M_STRATA))
        for spec in PATTERNS
        for n in BUILD_N
        for s in range(BUILD_M_STRATA)
    ]
    rng.shuffle(out)
    return out


def table_requests(seed: int) -> list[tuple[tuple[str, ...], int, str]]:
    """Every (family, n) once, in seeded order and in a seeded output form."""
    rng = random.Random(f"exact-tables/{seed}")
    out = [(fam, n, rng.choice(("--json", "--csv"))) for fam in FAMILIES for n in TABLE_N]
    rng.shuffle(out)
    return out


def pairs_argv(family: tuple[str, ...], n: int, form: str) -> list[str]:
    argv = ["pairs"]
    for spec in family:
        argv += ["--edges", spec] if ";" in spec else [spec]
    return argv + ["-n", str(n), form]


def make_inputs(workload: str, seed: int):
    if workload == "witness-verify":
        reqs = verify_requests(seed)
    elif workload == "witness-build":
        reqs = build_requests(seed)
    else:
        return table_requests(seed)
    graphs = {spec: indfree.parse_graph(spec) for spec in PATTERNS}
    return [(spec, graphs[spec], n, m) for spec, n, m in reqs]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(one_pass, seconds: float) -> list:
    """Run whole passes while the next one is predicted to end in time.

    At least one pass always runs, so a slow commit is still measured on
    the complete input instead of a prefix of it. one_pass(i) returns the
    pass's summary; only what it returns is kept, so memory does not grow
    with the number of passes a faster commit fits in.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def verify_pass(requests, keep: bool, tracer=None) -> dict:
    """One pass of witness(G, n, m, verify=True), each under the limit.

    Returns the pass record (see PassRecord.finish); outputs, kept only
    when asked, are (graph, tag, verified), or None for a stopped request.
    """
    rec = PassRecord(keep)
    old = signal.signal(signal.SIGPROF, _on_alarm)
    try:
        with rec.speed as speed:
            for i, (_, pattern, n, m) in enumerate(requests):
                stop = STOP_AT * LIMIT_S / speed.factor_now()
                if tracer is not None:
                    tracer.begin_request(i)
                rec.start()
                try:
                    signal.setitimer(signal.ITIMER_PROF, stop)
                    try:
                        cert = indfree.witness(pattern, n, m, verify=True)
                    finally:
                        signal.setitimer(signal.ITIMER_PROF, 0)
                except LimitExceeded:
                    rec.stop(failed=True, out=None)
                    if tracer is not None:
                        tracer.abort_request()
                    continue
                rec.stop(False, (cert.graph, cert.construction.value, cert.verified))
    finally:
        signal.signal(signal.SIGPROF, old)
    return rec.finish(LIMIT_S)


def build_pass(requests, keep: bool, tracer=None) -> dict:
    """One pass of parse_graph -> witness -> encode_graph6 -> decode_graph6.

    A graph6 CapacityError fails the request. Outputs, kept only when
    asked, are (graph, tag, graph6 text, decoded graph), with None for the
    last two on a failed request.
    """
    rec = PassRecord(keep)
    with rec.speed:
        for i, (spec, _, n, m) in enumerate(requests):
            if tracer is not None:
                tracer.begin_request(i)
            rec.start()
            pattern = indfree.parse_graph(spec)
            cert = indfree.witness(pattern, n, m)
            try:
                text = indfree.encode_graph6(cert.graph)
            except indfree.CapacityError:
                rec.stop(True, (cert.graph, cert.construction.value, None, None))
                continue
            back = indfree.decode_graph6(text)
            rec.stop(False, (cert.graph, cert.construction.value, text, back))
    return rec.finish()


class PassRecord:
    """Per request of one pass: raw work time, failure, wall interval, output."""

    def __init__(self, keep: bool):
        self.speed = Speed()
        self.keep = keep
        self.dur: list[float] = []
        self.failed: list[bool] = []
        self.spans: list[tuple[float, float]] = []
        self.out: list = []

    def start(self) -> None:
        self._wall = time.perf_counter()
        self._work = self.speed.clock()

    def stop(self, failed: bool, out) -> None:
        self.dur.append(self.speed.clock() - self._work)
        self.spans.append((self._wall, time.perf_counter()))
        self.failed.append(failed)
        if self.keep:
            self.out.append(out)

    def finish(self, limit: float | None = None) -> dict:
        """Raw durations, failures, host-speed scales and (if kept) outputs.

        With a limit, a request whose scaled time exceeds it has failed.
        """
        scale = [self.speed.scale(a, b) for a, b in self.spans]
        failed = self.failed
        if limit is not None:
            failed = [bad or d * f > limit for bad, d, f in zip(failed, self.dur, scale)]
        return {"dur": self.dur, "failed": failed, "scale": scale,
                "out": self.out if self.keep else None}


def run_tables_child(seed: int, tracer=None) -> dict:
    """Both exact-tables phases, in the interpreter that calls this.

    Phase 1 enumerates every class for n = 1..8; phase 2 asks cli.main for
    each table. Afterwards, untimed and untraced, every table is asked for
    again in the other form so the parent can check that the two agree.
    "dur" and "scale" cover the enumerations, then the tables.
    """
    rec = PassRecord(keep=True)
    classes, distinct, hist = {}, {}, {}
    requests = table_requests(seed)
    with rec.speed:
        for n in CLASS_N:
            if tracer is not None:
                tracer.begin_request(n)
            rec.start()
            reps = list(indfree.enumerate_nonisomorphic(n))
            rec.stop(False, None)
            classes[n] = len(reps)
            counts = [0] * (n * (n - 1) // 2 + 1)
            for g in reps:
                counts[g.edge_count] += 1
            hist[n] = counts
            distinct[n] = len(set(reps))
        for i, (family, n, form) in enumerate(requests):
            if tracer is not None:
                tracer.begin_request(100 + i)
            buf = io.StringIO()
            rec.start()
            with contextlib.redirect_stdout(buf):
                code = indfree.cli.main(pairs_argv(family, n, form))
            rec.stop(code != 0, {"family": " ".join(family), "n": n, "form": form,
                                 "code": code, "text": buf.getvalue()})
    rss = peak_rss_mb()
    result = rec.finish()

    if tracer is not None:
        tracer.active = False
    tables = result["out"][len(CLASS_N):]
    for (family, n, form), entry in zip(requests, tables):
        other = "--csv" if form == "--json" else "--json"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            entry["other_code"] = indfree.cli.main(pairs_argv(family, n, other))
        entry["other_text"] = buf.getvalue()
    return {
        "classes": classes, "distinct": distinct, "hist": hist, "tables": tables,
        "dur": result["dur"], "failed": result["failed"], "scale": result["scale"],
        "rss_mb": rss,
    }

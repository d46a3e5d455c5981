"""In-memory span tracer that wraps indfree's public functions from outside.

``install`` replaces every public function of the eight indfree modules
with a recording wrapper, under every name that binds it: its own module,
the package ``__init__`` and each importer (``classifier.contains_induced``
and ``enumeration.canonical_form`` as well as ``iso.*``), so calls between
modules are seen too. Nothing under ``src/`` is edited.

A span is (name, start, end, parent span, request id, outcome); outcome is
"ok", "none" (the call returned None) or the name of the exception that
left it. Spans live in flat arrays until ``write`` dumps them at the end.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from array import array
from collections import Counter

MODULES = ("graphs", "graph6", "catalog", "iso", "constructions", "classifier", "enumeration", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.outcomes = ["ok", "none"]
        self._outcome_ids = {"ok": 0, "none": 1}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.outcome = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.request = -1
        self._request_first = 0
        self.active = True
        self.counts: Counter = Counter()
        self._last_host = None

    def begin_request(self, rid: int) -> None:
        self.request = rid
        self._request_first = len(self.start)

    def abort_request(self) -> None:
        """Repair the arrays after the CPU-limit alarm cut a request short.

        The alarm can land between two appends of the bookkeeping itself, so
        the arrays are cut to equal length and every span of the request
        still open is closed now, marked as aborted.
        """
        arrays = (self.name, self.parent, self.req, self.outcome, self.start, self.end)
        n = min(len(a) for a in arrays)
        for a in arrays:
            del a[n:]
        now = time.perf_counter()
        code = self._outcome("LimitExceeded")
        for sid in range(self._request_first, n):
            if self.end[sid] == 0.0:
                self.end[sid] = now
                self.outcome[sid] = code
        self.stack.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _outcome(self, label: str) -> int:
        if label not in self._outcome_ids:
            self._outcome_ids[label] = len(self.outcomes)
            self.outcomes.append(label)
        return self._outcome_ids[label]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.req.append(self.request)
        self.outcome.append(0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, code: int) -> None:
        self.end[sid] = time.perf_counter()
        self.outcome[sid] = code
        if self.stack and self.stack[-1] == sid:
            self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = _HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                if not self.active:
                    return (yield from fn(*args, **kwargs))
                sid = self._open(nid)
                try:
                    result = yield from fn(*args, **kwargs)
                except BaseException as exc:
                    self._close(sid, self._outcome(type(exc).__name__))
                    raise
                self._close(sid, 0)
                return result
            return traced_gen

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(self, args)
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, self._outcome(type(exc).__name__))
                raise
            self._close(sid, 1 if result is None else 0)
            return result
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\trequest\toutcome\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.req[i]}\t{self.outcomes[self.outcome[i]]}\n"
                )
            for key, value in sorted(self.counts.items()):
                fh.write(f"# count {key} {value}\n")


def _count_scanned_host(tracer: Tracer, args) -> None:
    # feasible_pairs tries each host against its patterns in turn, so a
    # new host object under a feasible_pairs span is one more host scanned
    if tracer.stack and tracer.names[tracer.name[tracer.stack[-1]]] == "enumeration.feasible_pairs":
        if args[0] is not tracer._last_host:
            tracer._last_host = args[0]
            tracer.counts["enumeration.scan_hosts"] += 1


_HOOKS = {"iso.contains_induced": _count_scanned_host}


def install(tracer: Tracer) -> None:
    """Wrap every public function of MODULES under every name binding it."""
    mods = {m: importlib.import_module(f"indfree.{m}") for m in MODULES}
    namespaces = list(mods.values()) + [importlib.import_module("indfree")]
    for mname, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            wrapped = tracer.wrap(f"{mname}.{attr}", obj)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, wrapped)


def _p90_ms(values: list[float]) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[math.ceil(0.9 * len(values)) - 1] * 1000.0


def layer_metrics(tracer: Tracer, class_counts: dict[int, int]) -> dict[str, float]:
    """Per-layer numbers from the recorded spans and counts.

    Self time is a span's duration minus the durations of its child spans.
    A metric of a layer the workload never calls reads 0.
    """
    names = tracer.names
    nspans = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(nspans)]
    child = [0.0] * nspans
    for i in range(nspans):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]

    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    module_self: Counter = Counter()
    by_outcome: Counter = Counter()
    by_outcome_s: Counter = Counter()
    miss_durs: list[float] = []
    class_spans: Counter = Counter()
    canon_calls: Counter = Counter()
    for i in range(nspans):
        name = names[tracer.name[i]]
        outcome = tracer.outcomes[tracer.outcome[i]]
        calls[name] += 1
        total[name] += dur[i]
        own = dur[i] - child[i]
        self_s[name] += own
        module_self[name.split(".", 1)[0]] += own
        by_outcome[name, outcome] += 1
        by_outcome_s[name, outcome] += dur[i]
        if name == "iso.contains_induced" and outcome == "none":
            miss_durs.append(dur[i])
        elif name == "enumeration.enumerate_nonisomorphic":
            class_spans[tracer.req[i]] += dur[i]
        elif name == "iso.canonical_form":
            canon_calls[tracer.req[i]] += 1

    ci = "iso.contains_induced"
    out = {
        "trace.spans": nspans,
        f"{ci}.hit_calls": by_outcome[ci, "ok"],
        f"{ci}.hit_s": by_outcome_s[ci, "ok"],
        f"{ci}.miss_calls": by_outcome[ci, "none"],
        f"{ci}.miss_s": by_outcome_s[ci, "none"],
        f"{ci}.miss_p90_ms": _p90_ms(miss_durs),
        f"{ci}.aborted": by_outcome[ci, "LimitExceeded"],
        "iso.canonical_form.calls": calls["iso.canonical_form"],
        "iso.canonical_form.s": total["iso.canonical_form"],
        "iso.wl_colors.calls": calls["iso.wl_colors"],
        "iso.wl_colors.s": total["iso.wl_colors"],
    }
    for n in (6, 7, 8):
        out[f"enumeration.classes_n{n}_s"] = class_spans[n]
        kept = class_counts.get(n, 0)
        out[f"enumeration.canon_yield_n{n}"] = kept / canon_calls[n] if canon_calls[n] else 0.0
    out.update({
        "enumeration.feasible_pairs.calls": calls["enumeration.feasible_pairs"],
        "enumeration.feasible_pairs.s": total["enumeration.feasible_pairs"],
        "enumeration.scan_hosts": tracer.counts["enumeration.scan_hosts"],
        "constructions.uep_witness.calls": calls["constructions.uep_witness"],
        "constructions.uep_witness.s": total["constructions.uep_witness"],
        "constructions.k3k2_witness.calls": calls["constructions.k3k2_witness"],
        "constructions.k3k2_witness.s": total["constructions.k3k2_witness"],
        "graphs.make_graph.calls": calls["graphs.make_graph"],
        "graphs.make_graph.s": total["graphs.make_graph"],
        "graphs.complement.s": total["graphs.complement"],
        "graphs.induced_subgraph.s": total["graphs.induced_subgraph"],
        "classifier.recognize_tnf.s": total["classifier.recognize_tnf"],
        "classifier.recognize_h.s": total["classifier.recognize_h"],
        "classifier.witness.self_s": self_s["classifier.witness"],
        "graph6.encode.calls": calls["graph6.encode_graph6"],
        "graph6.encode.s": total["graph6.encode_graph6"],
        "graph6.decode.s": total["graph6.decode_graph6"],
        "graph6.capacity_errors": by_outcome["graph6.encode_graph6", "CapacityError"],
        "catalog.parse_graph.s": total["catalog.parse_graph"],
        "cli.main.self_s": self_s["cli.main"],
    })
    for m in MODULES:
        out[f"{m}.self_s"] = module_self[m]
    return out

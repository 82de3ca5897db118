"""In-memory spans around the calls into each layer of ``repro``.

The benchmark opens spans at its own call sites (``from_pandas``,
``run_mfg``, ``edges_from_pandas``, ``enumerate_mfg_distributed``) and, in a
traced run, wraps the program's public functions at the names their callers
look up (:data:`WRAP_POINTS`). Nothing in ``repro`` is edited. The hot
``check_fre`` / ``support_timestamps`` calls are aggregated into a count and
a total per query instead of one span per call.

Spans stay in memory and are written out once, at the end of the run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional

from metrics import self_time

#: ``(module, attribute, span name, kind)``: the functions wrapped in a
#: traced run, patched in the module whose code calls them.
WRAP_POINTS = (
    ("repro.core.runner", "gfcore_local", "gfcore_local", "peel"),
    ("repro.core.runner", "vfree", "vfree", "kernel"),
    ("repro.core.runner", "filterv", "filterv", "kernel"),
    ("repro.core.filterv", "check_fre", "check_fre", "count"),
    ("repro.core.filterv", "support_timestamps", "support_ts", "count"),
    ("repro.core.distributed", "gfcore_spark", "gfcore_spark", "span"),
)


class Tracer:
    """Spans and per-query counters of one benchmark run.

    ``group`` names what the current work belongs to (one query, or one
    set-up repetition); every span and counter is filed under it.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.group: Optional[str] = None
        self.spans: List[dict] = []
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.missing: List[str] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time a block as a span; yields its record for extra fields."""
        if not self.enabled:
            yield {}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "group": self.group,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[self.group][name] += value

    @contextlib.contextmanager
    def traced(self) -> Iterator[None]:
        """Enable spans and wrap the program's functions for one block."""
        restore = []
        missing = []
        for module_name, attr, name, kind in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, kind))
            restore.append((module, attr, original))
        self.missing = missing
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            for module, attr, original in restore:
                setattr(module, attr, original)

    def _wrap(self, fn, name: str, kind: str):
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                self.add(f"{name}.s", time.perf_counter() - t0)
                self.add(f"{name}.calls", 1)
                if out is True:
                    self.add(f"{name}.true", 1)
                return out

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if kind == "peel":
                    rec["edges_in"] = len(args[0])
                    rec["edges_out"] = len(out)
                elif kind == "kernel":
                    timers = kwargs.get("timers")
                    rec["cm"] = timers.get("cm", 0.0) if timers else None
            return out

        return spanned

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for group, counts in self.counts.items():
                fh.write(json.dumps({"group": group, "counts": counts}) + "\n")


def summarise(tracer: Tracer, group: str) -> Dict[str, float]:
    """Per-layer raw values of one group: seconds, counts and ratios.

    Only layers that ran in the group appear. Times are wall seconds; the
    caller normalises them with the group's reference time.
    """
    spans = [s for s in tracer.spans if s["group"] == group]
    by_name: Dict[str, List[dict]] = defaultdict(list)
    children: Dict[int, List[tuple]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(
            self_time(s["start"], s["end"], children[s["id"]]) for s in by_name[name]
        )

    out: Dict[str, float] = {}
    if by_name["index.build"]:
        out["index.build_s"] = total("index.build")
        out["index.edges_in"] = sum(s["edges"] for s in by_name["index.build"])
    if by_name["gfcore_local"]:
        out["gfcore.peel_s"] = total("gfcore_local")
        kept = sum(s["edges_out"] for s in by_name["gfcore_local"])
        seen = sum(s["edges_in"] for s in by_name["gfcore_local"])
        out["gfcore.kept_ratio"] = kept / seen if seen else 0.0
    for kernel in ("vfree", "filterv"):
        if by_name[kernel]:
            search = total(kernel)
            cms = [s["cm"] for s in by_name[kernel]]
            out[f"{kernel}.search_s"] = search
            if None not in cms:
                out[f"{kernel}.cm_s"] = sum(cms)
                out[f"{kernel}.cm_share"] = sum(cms) / search if search else 0.0
    counts = tracer.counts.get(group, {})
    calls = counts.get("check_fre.calls", 0.0)
    if by_name["filterv"] or calls:
        out["freq.check_fre.calls"] = calls
        out["freq.check_fre_s"] = counts.get("check_fre.s", 0.0)
        out["freq.check_fre.pass_ratio"] = (
            counts.get("check_fre.true", 0.0) / calls if calls else 0.0
        )
        out["freq.support_ts_s"] = counts.get("support_ts.s", 0.0)
    if by_name["runner.run_mfg"]:
        out["runner.self_s"] = self_total("runner.run_mfg")
    if by_name["schema.to_spark"]:
        out["schema.to_spark_s"] = total("schema.to_spark")
    if by_name["gfcore_spark"]:
        out["gfcore_spark.peel_s"] = total("gfcore_spark")
    if by_name["distributed.enumerate"]:
        out["distributed.fanout_s"] = self_total("distributed.enumerate")
        out["distributed.groups"] = sum(
            s["groups"] for s in by_name["distributed.enumerate"]
        )
    return out


#: Per-layer metric -> the wrap point it needs (absent if that is missing).
NEEDS = {
    "gfcore.peel_s": "repro.core.runner.gfcore_local",
    "gfcore.kept_ratio": "repro.core.runner.gfcore_local",
    "vfree.search_s": "repro.core.runner.vfree",
    "vfree.cm_s": "repro.core.runner.vfree",
    "vfree.cm_share": "repro.core.runner.vfree",
    "filterv.search_s": "repro.core.runner.filterv",
    "filterv.cm_s": "repro.core.runner.filterv",
    "filterv.cm_share": "repro.core.runner.filterv",
    "freq.check_fre.calls": "repro.core.filterv.check_fre",
    "freq.check_fre_s": "repro.core.filterv.check_fre",
    "freq.check_fre.pass_ratio": "repro.core.filterv.check_fre",
    "freq.support_ts_s": "repro.core.filterv.support_timestamps",
    "gfcore_spark.peel_s": "repro.core.distributed.gfcore_spark",
}

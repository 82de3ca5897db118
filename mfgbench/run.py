"""Closed-loop MFG query-stream benchmark.

One client sends one query at a time and sends the next only after the
previous one returns. Each workload (see ``workloads.py``) is a stream of
short queries, so every run yields many latency samples.

Usage, from the repository root::

    python3 mfgbench/run.py --workload small-graphs --seed 1 --seconds 50 --trace 0

Every timed query is bracketed by a fixed reference computation
(``reference.py``) and reported in reference-normalised seconds,
``query_s / ref_s * NOMINAL_REF_S``, which cancels machine drift; the raw
seconds are printed beside them. Each query's answer is checked, untimed.

``BENCHMARK.json`` gates two workloads, ``small-graphs`` and
``param-sweep``. ``large-graphs`` (fresh D14 analogues, substrate-bound)
and ``distributed`` (the Spark path on D2 analogues) run the same way but
are not gated: a D14 query takes ~1.4 s and a Spark query ~2-3 s after
~20 s of session start and warm-up, so neither yields the 21+ samples a
tail needs within a run length that fits all runs of the gated set.

``--trace 0`` prints the end-to-end metrics (tracing off). ``--trace 1``
runs every query twice, untraced and traced, in alternating order, and
prints the per-layer metrics of the traced copies (per-query medians) plus
the tracing overhead. The last line of standard output is the result as
JSON; the line before it (``detail ...``) carries the raw seconds, sample
counts, tail percentile and checks.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from metrics import normalise, tail
from reference import NOMINAL_REF_S, Reference
from tracing import NEEDS, Tracer, summarise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINNED = HERE / "pinned_inputs.json"
DEFAULT_SEED = 0
#: Default-seed instances regenerated by every run to detect a changed
#: generator (all of them when the run's own seed is the default).
CANARY = 3
SETUP_REPEATS = 3

END_TO_END = {
    "query_s.p50": "s",
    "query_s.tail": "s",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics with their units. Seconds are reference-normalised,
#: except ``wall.*`` and ``ref.*``, which are raw wall seconds.
PER_LAYER = {
    "index.build_s": "s",
    "index.edges_in": "count",
    "gfcore.peel_s": "s",
    "gfcore.kept_ratio": "ratio",
    "vfree.search_s": "s",
    "vfree.cm_s": "s",
    "vfree.cm_share": "ratio",
    "filterv.search_s": "s",
    "filterv.cm_s": "s",
    "filterv.cm_share": "ratio",
    "freq.check_fre.calls": "count",
    "freq.check_fre_s": "s",
    "freq.check_fre.pass_ratio": "ratio",
    "freq.support_ts_s": "s",
    "runner.self_s": "s",
    "schema.to_spark_s": "s",
    "gfcore_spark.peel_s": "s",
    "distributed.fanout_s": "s",
    "distributed.groups": "count",
    "wall.query_s.p50": "s",
    "ref.raw_s": "s",
    "trace.overhead_pct": "%",
    "failed_pct": "%",
}


@dataclasses.dataclass
class Sample:
    """One timed query."""

    label: str
    group: str
    traced: bool
    raw_s: float
    ref_s: float
    errors: List[str]
    params: object = None
    algorithm: str = ""
    cm_s: float = 0.0

    @property
    def norm_s(self) -> float:
        return normalise(self.raw_s, self.ref_s, NOMINAL_REF_S)


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--write-pinned",
        action="store_true",
        help="record the default-seed input digests of every workload and exit",
    )
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def digests(workload, n: Optional[int] = None) -> List[str]:
    return [inst.digest() for inst in workload.instances(DEFAULT_SEED, n)]


def check_pinned(workload, seed: int) -> Optional[str]:
    """None if the default-seed inputs still match their pinned digests."""
    name = workload.name
    pinned = json.loads(PINNED.read_text())[name]
    n = None if seed == DEFAULT_SEED else min(CANARY, workload.count)
    got = digests(workload, n)
    if got != pinned[: len(got)] or len(pinned) != workload.count:
        bad = [i for i, (a, b) in enumerate(zip(got, pinned)) if a != b]
        return (
            f"inputs of {name} no longer match {PINNED.name} "
            f"(instances {bad or 'count'} differ): the generator changed"
        )
    return None


def timed(ref: Reference, fn) -> tuple:
    """``(raw_s, ref_s, result)`` of ``fn``, bracketed by two references.

    ``ref_s`` is the mean of the reference timed right before and right
    after ``fn``.
    """
    gc.collect()
    before = ref.measure()
    t0 = time.perf_counter()
    out = fn()
    raw_s = time.perf_counter() - t0
    return raw_s, (before + ref.measure()) / 2, out


def run_query(query, tracer, ref: Reference, group: str, traced: bool) -> Sample:
    """Time one query between two references, then check its answer untimed."""

    def attempt():
        try:
            return query.run(tracer), []
        except Exception:
            return None, [f"{query.label}: raised\n{traceback.format_exc()}"]

    tracer.group = group
    with tracer.traced() if traced else contextlib.nullcontext():
        raw_s, ref_s, (answer, errors) = timed(ref, attempt)
    if answer is not None:
        try:
            errors.extend(query.check(answer))
        except Exception:
            errors.append(f"{query.label}: check raised\n{traceback.format_exc()}")
    return Sample(
        query.label,
        group,
        traced,
        raw_s,
        ref_s,
        errors,
        query.params,
        query.algorithm,
        answer.cm_s if answer is not None else 0.0,
    )


def shape_check(samples: List[Sample]) -> Dict[str, dict]:
    """Table 1's shape per grid point: median VFree-CM < median FilterV-CM."""
    cells: Dict[tuple, Dict[str, List[float]]] = {}
    for s in samples:
        cm = normalise(s.cm_s, s.ref_s, NOMINAL_REF_S)
        key = (s.params.tau_u, s.params.tau_v, s.params.lam)
        cells.setdefault(key, {}).setdefault(s.algorithm, []).append(cm)
    out = {}
    for key, algs in sorted(cells.items()):
        name = "({},{},{})".format(*key)
        if "vfree" not in algs or "filterv" not in algs:
            out[name] = {"ok": None}  # a failed query left the point unmeasured
            continue
        v, f = statistics.median(algs["vfree"]), statistics.median(algs["filterv"])
        out[name] = {"vfree_cm_s": v, "filterv_cm_s": f, "ok": v < f}
    return out


def layer_metrics(tracer, samples: List[Sample], setup_groups: Dict[str, float]):
    """Per-query medians of the traced copies (set-up groups included)."""
    refs = {s.group: s.ref_s for s in samples if s.traced}
    refs.update(setup_groups)
    per_metric: Dict[str, List[float]] = {}
    for group, ref_s in refs.items():
        for name, value in summarise(tracer, group).items():
            if PER_LAYER[name] == "s":
                value = normalise(value, ref_s, NOMINAL_REF_S)
            per_metric.setdefault(name, []).append(value)
    out: Dict[str, Optional[float]] = {}
    for name in PER_LAYER:
        if name in per_metric:
            out[name] = statistics.median(per_metric[name])
        elif NEEDS.get(name) in tracer.missing:
            out[name] = None  # wrap point gone: absent, not zero
        else:
            out[name] = 0.0  # the layer does no work on this workload
    by_group = {s.group: s for s in samples}
    pairs = [
        (s, by_group[s.group[:-1]])
        for s in samples
        if s.traced and s.group[:-1] in by_group
    ]
    out["wall.query_s.p50"] = statistics.median(
        s.raw_s for s in samples if not (s.traced or s.errors)
    )
    out["ref.raw_s"] = statistics.median(s.ref_s for s in samples)
    out["trace.overhead_pct"] = statistics.median(
        100.0 * (t.norm_s / u.norm_s - 1.0) for t, u in pairs
    )
    return out


def set_up(workloads, args, tracer, ref: Reference):
    """Set the workload up ``SETUP_REPEATS`` times, then start it once.

    Returns the workload, ``setup_s`` (median repetition plus the once-only
    start, reference-normalised), the raw seconds, and the reference of
    each repetition keyed by its trace group.
    """
    raw, norm, groups = [], [], {}
    with tracer.traced() if args.trace else contextlib.nullcontext():
        for r in range(SETUP_REPEATS):
            # A fresh object per repetition: the previous one's state is
            # garbage before the timer starts.
            workload = None
            workload = workloads.make(args.workload, WORK, SRC)
            tracer.group = f"setup{r}"
            raw_s, ref_s, _ = timed(ref, lambda: workload.setup(args.seed, tracer))
            raw.append(raw_s)
            norm.append(normalise(raw_s, ref_s, NOMINAL_REF_S))
            groups[tracer.group] = ref_s
        tracer.group = "start"

        def timed_norm(fn):
            raw_s, ref_s, _ = timed(ref, fn)
            raw.append(raw_s)
            return normalise(raw_s, ref_s, NOMINAL_REF_S)

        try:
            once_s = workload.start(timed_norm, tracer)
        except BaseException:
            workload.close()
            raise
    return workload, statistics.median(norm) + once_s, raw, groups


def measure(workload, args, tracer, ref: Reference) -> List[Sample]:
    """The closed loop: queries until the deadline, ending on a whole pass.

    With tracing, every query runs twice, untraced and traced, in an order
    that alternates from one query to the next.
    """
    samples: List[Sample] = []
    stream = workload.queries()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline or i % workload.pass_size:
        query = next(stream)
        order = (False,) if not args.trace else ((False, True), (True, False))[i % 2]
        for traced in order:
            group = f"q{i}" + ("t" if traced else "")
            samples.append(run_query(query, tracer, ref, group, traced))
        i += 1
    return samples


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv)
    WORK.mkdir(exist_ok=True)
    if args.write_pinned:
        pinned = {
            name: digests(workloads.make(name, WORK, SRC))
            for name in workloads.WORKLOADS
        }
        PINNED.write_text(json.dumps(pinned, indent=1) + "\n")
        return 0
    problem = check_pinned(workloads.make(args.workload, WORK, SRC), args.seed)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 3

    ref = Reference()
    tracer = Tracer()
    workload, setup_s, setup_raw, setup_groups = set_up(workloads, args, tracer, ref)
    # Set-up objects live for the whole run; keep them out of every later
    # collection so a query's GC cost depends on its own work.
    gc.collect()
    gc.freeze()
    try:
        samples = measure(workload, args, tracer, ref)
    finally:
        workload.close()
        shutil.rmtree(WORK / "tmp", ignore_errors=True)

    plain = [s for s in samples if not s.traced]
    ok = [s for s in plain if not s.errors]
    failed = [s for s in samples if s.errors]
    failures = [e for s in failed for e in s.errors]
    for e in failures[:5]:
        print(e, file=sys.stderr)
    if not ok:
        print("error: no query succeeded", file=sys.stderr)
        return 1
    norm = [s.norm_s for s in ok]
    tail_pct, tail_s = tail(norm)
    shape = shape_check(ok) if args.workload == "param-sweep" else {}
    shape_ok = all(c["ok"] for c in shape.values())
    if not shape_ok:
        print(f"error: Table-1 shape check failed: {shape}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(plain),
        "tail_percentile": tail_pct,
        "raw_query_s_p50": statistics.median(s.raw_s for s in ok),
        "raw_ref_s_p50": statistics.median(s.ref_s for s in samples),
        "raw_setup_s": setup_raw,
        "nominal_ref_s": NOMINAL_REF_S,
        "table1_shape": shape,
        "settings": workload.settings(),
        "missing_wrap_points": tracer.missing,
        "failures": len(failures),
    }
    if args.trace:
        metrics = layer_metrics(tracer, samples, setup_groups)
        metrics["failed_pct"] = 100.0 * len(failed) / len(samples)
        units = PER_LAYER
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "query_s.p50": statistics.median(norm),
            "query_s.tail": tail_s,
            "queries_per_s": len(norm) / sum(norm),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    print("detail " + json.dumps(detail))
    result = {
        "correct": not failed and shape_ok,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four query streams the benchmark drives, with their answer checks.

Every input is generated from the workload seed in set-up through
``dataclasses.replace(datasets.SPECS[name], seed=...)`` + ``datasets.generate``,
so the program only ever receives edge frames. A query is one closed-loop
request: the benchmark times ``Query.run`` and then, untimed, runs
``Query.check`` on its answer.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set

import numpy as np

from repro.core import distributed as dist
from repro.core import runner
from repro.core.freq import support_timestamps
from repro.core.runner import Params
from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex

Groups = Dict[FrozenSet[int], Set[int]]


@dataclasses.dataclass
class Instance:
    """One generated dataset analogue."""

    name: str
    spec: datasets.DatasetSpec
    sf: float
    pdf: object  # pandas edge frame

    @property
    def label(self) -> str:
        return f"{self.name}@{self.spec.seed}"

    def digest(self) -> str:
        arr = np.ascontiguousarray(self.pdf[["u", "v", "t"]].to_numpy(np.int64))
        return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


@dataclasses.dataclass
class Answer:
    groups: Groups
    index: Optional[TemporalBipartiteIndex] = None  # the full input, for checks
    cm_s: float = 0.0


@dataclasses.dataclass
class Query:
    label: str
    run: Callable[[object], Answer]  # takes the tracer
    check: Callable[[Answer], List[str]]
    params: Optional[Params] = None
    algorithm: str = "vfree"


def generate(name: str, seed: int, sf: float) -> Instance:
    spec = dataclasses.replace(datasets.SPECS[name], seed=seed)
    return Instance(name, spec, sf, datasets.generate(spec, sf=sf))


def instance_seed(workload_seed: int, salt: int, i: int) -> int:
    """Seed of the ``i``-th instance of a workload stream."""
    return int(np.random.SeedSequence([workload_seed, salt, i]).generate_state(1)[0])


def check_groups(groups: Groups, inst: Instance, params: Params, index) -> List[str]:
    """Size, support and planted-group checks of one answer."""
    errors = []
    for vs, supp in groups.items():
        if len(vs) < params.tau_v:
            errors.append(f"{inst.label}: |V_S|={len(vs)} < tau_v for {sorted(vs)}")
        if len(supp) < params.lam:
            errors.append(f"{inst.label}: {len(supp)} supports < lam for {sorted(vs)}")
        expect = support_timestamps(index, vs, params.tau_u)
        if set(supp) != expect:
            errors.append(f"{inst.label}: supports of {sorted(vs)} differ")
    base = inst.spec.params
    # Planted groups are frequent whenever the thresholds do not exceed what
    # they were planted with (τ_U+2 fresh U per timestamp, λ+2 timestamps).
    if params.tau_u <= base.tau_u + 2 and params.lam <= base.lam + 2:
        for planted in datasets.planted_groups_v(inst.spec, inst.sf):
            if len(planted) < params.tau_v:
                continue
            if not any(set(planted) <= vs for vs in groups):
                errors.append(f"{inst.label}: planted {planted} not reported")
    return errors


class Workload:
    """A query stream: set-up, the queries, and tear-down.

    By default a stream cycles through a pool of instances generated in
    set-up, one ``from_pandas`` -> ``run_mfg(..., "vfree")`` query each.
    """

    name = ""
    #: Salt mixed into every instance seed, one per workload.
    salt = 0
    dataset = ""
    sf = 1.0
    #: Instances generated per set-up.
    count = 1
    #: Queries in one pass over the stream's fixed mix; a run ends on a
    #: pass boundary so every run measures the same mix.
    pass_size = 1

    def instance(self, seed: int, i: int) -> Instance:
        return generate(self.dataset, instance_seed(seed, self.salt, i), self.sf)

    def instances(self, seed: int, n: Optional[int] = None) -> List[Instance]:
        return [self.instance(seed, i) for i in range(self.count if n is None else n)]

    def setup(self, seed: int, tracer) -> None:
        """Set-up the benchmark may repeat: generation, index build."""
        self.pool = self.instances(seed)

    def start(self, timed: Callable[[Callable[[], object]], float], tracer) -> float:
        """Once-only set-up; returns its reference-normalised seconds."""
        return 0.0

    def query(self, inst: Instance) -> Query:
        params = inst.spec.params

        def run(tr) -> Answer:
            with tr.span("index.build") as rec:
                index = TemporalBipartiteIndex.from_pandas(inst.pdf)
            rec["edges"] = len(index)
            with tr.span("runner.run_mfg"):
                out = runner.run_mfg(index, params, "vfree")
            return Answer(out.groups, index)

        def check(ans: Answer) -> List[str]:
            return check_groups(ans.groups, inst, params, ans.index)

        return Query(inst.label, run, check, params)

    def queries(self) -> Iterator[Query]:
        for inst in itertools.cycle(self.pool):
            yield self.query(inst)

    def settings(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class SmallGraphs(Workload):
    """Fresh D10 analogues (sf=1): search-bound queries.

    D5 and D9 analogues were left out: their query cost varies by ~23%
    (coefficient of variation) from one generated instance to the next, D10's
    by ~5%, and a mix of the three puts the median between clusters.
    """

    name = "small-graphs"
    salt = 1
    dataset = "D10"
    count = 64


class LargeGraphs(Workload):
    """Fresh D14 analogues (sf=1): index build plus peel dominate."""

    name = "large-graphs"
    salt = 2
    dataset = "D14"
    count = 16


class ParamSweep(Workload):
    """One D14 analogue, indexed once; a grid of parameters x two kernels."""

    name = "param-sweep"
    salt = 3
    dataset = "D14"
    #: Table 1's columns (9,5,8), (10,6,6), (10,6,10) plus the default
    #: (10,6,8). Table 1's (8,4,8) is left out: its FilterV cell alone costs
    #: more than the rest of a pass.
    grid = (
        Params(9, 5, 8),
        Params(10, 6, 6),
        Params(10, 6, 10),
        Params(10, 6, 8),
    )
    algorithms = ("filterv", "vfree")
    pass_size = len(grid) * len(algorithms)

    def setup(self, seed, tracer):
        super().setup(seed, tracer)
        with tracer.span("index.build") as rec:
            self.index = TemporalBipartiteIndex.from_pandas(self.pool[0].pdf)
        rec["edges"] = len(self.index)
        self.first: Dict[Params, Groups] = {}

    def cell(self, params: Params, algorithm: str) -> Query:
        inst, index = self.pool[0], self.index

        def run(tr) -> Answer:
            with tr.span("runner.run_mfg"):
                out = runner.run_mfg(index, params, algorithm)
            return Answer(out.groups, index, out.cm_s)

        def check(ans: Answer) -> List[str]:
            errors = check_groups(ans.groups, inst, params, index)
            first = self.first.setdefault(params, ans.groups)
            if ans.groups != first:
                errors.append(f"{params}: {algorithm} answer differs from the other kernel")
            return errors

        label = f"({params.tau_u},{params.tau_v},{params.lam})/{algorithm}"
        return Query(label, run, check, params, algorithm)

    def queries(self):
        for params in itertools.cycle(self.grid):
            for algorithm in self.algorithms:
                yield self.cell(params, algorithm)


class Distributed(Workload):
    """``edges_from_pandas`` -> ``enumerate_mfg_distributed`` on D2 analogues."""

    name = "distributed"
    salt = 4
    dataset = "D2"
    pool_size = 12
    warmup = 3
    count = pool_size + warmup
    master = "local[2]"
    shuffle_partitions = 2

    def __init__(self, work_dir: Path, src_dir: Path):
        self.work_dir = work_dir
        self.src_dir = src_dir
        self.spark = None
        self._local: Dict[str, Groups] = {}

    def settings(self):
        return {
            "master": self.master,
            "spark.sql.shuffle.partitions": self.shuffle_partitions,
            "spark.sql.adaptive.enabled": False,
            "spark.driver.memory": "1g",
            "warmup_queries": self.warmup,
        }

    def _start_session(self) -> None:
        tmp = self.work_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        # Keep the JVMs, the Python workers and their scratch files inside
        # the checkout (no hsperfdata under /tmp), and let the workers import
        # ``repro`` from source.
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)
        os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
        os.environ["PYSPARK_PYTHON"] = sys.executable
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src_dir), os.environ.get("PYTHONPATH")) if p
        )
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master {self.master} --driver-memory 1g "
            "--conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false "
            "--conf spark.driver.host=127.0.0.1 pyspark-shell"
        )
        from pyspark.sql import SparkSession

        self.spark = (
            SparkSession.builder.appName("mfgbench")
            .config("spark.sql.shuffle.partitions", self.shuffle_partitions)
            .config("spark.sql.adaptive.enabled", "false")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.local.dir", str(tmp))
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")

    def start(self, timed, tracer):
        total = timed(self._start_session)
        for inst in self.pool[self.pool_size :]:
            total += timed(lambda inst=inst: self.query(inst).run(tracer))
        del self.pool[self.pool_size :]
        return total

    def query(self, inst: Instance) -> Query:
        from repro.graph.schema import edges_from_pandas

        params = inst.spec.params

        def run(tr) -> Answer:
            with tr.span("schema.to_spark"):
                edges = edges_from_pandas(self.spark, inst.pdf)
            with tr.span("distributed.enumerate") as rec:
                groups = dist.enumerate_mfg_distributed(
                    edges, params.tau_u, params.tau_v, params.lam, "vfree"
                )
            rec["groups"] = len(groups)
            return Answer(groups)

        def check(ans: Answer) -> List[str]:
            index = TemporalBipartiteIndex.from_pandas(inst.pdf)
            errors = check_groups(ans.groups, inst, params, index)
            if inst.label not in self._local:
                self._local[inst.label] = runner.run_mfg(index, params, "vfree").groups
            if ans.groups != self._local[inst.label]:
                errors.append(f"{inst.label}: distributed answer differs from local vfree")
            return errors

        return Query(inst.label, run, check, params)

    def close(self):
        """Stop the session and wait for the JVM (and its workers) to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        try:
            self.spark.stop()
        finally:
            self.spark = None
            if gateway is not None:
                gateway.shutdown()
                proc = getattr(gateway, "proc", None)
                if proc is not None:
                    proc.stdin.close()
                    try:
                        proc.wait(timeout=60)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
                SparkContext._gateway = None
                SparkContext._jvm = None


def make(name: str, work_dir: Path, src_dir: Path) -> Workload:
    if name == Distributed.name:
        return Distributed(work_dir, src_dir)
    for cls in (SmallGraphs, LargeGraphs, ParamSweep):
        if cls.name == name:
            return cls()
    raise KeyError(name)


WORKLOADS = (SmallGraphs.name, LargeGraphs.name, ParamSweep.name, Distributed.name)

"""Seeded inputs of the three hospital prediction-query workloads.

Everything here is input generation, and none of it is timed. The
workload seed drives the scored dataset and the query stream; the model
is trained once on a fixed-seed population. The benchmark hands the
generated inputs to the library exactly as a user would (register the
table and model, send SQL text).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from repro.datasets import hospital
from repro.datasets.synth import Dataset
from repro.learn import DecisionTreeClassifier
from repro.learn.pipeline import Pipeline
from repro.storage.table import Table

ROWS = 400_000
MODEL = "hospital_dt"
# The hospital generator draws structural parameters (each condition
# flag's rate) from its seed, which alone moves a workload's cost by
# ~20% from seed to seed, and the tree trained on it changes shape with
# them (~15% on tree_serve). So one population is generated from a fixed
# seed, the model is trained on it, and the workload seed draws the
# scored dataset as a bootstrap sample of that population.
POPULATION_SEED = 0
TRAIN_ROWS = 4_000
# ml_runtime scores a seeded eid window of this many rows per request,
# so a run completes enough requests for a p90 with >= 10 samples beyond
# it (the whole table takes ~1 s per request).
ML_RUNTIME_WINDOW = 30_000
# adhoc_partitioned: length of the pre-generated stream (each request
# takes the next query; far more than a run completes), and how many of
# its first CHECK_SPAN queries the oracle checks per class.
STREAM_LENGTH = 5_000
FLAG_EVERY = 6
CHECK_SPAN = 192
CHECKED_PER_CLASS = {"rcount": 24, "flag": 8}
# adhoc_partitioned pulse thresholds span [PULSE_LOW, PULSE_LOW +
# PULSE_RANGE) (pulse is ~N(73, 12)).
PULSE_LOW, PULSE_RANGE = 60.0, 30.0
GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class WorkloadSpec:
    """The model and table layout a workload serves."""

    name: str
    tree_depth: int
    partition_column: Optional[str] = None


# Why each workload exists, and what it loads, is recorded in
# BENCHMARK.json and README.md. Every workload is a closed loop with one
# client: with two, tree_serve's qps read 8.6 to 15.9 for one seed.
SPECS: Dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    WorkloadSpec("tree_serve", tree_depth=8),
    WorkloadSpec("ml_runtime", tree_depth=12),
    WorkloadSpec("adhoc_partitioned", tree_depth=8,
                 partition_column="rcount"),
)}


@dataclass
class Inputs:
    """One workload's generated inputs."""

    spec: WorkloadSpec
    dataset: Dataset
    pipeline: Pipeline
    stream: List[str]
    warmup: List[str]
    # Stream indices whose results the oracle checks (None: every one).
    checked: Optional[FrozenSet[int]] = None
    num_partitions: int = 1

    def query(self, index: int) -> str:
        return self.stream[index % len(self.stream)]

    def is_checked(self, index: int) -> bool:
        return self.checked is None or index in self.checked

    def checked_queries(self) -> List[str]:
        """Distinct query texts whose results the oracle must supply."""
        indices = (range(len(self.stream)) if self.checked is None
                   else sorted(self.checked))
        return list(dict.fromkeys(self.stream[index] for index in indices))


def generate(name: str, seed: int) -> Inputs:
    """Dataset, model and query stream of workload ``name`` for ``seed``.

    The seed drives the scored dataset's rows and the query stream's
    literals.
    """
    spec = SPECS[name]
    rng = np.random.default_rng([seed, 7])
    population = hospital.generate(ROWS, seed=POPULATION_SEED)
    pipeline = population.train_pipeline(
        DecisionTreeClassifier(max_depth=spec.tree_depth, random_state=0),
        train_rows=TRAIN_ROWS, seed=POPULATION_SEED)
    dataset = _bootstrap(population, rng)
    del population
    if name == "tree_serve":
        query = dataset.prediction_query(MODEL)
        return Inputs(spec, dataset, pipeline, [query], [query])
    if name == "ml_runtime":
        low = int(rng.integers(0, ROWS - ML_RUNTIME_WINDOW))
        query = dataset.prediction_query(
            MODEL, where=f"d.eid >= {low} AND d.eid < "
                         f"{low + ML_RUNTIME_WINDOW}")
        return Inputs(spec, dataset, pipeline, [query], [query])
    warm = 2 * FLAG_EVERY
    stream, classes = _adhoc_stream(dataset, rng, STREAM_LENGTH + warm)
    warmup, stream, classes = stream[:warm], stream[warm:], classes[warm:]
    checked = set()
    for kind, count in CHECKED_PER_CLASS.items():
        pool = [index for index in range(CHECK_SPAN)
                if classes[index] == kind]
        checked.update(int(i) for i in rng.choice(pool, count,
                                                  replace=False))
    rcounts = np.unique(dataset.tables[dataset.fact_table].array("rcount"))
    return Inputs(spec, dataset, pipeline, stream, warmup,
                  checked=frozenset(checked), num_partitions=len(rcounts))


def _bootstrap(population: Dataset, rng: np.random.Generator) -> Dataset:
    """ROWS rows drawn with replacement from ``population`` (fresh eids)."""
    rows = rng.integers(0, ROWS, ROWS)
    fact = population.tables[population.fact_table]
    arrays = {name: fact.array(name)[rows] for name in fact.column_names}
    arrays["eid"] = np.arange(ROWS, dtype=np.int64)
    return dataclasses.replace(
        population, tables={population.fact_table: Table.from_arrays(**arrays)},
        label=population.label[rows])


def _adhoc_stream(dataset: Dataset, rng: np.random.Generator, length: int):
    """Ad-hoc PREDICT queries with seeded, nearly all distinct literals.

    Five of every six restrict ``rcount`` to one value (5 of the 6
    partitions are skipped); every sixth filters a condition flag, which
    no partition's statistics can exclude, so it scans all partitions.
    At this mix the median request falls inside the rcount class's
    latency spread (at 3:1 it sits on the gap between the two large
    partitions and the four small ones, and moves by ~20% from run to
    run), and the 90th percentile falls inside the flag class.
    Each class cycles through a seeded order of its values, and its pulse
    thresholds follow a golden-ratio sequence from a seeded start, so any
    prefix of the stream sends nearly the same mix of partitions, flags
    and selectivities: a run's latency quantiles then do not depend on
    which literals its length happened to draw.
    """
    rcounts = rng.permutation(np.unique(
        dataset.tables[dataset.fact_table].array("rcount"))).tolist()
    flags = rng.permutation(hospital.FLAG_COLUMNS).tolist()
    start = rng.random(2).tolist()
    queries, classes = [], []
    for index in range(length):
        flagged = index % FLAG_EVERY == FLAG_EVERY - 1
        # Position within the query's class.
        step = (index // FLAG_EVERY if flagged
                else index - index // FLAG_EVERY)
        fraction = (start[int(flagged)] + step * GOLDEN) % 1.0
        pulse = round(PULSE_LOW + PULSE_RANGE * fraction, 3)
        if flagged:
            flag = flags[step % len(flags)]
            where = f"d.{flag} = 'yes' AND d.pulse > {pulse}"
        else:
            rcount = rcounts[step % len(rcounts)]
            where = f"d.rcount = '{rcount}' AND d.pulse > {pulse}"
        classes.append("flag" if flagged else "rcount")
        queries.append(dataset.prediction_query(MODEL, where=where))
    return queries, classes

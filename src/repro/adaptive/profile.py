"""Runtime operator profiling: rows-in/rows-out and wall time per operator.

The optimizer never sees a single run today: it estimates selectivities
and costs statically, and a misestimate is baked into the cached plan
forever. This module closes half of that loop — it observes. The
relational executor, when handed a :class:`PlanProfiler`, records every
operator's output cardinality and inclusive wall time (and, for filters
over conjunctions, the per-conjunct cascade) into per-node accumulators;
:meth:`PlanProfiler.profile_tree` assembles them into an
:class:`OperatorProfile` tree mirroring the plan, which is attached to
:class:`~repro.core.session.RunStats` and fed to the
:class:`~repro.adaptive.feedback.FeedbackStore`.

Profiles aggregate under **structural fingerprints** rather than object
identities, so observations survive re-optimization: a re-optimized plan
whose subtrees are structurally identical keeps accumulating into the
same feedback keys. Fingerprints are cached on the plan nodes themselves
(the same per-plan-node caching pattern the compiled-expression programs
use), deliberately ignore pure execution annotations (join build side,
predict batch size), and treat AND-conjunctions as order-insensitive —
reordering a filter's conjuncts must not orphan its history.

Overhead is two ``perf_counter()`` calls and one dict update per operator
per execution — noise next to any vectorized kernel.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.relational.expressions import Expression, conjuncts
from repro.relational.logical import (
    Aggregate,
    Filter,
    Join,
    JoinEdge,
    Limit,
    MultiJoin,
    PlanNode,
    Predict,
    Project,
    Scan,
    Sort,
)


def _digest(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()[:16]


def expression_fingerprint(expr: Expression) -> str:
    """Deterministic structural fingerprint of a scalar expression.

    Built from the recursive ``repr`` (which every expression type renders
    canonically), digested so keys stay short even for MLtoSQL trees.
    """
    return _digest(repr(expr))


def operator_label(node: PlanNode) -> str:
    """``node._label()``, rendered once per plan node and cached on it.

    The label of an MLtoSQL Project spells out its whole CASE tree (tens
    of KB), so profiled runs of a cached plan must not re-render it.
    Plan nodes are not mutated after construction (re-optimization
    rebuilds the nodes it annotates), so the cached text stays exact.
    """
    cached = node.__dict__.get("_operator_label")
    if cached is None:
        cached = node._label()
        node._operator_label = cached
    return cached


def plan_fingerprint(node: PlanNode) -> str:
    """Deterministic structural fingerprint of a plan subtree.

    Cached on the node (``node._adaptive_fp``). Two properties matter for
    feedback aggregation:

    * execution *annotations* (``Join.build_side``, ``Predict.batch_rows``)
      are excluded — they change how a node runs, not what it computes;
    * a Filter's conjuncts hash as a sorted multiset — ``a AND b`` and
      ``b AND a`` share one feedback history, so reordering by observed
      selectivity does not reset the observations that drove it.
    """
    cached = node.__dict__.get("_adaptive_fp")
    if cached is not None:
        return cached
    child_fps = [plan_fingerprint(child) for child in node.children()]
    if isinstance(node, Scan):
        cols = "*" if node.columns is None else ",".join(node.columns)
        payload = f"Scan:{node.table_name}:{node.alias}:{cols}"
    elif isinstance(node, Filter):
        parts = sorted(repr(p) for p in conjuncts(node.predicate))
        payload = "Filter:" + "&".join(parts)
    elif isinstance(node, Project):
        payload = "Project:" + ";".join(f"{n}={e!r}" for n, e in node.outputs)
    elif isinstance(node, Join):
        keys = ",".join(f"{lk}={rk}" for lk, rk
                        in zip(node.left_keys, node.right_keys))
        payload = f"Join:{node.how}:{keys}"
    elif isinstance(node, MultiJoin):
        # The execution `order` is a pure annotation: differently-ordered
        # MultiJoins over the same inputs/edges share one feedback history
        # (same reasoning as Join.build_side). Edges hash as a sorted
        # multiset — they carry no order of their own.
        edges = sorted(f"{e.left_input}.{e.left_key}={e.right_input}.{e.right_key}"
                       for e in node.edges)
        payload = "MultiJoin:" + "&".join(edges)
    elif isinstance(node, Predict):
        mapping = ",".join(f"{k}->{v}"
                           for k, v in sorted(node.input_mapping.items()))
        outs = ",".join(f"{n}:{g}:{d.name}" for n, g, d in node.output_columns)
        kept = "*" if node.keep_columns is None else ",".join(node.keep_columns)
        payload = (f"Predict:{node.model_name}:{node.mode.value}:"
                   f"{mapping}:{outs}:{kept}")
    elif isinstance(node, Aggregate):
        aggs = ",".join(f"{s.name}={s.func}({s.column})"
                        for s in node.aggregates)
        payload = f"Aggregate:{','.join(node.group_by)}:{aggs}"
    elif isinstance(node, Sort):
        keys = ",".join(f"{c}:{asc}" for c, asc in node.keys)
        payload = f"Sort:{keys}"
    elif isinstance(node, Limit):
        payload = f"Limit:{node.count}"
    else:  # unknown operator: fall back to its label
        payload = operator_label(node)
    fingerprint = _digest(payload + "|" + "|".join(child_fps))
    node._adaptive_fp = fingerprint
    return fingerprint


def partition_fingerprint(fingerprint: str, partition: int) -> str:
    """Fingerprint of one partition's view of an operator.

    The partition dimension of the feedback store: observations of the
    same structural operator over different partitions of its table
    accumulate separately, so per-shard selectivity skew is learnable
    (data-induced plan specialization, skew-aware morsel scheduling).
    Keyed by partition *index* — partitioning is part of the catalog
    entry, so an index is stable until the table itself is replaced,
    which also rolls the plan fingerprints it composes with.
    """
    return _digest(f"partition:{fingerprint}:{partition}")


def conjunct_fingerprint(filter_node: Filter, index: int) -> str:
    """Fingerprint of one conjunct of a Filter's predicate.

    Keyed by the child subtree plus the conjunct expression — *not* by the
    conjunct's position — so observed selectivities survive reordering.
    Cached per node (the conjunct list is immutable once planned).
    """
    cached = filter_node.__dict__.get("_adaptive_conjunct_fps")
    if cached is None:
        child_fp = plan_fingerprint(filter_node.child)
        cached = tuple(
            _digest(f"conjunct:{child_fp}:{part!r}")
            for part in conjuncts(filter_node.predicate)
        )
        filter_node._adaptive_conjunct_fps = cached
    return cached[index]


# ---------------------------------------------------------------------------
# Join regions: flatten a tree of inner equi-joins into (leaves, edges)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JoinRegion:
    """A maximal region of inner joins, flattened.

    ``leaves`` are the non-inner-join subplans in original (in-order,
    i.e. query text) order; ``edges`` the equi-join key pairs mapped onto
    leaf indices. The region satisfies the *connected-prefix* property:
    every leaf after the first shares an edge with an earlier leaf, so any
    connectivity-respecting execution sequence avoids cross products.
    """

    leaves: Tuple[PlanNode, ...]
    edges: Tuple[JoinEdge, ...]


def _leaf_claims(node: PlanNode) -> Tuple[set, set]:
    """(exact column names, alias prefixes) a region leaf can produce.

    Used to attribute a join key column to one leaf. A ``Scan`` claims its
    alias as a prefix (covering unpruned ``columns=None`` scans); nodes
    with explicit output lists claim exact names. Unknown operators claim
    nothing, which makes the attribution — and therefore the region
    extraction — fail safely.
    """
    if isinstance(node, Scan):
        exact = set() if node.columns is None else \
            {f"{node.alias}.{c}" for c in node.columns}
        return exact, {node.alias}
    if isinstance(node, Project):
        return {name for name, _ in node.outputs}, set()
    if isinstance(node, Aggregate):
        return set(node.group_by) | {s.name for s in node.aggregates}, set()
    if isinstance(node, Predict):
        outputs = {name for name, _, _ in node.output_columns}
        if node.keep_columns is not None:
            return set(node.keep_columns) | outputs, set()
        exact, prefixes = _leaf_claims(node.child)
        return exact | outputs, prefixes
    if isinstance(node, (Filter, Sort, Limit)):
        return _leaf_claims(node.children()[0])
    if isinstance(node, (Join, MultiJoin)):
        exact: set = set()
        prefixes: set = set()
        for child in node.children():
            child_exact, child_prefixes = _leaf_claims(child)
            exact |= child_exact
            prefixes |= child_prefixes
        return exact, prefixes
    return set(), set()


def _claims_column(claims: Tuple[set, set], column: str) -> bool:
    exact, prefixes = claims
    return column in exact or column.split(".", 1)[0] in prefixes


def join_region(node: PlanNode) -> Optional[JoinRegion]:
    """Flatten the inner-join region rooted at ``node``, or None.

    Returns None when ``node`` is not an inner ``Join``/``MultiJoin``,
    when a join key cannot be attributed to exactly one leaf, or when the
    original leaf order violates the connected-prefix property (a bushy
    shape whose in-order sequence would need a cross product).

    Cached on the node (plan trees are immutable — rewrites build new
    nodes): the ordering pass and the divergence check run after every
    profiled execution of a cached plan, and must not re-flatten the tree
    each time.
    """
    if not ((isinstance(node, Join) and node.how == "inner")
            or isinstance(node, MultiJoin)):
        return None
    cached = node.__dict__.get("_adaptive_region")
    if cached is not None:
        return cached or None  # False sentinel = previously failed
    region = _extract_join_region(node)
    node._adaptive_region = region if region is not None else False
    return region


def _extract_join_region(node: PlanNode) -> Optional[JoinRegion]:
    leaves: List[PlanNode] = []
    pairs: List[Tuple[str, str]] = []  # (key column, key column)

    def flatten(current: PlanNode) -> None:
        if isinstance(current, Join) and current.how == "inner":
            flatten(current.left)
            flatten(current.right)
            pairs.extend(zip(current.left_keys, current.right_keys))
        elif isinstance(current, MultiJoin):
            leaves.extend(current.inputs)
            pairs.extend((edge.left_key, edge.right_key)
                         for edge in current.edges)
        else:
            leaves.append(current)

    flatten(node)
    if len(leaves) < 2:
        return None
    edges = attribute_key_pairs(leaves, pairs)
    if edges is None:
        return None
    # Connected-prefix check: leaf i must share an edge with a leaf < i.
    for index in range(1, len(leaves)):
        if not any(edge.right_input == index and edge.left_input < index
                   for edge in edges):
            return None
    return JoinRegion(tuple(leaves), tuple(edges))


def attribute_key_pairs(leaves: List[PlanNode],
                        pairs: List[Tuple[str, str]]
                        ) -> Optional[List[JoinEdge]]:
    """Map key-column pairs onto leaf indices; None when ambiguous."""
    claims = [_leaf_claims(leaf) for leaf in leaves]

    def leaf_of(column: str) -> Optional[int]:
        matches = [index for index, claim in enumerate(claims)
                   if _claims_column(claim, column)]
        return matches[0] if len(matches) == 1 else None

    edges: List[JoinEdge] = []
    for left_key, right_key in pairs:
        left_leaf = leaf_of(left_key)
        right_leaf = leaf_of(right_key)
        if left_leaf is None or right_leaf is None or left_leaf == right_leaf:
            return None
        if left_leaf > right_leaf:
            left_leaf, right_leaf = right_leaf, left_leaf
            left_key, right_key = right_key, left_key
        edges.append(JoinEdge(left_leaf, right_leaf, left_key, right_key))
    return edges


def join_edge_fingerprint(leaf_fps: List[str],
                          edges: List[JoinEdge]) -> str:
    """Fingerprint of one join *step*: the edge set it resolves.

    Order-insensitive between the two sides of each edge and across the
    edges of the step, and keyed by the leaf subtrees' structural
    fingerprints — so the observation recorded when the text-order plan
    joined (fact ⋈ dim) is exactly what the ordering pass looks up when it
    evaluates joining dim at any other position.
    """
    parts = []
    for edge in edges:
        sides = sorted([f"{leaf_fps[edge.left_input]}:{edge.left_key}",
                        f"{leaf_fps[edge.right_input]}:{edge.right_key}"])
        parts.append("=".join(sides))
    return _digest("joinstep:" + "&".join(sorted(parts)))


def join_step_fingerprints(node: PlanNode) -> Optional[Tuple[str, ...]]:
    """Per-step fingerprints for a join operator, cached on the node.

    For a binary inner ``Join`` this is the single step merging its two
    subtrees; for a ``MultiJoin`` one fingerprint per step of its
    execution sequence (position 0 — the starting input — has no step).
    None when the region cannot be extracted.
    """
    cached = node.__dict__.get("_adaptive_step_fps")
    if cached is not None:
        return cached or None  # () sentinel = previously failed
    region = join_region(node)
    if region is None:
        node._adaptive_step_fps = ()
        return None
    leaf_fps = [plan_fingerprint(leaf) for leaf in region.leaves]
    if isinstance(node, MultiJoin):
        fps: Tuple[str, ...] = tuple(
            join_edge_fingerprint(leaf_fps, node.step_edges(position))
            for position in range(1, len(node.inputs))
        )
    else:
        # A binary join's single step resolves its *own* key pairs (the
        # edges of nested joins are those joins' steps, recorded when
        # they execute).
        own = attribute_key_pairs(list(region.leaves),
                                  list(zip(node.left_keys, node.right_keys)))
        if own is None:  # pragma: no cover - region extraction succeeded
            node._adaptive_step_fps = ()
            return None
        fps = (join_edge_fingerprint(leaf_fps, own),)
    node._adaptive_step_fps = fps
    return fps


# ---------------------------------------------------------------------------
# Profile data model
# ---------------------------------------------------------------------------

@dataclass
class ConjunctProfile:
    """Observed behaviour of one conjunct within a filter cascade."""

    expression: str
    fingerprint: str
    calls: int = 0
    rows_in: int = 0
    rows_out: int = 0
    seconds: float = 0.0

    @property
    def selectivity(self) -> Optional[float]:
        if self.rows_in <= 0:
            return None
        return self.rows_out / self.rows_in


@dataclass
class JoinStepProfile:
    """Observed behaviour of one join step (one edge set resolved).

    ``rows_left``/``rows_right`` are the two input cardinalities the step
    actually saw; ``selectivity`` is the fraction of the cross product the
    step kept — the classic join selectivity, invariant (under
    independence) to how much earlier steps already reduced either side,
    which is what lets observations recorded under one join order inform
    the cost of every other order.
    """

    detail: str
    fingerprint: str
    calls: int = 0
    rows_left: int = 0
    rows_right: int = 0
    rows_out: int = 0
    # Summed per call (sum of l_i * r_i), not left-sum x right-sum: a
    # morsel-parallel execution joins each morsel against the full build
    # side, and the product of the sums would overcount the cross space
    # by the number of morsels.
    cross_rows: int = 0
    seconds: float = 0.0

    @property
    def selectivity(self) -> Optional[float]:
        if self.cross_rows <= 0:
            return None
        return self.rows_out / self.cross_rows


@dataclass
class PartitionProfile:
    """Observed behaviour of one partition under one operator.

    Recorded by partition-restricted executions (morsel scans, the
    per-partition predict dispatch): ``rows_in`` counts partition rows
    scanned, ``rows_out`` the rows the operator's pipeline segment kept —
    so ``selectivity`` is the partition's *observed* survival rate, the
    quantity whose per-shard skew the data-induced rule and the morsel
    scheduler both consume.
    """

    partition: int
    fingerprint: str
    calls: int = 0
    rows_in: int = 0
    rows_out: int = 0
    seconds: float = 0.0

    @property
    def selectivity(self) -> Optional[float]:
        if self.rows_in <= 0:
            return None
        return self.rows_out / self.rows_in


@dataclass
class OperatorProfile:
    """One plan operator's aggregated runtime observations.

    ``seconds`` is inclusive (operator + its inputs); :attr:`self_seconds`
    subtracts the children, which is what per-operator cost models want.
    ``rows_in`` is the sum of the children's output cardinalities (for a
    Scan, the rows it read).
    """

    operator: str
    fingerprint: str
    calls: int = 0
    rows_in: int = 0
    rows_out: int = 0
    seconds: float = 0.0
    children: List["OperatorProfile"] = field(default_factory=list)
    conjuncts: List[ConjunctProfile] = field(default_factory=list)
    joins: List[JoinStepProfile] = field(default_factory=list)
    partitions: List[PartitionProfile] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    @property
    def selectivity(self) -> Optional[float]:
        if self.rows_in <= 0:
            return None
        return self.rows_out / self.rows_in

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        sel = (f" sel={self.selectivity:.3f}"
               if self.selectivity is not None else "")
        lines = [f"{pad}{self.operator}: {self.rows_in}->{self.rows_out} rows"
                 f"{sel} {self.self_seconds * 1e3:.2f}ms"]
        for part in self.conjuncts:
            psel = f"{part.selectivity:.3f}" if part.selectivity is not None \
                else "?"
            lines.append(f"{pad}  [conjunct sel={psel} "
                         f"{part.seconds * 1e3:.2f}ms] {part.expression}")
        for step in self.joins:
            lines.append(f"{pad}  [join step {step.rows_left}x"
                         f"{step.rows_right}->{step.rows_out} rows "
                         f"{step.seconds * 1e3:.2f}ms] {step.detail}")
        for part in self.partitions:
            psel = f"{part.selectivity:.3f}" if part.selectivity is not None \
                else "?"
            lines.append(f"{pad}  [partition {part.partition} "
                         f"{part.rows_in}->{part.rows_out} rows sel={psel} "
                         f"{part.seconds * 1e3:.2f}ms]")
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


class _NodeAccumulator:
    __slots__ = ("calls", "rows_out", "seconds")

    def __init__(self):
        self.calls = 0
        self.rows_out = 0
        self.seconds = 0.0


class PlanProfiler:
    """Thread-safe per-execution collector of operator observations.

    One profiler is shared by every :class:`~repro.relational.executor.
    Executor` pass of a query (every morsel and the serial tail), so the
    assembled tree aggregates the whole execution. Accumulators key on
    node identity (the plan object outlives the run); fingerprints are
    resolved once, at :meth:`profile_tree` time.
    """

    __slots__ = ("_lock", "_nodes", "_conjuncts", "_joins", "_partitions")

    def __init__(self):
        self._lock = threading.Lock()
        self._nodes: Dict[int, _NodeAccumulator] = {}
        self._conjuncts: Dict[Tuple[int, int], ConjunctProfile] = {}
        self._joins: Dict[Tuple[int, int], JoinStepProfile] = {}
        self._partitions: Dict[Tuple[int, int], PartitionProfile] = {}

    # ------------------------------------------------------------------
    def record_operator(self, node: PlanNode, rows_out: int,
                        seconds: float) -> None:
        with self._lock:
            acc = self._nodes.get(id(node))
            if acc is None:
                acc = self._nodes[id(node)] = _NodeAccumulator()
            acc.calls += 1
            acc.rows_out += rows_out
            acc.seconds += seconds

    def record_conjunct(self, node: Filter, index: int, expression: Expression,
                        rows_in: int, rows_out: int, seconds: float) -> None:
        key = (id(node), index)
        with self._lock:
            part = self._conjuncts.get(key)
            if part is None:
                part = self._conjuncts[key] = ConjunctProfile(
                    expression=repr(expression),
                    fingerprint=conjunct_fingerprint(node, index),
                )
            part.calls += 1
            part.rows_in += rows_in
            part.rows_out += rows_out
            part.seconds += seconds

    def record_join(self, node: PlanNode, step: int, detail: str,
                    rows_left: int, rows_right: int, rows_out: int,
                    seconds: float) -> None:
        """Record one join step (binary Join: step 0; MultiJoin: per step).

        Silently skipped when the node's join region cannot be extracted
        (no stable fingerprint to aggregate under).
        """
        fps = join_step_fingerprints(node)
        if fps is None or step >= len(fps):
            return
        key = (id(node), step)
        with self._lock:
            entry = self._joins.get(key)
            if entry is None:
                entry = self._joins[key] = JoinStepProfile(
                    detail=detail, fingerprint=fps[step])
            entry.calls += 1
            entry.rows_left += rows_left
            entry.rows_right += rows_right
            entry.rows_out += rows_out
            entry.cross_rows += rows_left * rows_right
            entry.seconds += seconds

    def record_partition(self, node: PlanNode, partition: int,
                         rows_in: int, rows_out: int,
                         seconds: float) -> None:
        """Record one partition-restricted execution of ``node``'s segment.

        Called per morsel (several morsels of one partition accumulate
        into one entry) and per partition-specialized predict dispatch.
        """
        key = (id(node), partition)
        with self._lock:
            entry = self._partitions.get(key)
            if entry is None:
                entry = self._partitions[key] = PartitionProfile(
                    partition=partition,
                    fingerprint=partition_fingerprint(
                        plan_fingerprint(node), partition),
                )
            entry.calls += 1
            entry.rows_in += rows_in
            entry.rows_out += rows_out
            entry.seconds += seconds

    # ------------------------------------------------------------------
    def profile_tree(self, plan: PlanNode) -> OperatorProfile:
        """Assemble the profile tree for ``plan`` from the accumulators.

        Nodes that never executed (e.g. a serial tail applied over an
        already-materialized table) appear with zero calls, so the tree
        always mirrors the full plan shape.
        """
        with self._lock:
            nodes = dict(self._nodes)
            conjunct_parts = dict(self._conjuncts)
            join_parts = dict(self._joins)
            partition_parts = dict(self._partitions)
        return self._assemble(plan, nodes, conjunct_parts, join_parts,
                              partition_parts)

    def _assemble(self, node: PlanNode, nodes, conjunct_parts, join_parts,
                  partition_parts) -> OperatorProfile:
        children = [self._assemble(child, nodes, conjunct_parts, join_parts,
                                   partition_parts)
                    for child in node.children()]
        acc = nodes.get(id(node))
        profile = OperatorProfile(
            operator=operator_label(node),
            fingerprint=plan_fingerprint(node),
            calls=acc.calls if acc else 0,
            rows_out=acc.rows_out if acc else 0,
            seconds=acc.seconds if acc else 0.0,
            children=children,
        )
        if children:
            profile.rows_in = sum(child.rows_out for child in children)
        else:
            # Leaves (scans) read what they emit.
            profile.rows_in = profile.rows_out
        if isinstance(node, Filter):
            parts = [part for (node_id, _), part
                     in sorted(conjunct_parts.items())
                     if node_id == id(node)]
            profile.conjuncts = parts
        if isinstance(node, (Join, MultiJoin)):
            profile.joins = [part for (node_id, _), part
                             in sorted(join_parts.items())
                             if node_id == id(node)]
        parts = [part for (node_id, _), part
                 in sorted(partition_parts.items()) if node_id == id(node)]
        if parts:
            profile.partitions = parts
        return profile

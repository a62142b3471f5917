"""Feedback-driven plan re-optimization.

The optimizer's static rules position operators; these passes *tune* them
from what the :class:`~repro.adaptive.feedback.FeedbackStore` observed:

* **Conjunct reordering** — a Filter over ``a AND b AND c`` is evaluated
  as a short-circuit cascade by the compiled expression engine, so the
  order of conjuncts decides how many rows each one touches. The pass
  orders conjuncts by the classic rank criterion
  ``(selectivity - 1) / cost`` (most filtering power per unit cost
  first), using observed per-conjunct selectivities and per-row costs.
* **Join build side** — the vectorized equi-join sorts one side and
  probes it with the other; sorting the observably smaller side is
  cheaper. The pass annotates ``Join.build_side`` from observed child
  cardinalities (the executor restores the default output order, so the
  annotation is invisible in results).
* **Join ordering** — a region of inner equi-joins (three or more
  relations) is flattened into a join graph and ordered greedily by
  estimated output cardinality: base-table statistics when cold,
  FeedbackStore EWMA cardinalities and per-edge join selectivities when
  warm. A reordered region executes as a :class:`MultiJoin`, whose
  canonical output order (per-input row positions, original input order
  major) is exactly what the written binary-join tree emits — so the
  rewrite preserves row content *and* row order bit-for-bit.
* **Predict batch sizing** — batched model invocation amortizes dispatch
  overhead; the per-model per-row cost observed by the runtime sizes
  ``Predict.batch_rows`` so one batch lands near a target wall time
  instead of the static default.

Every decision carries **hysteresis** (reordering needs a >10% modeled
win, build-side swaps need a 4x cardinality gap and persist until it
narrows below 2.5x, batch sizes snap to powers of two), so a warmed plan
reaches a fixed point instead of oscillating — the session re-optimizes
a cached plan only while :func:`apply_feedback` still wants to change
it, or when a fingerprint's EWMA drift signal fires.

All rewrites are *result-preserving*: AND is commutative (and reordering
is refused when any conjunct could raise on rows another one guards),
the build-side join restores probe-major row order bit-for-bit, the
MultiJoin emits the canonical (written-order) row order regardless of
its execution sequence, and model outputs are row-independent across
batch boundaries.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.adaptive.feedback import FeedbackStore
from repro.adaptive.profile import (
    conjunct_fingerprint,
    join_edge_fingerprint,
    join_region,
    plan_fingerprint,
)
from repro.relational.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    Literal,
    UnaryOp,
    conjunction,
    conjuncts,
)
from repro.relational.logical import (
    Aggregate,
    Filter,
    Join,
    JoinEdge,
    Limit,
    MultiJoin,
    PlanNode,
    Predict,
    PredictMode,
    Project,
    Scan,
    Sort,
    transform_plan,
    walk,
)

# Reordering must model a real win before touching a plan (hysteresis).
REORDER_MIN_GAIN = 0.10
# Join-order changes likewise: the greedy sequence must model at least
# this fractional reduction in summed intermediate cardinalities before a
# (possibly cached, warmed) plan is disturbed.
JOIN_REORDER_MIN_GAIN = 0.10
# Cold-start estimation defaults (no feedback, no statistics): the
# textbook guesses — a filter conjunct keeps 1/4 of its input, a group-by
# collapses to a tenth, an unknown relation has a thousand rows.
DEFAULT_FILTER_SELECTIVITY = 0.25
DEFAULT_GROUP_FRACTION = 0.10
DEFAULT_TABLE_ROWS = 1_000.0
# Build-side swaps pay an output re-sort; require a clear size gap to
# swap, and keep the swap until the gap narrows well below it (a
# hysteresis band, so an EWMA hovering at the boundary cannot thrash the
# plan cache with re-optimizations).
BUILD_SIDE_RATIO = 4.0
BUILD_SIDE_KEEP_RATIO = 2.5
# Predict batch sizing: aim one batch at this wall time, snapped to a
# power of two within [MIN, MAX] rows.
TARGET_BATCH_SECONDS = 0.25
MIN_BATCH_ROWS = 2_048
MAX_BATCH_ROWS = 262_144

_TOTAL_BINARY_OPS = frozenset(
    {"+", "-", "*", "and", "or", "=", "<>", "<", "<=", ">", ">="})


def _is_total(expr: Expression) -> bool:
    """True when evaluating ``expr`` on any row can never raise or warn.

    Division, casts and library functions (``log``, ``sqrt``, ...) are
    partial: a sibling conjunct may be guarding their domain, so filters
    containing them keep their written order.
    """
    if isinstance(expr, (ColumnRef, Literal)):
        return True
    if isinstance(expr, BinaryOp):
        return (expr.op in _TOTAL_BINARY_OPS
                and _is_total(expr.left) and _is_total(expr.right))
    if isinstance(expr, UnaryOp):
        return _is_total(expr.operand)
    if isinstance(expr, Between):
        return all(_is_total(child) for child in expr.children())
    if isinstance(expr, InList):
        return all(_is_total(child) for child in expr.children())
    return False


def _cascade_cost(order: List[int], selectivities: List[float],
                  costs: List[float]) -> float:
    """Modeled per-row cost of evaluating conjuncts in ``order``.

    Conjunct ``k`` only touches the rows every earlier conjunct kept
    (independence assumption — the same one textbook selectivity
    estimation makes).
    """
    total = 0.0
    active = 1.0
    for index in order:
        total += costs[index] * active
        active *= selectivities[index]
    return total


def plan_conjunct_order(filter_node: Filter, store: FeedbackStore
                        ) -> Optional[List[int]]:
    """The conjunct order feedback prefers, or None to keep the plan's.

    Requires observed selectivity for *every* conjunct (a partially
    observed filter keeps its order), refuses non-total conjuncts, and
    applies rank ordering ``(s - 1) / c`` with a minimum modeled gain.
    """
    parts = conjuncts(filter_node.predicate)
    if len(parts) < 2:
        return None
    if not all(_is_total(part) for part in parts):
        return None
    selectivities: List[float] = []
    costs: List[float] = []
    for index in range(len(parts)):
        feedback = store.observed(conjunct_fingerprint(filter_node, index))
        if feedback is None or feedback.selectivity_fast is None:
            return None
        selectivities.append(min(1.0, max(0.0, feedback.selectivity_fast)))
        costs.append(feedback.seconds_per_row_ewma or 1.0)
    # Normalize costs so the rank is scale-free; guard degenerate zeros.
    mean_cost = sum(costs) / len(costs)
    if mean_cost <= 0.0:
        costs = [1.0] * len(parts)
    else:
        costs = [max(cost / mean_cost, 1e-6) for cost in costs]
    ranks = sorted(range(len(parts)),
                   key=lambda i: ((selectivities[i] - 1.0) / costs[i], i))
    if ranks == list(range(len(parts))):
        return None
    current = _cascade_cost(list(range(len(parts))), selectivities, costs)
    best = _cascade_cost(ranks, selectivities, costs)
    if best >= current * (1.0 - REORDER_MIN_GAIN):
        return None  # not worth disturbing a warmed plan
    return ranks


def plan_build_side(join: Join, store: FeedbackStore) -> Optional[str]:
    """``"left"`` when the left input is observably much smaller.

    Without observations for both children the plan's current choice is
    kept. Swapping needs a :data:`BUILD_SIDE_RATIO` gap; an existing swap
    is kept until the gap narrows below :data:`BUILD_SIDE_KEEP_RATIO`.

    Only ``inner`` and ``left`` joins — the combinations the executor's
    build-left variant implements — are ever annotated; anything else
    keeps its current (validated-at-construction) value, so adaptive
    re-optimization cannot emit a hint the executor would reject.
    """
    if join.how not in ("inner", "left"):  # pragma: no cover - Join
        return join.build_side             # validates how at construction
    left_rows = store.rows_out(plan_fingerprint(join.left))
    right_rows = store.rows_out(plan_fingerprint(join.right))
    if left_rows is None or right_rows is None:
        return join.build_side  # no evidence either way: keep the plan's
    ratio = (BUILD_SIDE_KEEP_RATIO if join.build_side == "left"
             else BUILD_SIDE_RATIO)
    if left_rows * ratio < right_rows:
        return "left"
    return None


def plan_batch_rows(predict: Predict, store: FeedbackStore,
                    default_batch_rows: int) -> Optional[int]:
    """Feedback-derived batch size for a Predict node, or None for default.

    Only annotates when batching actually occurs (observed input exceeds
    the default batch size) and the derived size — snapped to a power of
    two — differs from the default. Applies to the ML-runtime mode; the
    tensor runtimes execute whole inputs at once.
    """
    if predict.mode is not PredictMode.ML_RUNTIME:
        return None
    per_row = store.predict_per_row_cost(predict.model_name)
    rows = store.rows_out(plan_fingerprint(predict.child))
    if per_row is None or rows is None or per_row <= 0.0:
        return None
    if rows <= default_batch_rows:
        return None  # a single batch already; sizing is moot
    desired = TARGET_BATCH_SECONDS / per_row
    snapped = 1 << max(0, round(float(desired)).bit_length() - 1)
    snapped = max(MIN_BATCH_ROWS, min(MAX_BATCH_ROWS, snapped))
    if snapped == default_batch_rows:
        return None
    return snapped


# ---------------------------------------------------------------------------
# Join ordering: greedy by estimated output cardinality
# ---------------------------------------------------------------------------

def estimated_rows(node: PlanNode, store: FeedbackStore,
                   catalog=None) -> float:
    """Estimated output cardinality of a subplan.

    Observed (FeedbackStore EWMA) when warm; otherwise a structural
    statistics-based estimate: base-table row counts from the catalog,
    scaled by the textbook default selectivity per filter conjunct.
    """
    observed = store.rows_out(plan_fingerprint(node))
    if observed is not None:
        return max(float(observed), 0.0)
    return _static_rows(node, catalog)


def _static_rows(node: PlanNode, catalog) -> float:
    if isinstance(node, Scan):
        if catalog is not None and catalog.has_table(node.table_name):
            return float(catalog.table(node.table_name).num_rows)
        return DEFAULT_TABLE_ROWS
    if isinstance(node, Filter):
        child = _static_rows(node.child, catalog)
        return child * DEFAULT_FILTER_SELECTIVITY ** len(conjuncts(node.predicate))
    if isinstance(node, Limit):
        return min(float(node.count), _static_rows(node.child, catalog))
    if isinstance(node, Aggregate):
        if not node.group_by:
            return 1.0
        return max(1.0, _static_rows(node.child, catalog)
                   * DEFAULT_GROUP_FRACTION)
    if isinstance(node, Join):
        left = _static_rows(node.left, catalog)
        if node.how == "left":
            return left  # left outer preserves the left cardinality
        return max(left, _static_rows(node.right, catalog))
    if isinstance(node, MultiJoin):
        return max(_static_rows(child, catalog) for child in node.inputs)
    children = node.children()
    if len(children) == 1:  # Project / Predict / Sort: row-preserving
        return _static_rows(children[0], catalog)
    return DEFAULT_TABLE_ROWS


def _key_distinct(leaf: PlanNode, column: str, catalog) -> Optional[float]:
    """Distinct count of a join key column from base-table statistics."""
    base = leaf
    while isinstance(base, (Filter, Limit, Sort)):
        base = base.children()[0]
    if not isinstance(base, Scan) or catalog is None:
        return None
    alias, _, unqualified = column.partition(".")
    if alias != base.alias or not catalog.has_table(base.table_name):
        return None
    stats = catalog.table(base.table_name).stats.column(unqualified)
    if stats is None or stats.distinct_count is None:
        return None
    return float(max(stats.distinct_count, 1))


class _JoinOrderModel:
    """Cost model over one join region: cards + step selectivities."""

    def __init__(self, region, store: FeedbackStore, catalog):
        self.leaves = list(region.leaves)
        self.edges = list(region.edges)
        self.leaf_fps = [plan_fingerprint(leaf) for leaf in self.leaves]
        self.cards = [estimated_rows(leaf, store, catalog)
                      for leaf in self.leaves]
        self.store = store
        self.catalog = catalog
        self._sel_cache: Dict[Tuple[FrozenSet[int], int], Optional[float]] = {}

    def step_edges(self, joined: FrozenSet[int], target: int) -> List[JoinEdge]:
        return [edge for edge in self.edges
                if (edge.left_input == target and edge.right_input in joined)
                or (edge.right_input == target and edge.left_input in joined)]

    def selectivity(self, joined: FrozenSet[int],
                    target: int) -> Optional[float]:
        """Selectivity of joining ``target`` into ``joined``; None when
        disconnected (a cross product — never chosen)."""
        key = (joined, target)
        if key in self._sel_cache:
            return self._sel_cache[key]
        step = self.step_edges(joined, target)
        if not step:
            self._sel_cache[key] = None
            return None
        observed = self.store.selectivity(
            join_edge_fingerprint(self.leaf_fps, step))
        if observed is not None:
            result = min(max(float(observed), 0.0), 1.0)
        else:
            # Cold: the classic 1 / max(ndv) per key pair, with the leaf's
            # estimated cardinality standing in for an unknown ndv.
            result = 1.0
            for edge in step:
                ndv_left = _key_distinct(self.leaves[edge.left_input],
                                         edge.left_key, self.catalog) \
                    or max(self.cards[edge.left_input], 1.0)
                ndv_right = _key_distinct(self.leaves[edge.right_input],
                                          edge.right_key, self.catalog) \
                    or max(self.cards[edge.right_input], 1.0)
                result /= max(ndv_left, ndv_right, 1.0)
        self._sel_cache[key] = result
        return result

    # ------------------------------------------------------------------
    def greedy_sequence(self) -> Optional[List[int]]:
        """Greedy order: cheapest connected pair first, then repeatedly
        the connected input minimizing the estimated step output."""
        count = len(self.leaves)
        pairs = sorted({(edge.left_input, edge.right_input)
                        for edge in self.edges})
        best_pair = None
        best_key = None
        for i, j in pairs:
            sel = self.selectivity(frozenset((i,)), j)
            if sel is None:  # pragma: no cover - pairs share an edge
                continue
            out = self.cards[i] * self.cards[j] * sel
            key = (out, min(self.cards[i], self.cards[j]), i, j)
            if best_key is None or key < best_key:
                best_key, best_pair = key, (i, j, out)
        if best_pair is None:
            return None
        i, j, current = best_pair
        sequence = [i, j]
        joined = {i, j}
        while len(sequence) < count:
            best_target = None
            best_target_key = None
            for target in range(count):
                if target in joined:
                    continue
                sel = self.selectivity(frozenset(joined), target)
                if sel is None:
                    continue  # not yet connected
                out = current * self.cards[target] * sel
                key = (out, self.cards[target], target)
                if best_target_key is None or key < best_target_key:
                    best_target_key = key
                    best_target = (target, out)
            if best_target is None:
                return None  # disconnected graph: keep the written order
            target, current = best_target
            sequence.append(target)
            joined.add(target)
        return sequence

    def sequence_cost(self, sequence: List[int]) -> float:
        """Summed estimated intermediate cardinalities (the C_out model)."""
        current = self.cards[sequence[0]]
        joined = {sequence[0]}
        total = 0.0
        for target in sequence[1:]:
            sel = self.selectivity(frozenset(joined), target)
            if sel is None:
                return float("inf")  # sequence needs a cross product
            current = current * self.cards[target] * sel
            total += current
            joined.add(target)
        return total


def plan_join_order(node: PlanNode, store: FeedbackStore,
                    catalog=None) -> Optional[List[int]]:
    """The execution sequence feedback/statistics prefer, or None.

    ``node`` is the top of an inner-join region (binary ``Join`` tree or
    ``MultiJoin``). Returns a permutation of the region's original leaf
    order, only when it differs from the plan's current sequence *and*
    models at least :data:`JOIN_REORDER_MIN_GAIN` less summed intermediate
    cardinality (hysteresis — warmed plans reach a fixed point).
    """
    region = join_region(node)
    if region is None or len(region.leaves) < 3:
        return None
    model = _JoinOrderModel(region, store, catalog)
    current = node.sequence() if isinstance(node, MultiJoin) \
        else list(range(len(region.leaves)))
    greedy = model.greedy_sequence()
    if greedy is None or greedy == current:
        return None
    current_cost = model.sequence_cost(current)
    greedy_cost = model.sequence_cost(greedy)
    if greedy_cost >= current_cost * (1.0 - JOIN_REORDER_MIN_GAIN):
        return None
    return greedy


def _replace_region_leaves(node: PlanNode,
                           leaves: Iterator[PlanNode]) -> PlanNode:
    """Rebuild a join region's internal shape over replacement leaves
    (consumed in the same in-order sequence ``join_region`` flattens)."""
    if isinstance(node, Join) and node.how == "inner":
        left = _replace_region_leaves(node.left, leaves)
        right = _replace_region_leaves(node.right, leaves)
        if left is node.left and right is node.right:
            return node
        return node.with_children([left, right])
    if isinstance(node, MultiJoin):
        new_inputs = [next(leaves) for _ in node.inputs]
        if all(new is old for new, old in zip(new_inputs, node.inputs)):
            return node
        return MultiJoin(new_inputs, node.edges, node.order,
                         order_insensitive=node.order_insensitive)
    return next(leaves)


def _reorder_joins(node: PlanNode, store: FeedbackStore, catalog,
                   info: Dict[str, object]) -> PlanNode:
    """Top-down pass applying :func:`plan_join_order` to region tops.

    Regions are handled at their topmost node only (the maximal set of
    adjacent inner joins); recursion continues *inside the region's
    leaves*, so nested regions below non-join operators are still
    visited.
    """
    if (isinstance(node, Join) and node.how == "inner") \
            or isinstance(node, MultiJoin):
        region = join_region(node)
        if region is not None:
            new_leaves = [_reorder_joins(leaf, store, catalog, info)
                          for leaf in region.leaves]
            leaves_changed = any(new is not old for new, old
                                 in zip(new_leaves, region.leaves))
            desired = plan_join_order(node, store, catalog)
            if desired is not None:
                info["joins_reordered"] = int(info["joins_reordered"]) + 1
                order = None if desired == list(range(len(new_leaves))) \
                    else desired
                return MultiJoin(new_leaves, list(region.edges), order,
                                 order_insensitive=isinstance(node, MultiJoin)
                                 and node.order_insensitive)
            if not leaves_changed:
                return node
            if isinstance(node, MultiJoin):
                return MultiJoin(new_leaves, node.edges, node.order,
                                 order_insensitive=node.order_insensitive)
            return _replace_region_leaves(node, iter(new_leaves))
    children = node.children()
    if not children:
        return node
    new_children = [_reorder_joins(child, store, catalog, info)
                    for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return node
    return node.with_children(new_children)


#: Aggregate functions whose result is invariant under any permutation of
#: their input rows. ``sum``/``avg`` are excluded deliberately: float
#: addition is non-associative, so a different accumulation order can
#: differ in the last ULPs — and bit-for-bit means bit-for-bit.
PERMUTATION_INVARIANT_AGGS = frozenset({"count", "min", "max"})


def _annotate_order_insensitive(node: PlanNode,
                                order_free: bool = False) -> PlanNode:
    """Mark MultiJoins whose canonical output sort provably cannot matter.

    ``order_free`` is True when every operator between here and the query
    result includes an ``Aggregate`` whose functions are all
    permutation-invariant (:data:`PERMUTATION_INVARIANT_AGGS`), reached
    through row-order-preserving operators only (``Filter``/``Project``)
    — grouped output is keyed (sorted by group value), so row order below
    such an aggregate is unobservable. A marked ``MultiJoin`` skips its
    canonical output sort; unmarked plans keep the sorted path, which is
    the differential oracle for this rewrite. Identity-preserving when
    nothing changes, like every reopt pass.
    """
    if isinstance(node, Aggregate):
        child_free = all(spec.func in PERMUTATION_INVARIANT_AGGS
                         for spec in node.aggregates)
    elif isinstance(node, (Filter, Project)):
        child_free = order_free
    else:
        # Order-sensitive consumers (Sort re-sorts but Limit/Join/Predict
        # observe row order; being conservative costs only the sort).
        child_free = False
    if isinstance(node, MultiJoin):
        inputs = [_annotate_order_insensitive(child)
                  for child in node.inputs]
        changed = any(new is not old
                      for new, old in zip(inputs, node.inputs))
        if order_free != node.order_insensitive or changed:
            return MultiJoin(inputs, node.edges, node.order,
                             order_insensitive=order_free)
        return node
    children = node.children()
    if not children:
        return node
    new_children = [_annotate_order_insensitive(child, child_free)
                    for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return node
    return node.with_children(new_children)


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

def apply_feedback(plan: PlanNode, store: FeedbackStore,
                   default_batch_rows: int, catalog=None
                   ) -> Tuple[PlanNode, bool, Dict[str, object]]:
    """Rewrite ``plan`` using observed feedback.

    Returns ``(plan, changed, info)``; ``changed`` is False when every
    decision matched what the plan already encodes — which is also the
    session's staleness test for cached plans (a warmed plan goes stale
    exactly when this pass would now produce something different).

    ``catalog`` (optional) supplies base-table statistics for the join
    ordering pass's cold estimates; without it the pass still runs on
    feedback observations and default guesses.
    """
    info: Dict[str, object] = {
        "filters_reordered": 0,
        "joins_build_left": 0,
        "joins_reordered": 0,
        "joins_sort_skipped": 0,
        "predicts_batch_sized": 0,
    }
    plan_joins = _reorder_joins(plan, store, catalog, info)
    plan_joins = _annotate_order_insensitive(plan_joins)
    info["joins_sort_skipped"] = sum(
        1 for node in walk(plan_joins)
        if isinstance(node, MultiJoin) and node.order_insensitive)

    def rewrite(node: PlanNode) -> Optional[PlanNode]:
        if isinstance(node, Filter):
            order = plan_conjunct_order(node, store)
            if order is None:
                return None
            parts = conjuncts(node.predicate)
            info["filters_reordered"] += 1
            predicate = conjunction([parts[index] for index in order])
            return Filter(node.child, predicate)
        if isinstance(node, Join):
            desired = plan_build_side(node, store)
            if desired == node.build_side:
                return None
            if desired != "left" and node.build_side is None:
                return None
            info["joins_build_left"] += int(desired == "left")
            rebuilt = Join(node.left, node.right, node.left_keys,
                           node.right_keys, node.how, build_side=desired)
            return rebuilt
        if isinstance(node, Predict):
            desired = plan_batch_rows(node, store, default_batch_rows)
            if desired == node.batch_rows:
                return None
            info["predicts_batch_sized"] += int(desired is not None)
            return node.replace(batch_rows=desired)
        return None

    rewritten = transform_plan(plan_joins, rewrite)
    # Every decision that differs from the plan returns a replacement
    # node, so object identity is the complete change test (it also
    # catches annotation *reverts*, which increment no counter).
    return rewritten, rewritten is not plan, info


def feedback_divergence(plan: PlanNode, store: FeedbackStore,
                        default_batch_rows: int, catalog=None) -> bool:
    """Would :func:`apply_feedback` change ``plan`` right now?

    The session calls this after each profiled execution of a cached
    plan; True marks the cache entry stale so the next lookup re-optimizes
    through the single-flight path.
    """
    _, changed, _ = apply_feedback(plan, store, default_batch_rows, catalog)
    return changed


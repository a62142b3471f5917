"""Compiled expression programs: CSE, constant folding, masked routing.

The MLtoSQL transformation (paper §5.1) bets that scalar SQL expressions
beat a model runtime — but the interpreted :meth:`Expression.evaluate`
walks the tree naively: ``np.select`` evaluates *every* CASE branch on
*every* row (O(rows × leaves) for a translated decision tree instead of
O(rows × depth)), and each projection output re-evaluates shared
subexpressions from scratch. This module lowers an expression tree — or a
whole Project output list at once — into a flat SSA-style program of
vectorized instructions:

* **Common-subexpression elimination** — one instruction per structurally
  distinct subtree across all outputs (the existing structural hashes of
  :class:`Expression` drive deduplication), so an MLtoSQL feature used by
  every node of a translated tree is computed once.
* **Masked/routed evaluation** — ``CASE WHEN`` and short-circuiting
  ``AND``/``OR`` evaluate each branch only on the rows still active for
  it (gather → compute → scatter), skipping branches whose active set is
  empty. This restores tree-traversal cost for translated trees and stops
  poisoned expressions (``1/x`` guarded by ``x <> 0``) from ever touching
  the guarded-out rows.
* **Constant folding** — literal-only subtrees are evaluated once at
  compile time and broadcast (zero-copy) at run time.
* **String compares on dictionary codes** — ``=``, ``<>`` and ``IN``
  between a STRING column and string literals (every MLtoSQL one-hot
  split) lower to one ``strin`` instruction. When the run's source
  carries dictionary codes for the column (built at registration, see
  :mod:`repro.storage.column`), it maps the literals to codes once per
  run and compares ``uint8`` codes; a literal absent from the dictionary
  gives a constant result. Without codes (spilled columns, computed
  strings, join outputs, partitions with differing dictionaries) it runs
  the string compare the ``cmp``/``in`` instructions would.

Programs are bit-for-bit equivalent to the interpreted path (which stays
available as the differential-testing oracle behind the session flag
``compile_expressions=False``): every instruction applies the exact numpy
ops :meth:`Expression.evaluate` would, just on fewer rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExpressionError
from repro.relational.expressions import (
    _COMPARE_FUNCS,
    _FUNCTIONS,
    Between,
    BinaryOp,
    Cast,
    CaseWhen,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    Literal,
    UnaryOp,
    _one_row_table,
)
from repro.storage.column import DataType
from repro.storage.table import Schema

_NP_DTYPES = {
    DataType.FLOAT: np.float64,
    DataType.INT: np.int64,
    DataType.BOOL: np.bool_,
}


def _code_lookup(source, name: str, values: np.ndarray, negated: bool
                 ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Codes of column ``name`` and a 256-entry result table, or None.

    ``table[code]`` is the compare's result for a row carrying ``code``:
    True for the literals found in the dictionary (numpy string equality,
    exactly as the string compare) and flipped for ``<>``.
    """
    encoded = source.codes(name)
    if encoded is None:
        return None
    dictionary, codes = encoded
    table = np.zeros(256, dtype=np.bool_)
    if len(dictionary):
        positions = np.minimum(np.searchsorted(dictionary, values),
                               len(dictionary) - 1)
        hits = positions[dictionary[positions] == values]
        table[hits] = True
    if negated:
        np.logical_not(table, out=table)
    return codes, table


class _Instr:
    """One SSA instruction: an opcode, input slots, and static payload."""

    __slots__ = ("kind", "args", "payload")

    def __init__(self, kind: str, args: Tuple[int, ...] = (), payload=None):
        self.kind = kind
        self.args = args
        self.payload = payload

    def __repr__(self):
        inner = ", ".join(f"%{a}" for a in self.args)
        extra = f" {self.payload!r}" if self.payload is not None else ""
        return f"{self.kind}({inner}){extra}"


class _RunContext:
    """Per-run mutable state: source columns and the full-row value memo."""

    __slots__ = ("source", "num_rows", "columns", "full", "lookups")

    def __init__(self, source):
        self.source = source
        self.num_rows = source.num_rows
        self.columns: Dict[str, np.ndarray] = {}
        # slot -> value over ALL rows of the source; masked evaluations
        # gather from here instead of recomputing.
        self.full: Dict[int, np.ndarray] = {}
        # id(strin instruction) -> (codes over all rows, result table by
        # code), or None when the source has no codes for the column.
        self.lookups: Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]] = {}

    def column(self, name: str) -> np.ndarray:
        array = self.columns.get(name)
        if array is None:
            array = self.source.array(name)
            self.columns[name] = array
        return array


class CompiledProgram:
    """A compiled DAG of vectorized instructions for named outputs.

    Immutable after construction and therefore safe to share across
    threads (each :meth:`run` call builds its own :class:`_RunContext`);
    the relational executor caches one program per plan node, so plans
    held by the serving PlanCache skip compilation entirely on warm hits.
    """

    __slots__ = ("instructions", "uses", "outputs")

    def __init__(self, instructions: List[_Instr], uses: List[int],
                 outputs: List[Tuple[str, int, DataType]]):
        self.instructions = instructions
        self.uses = uses
        self.outputs = outputs

    # ------------------------------------------------------------------
    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    def output_dtypes(self) -> List[Tuple[str, DataType]]:
        return [(name, dtype) for name, _, dtype in self.outputs]

    def __repr__(self):
        names = ", ".join(name for name, _, _ in self.outputs)
        return (f"CompiledProgram({self.num_instructions} instrs -> "
                f"[{names}])")

    def pretty(self) -> str:
        """Readable SSA listing (debugging / tests)."""
        lines = [f"%{i} = {instr!r}  (uses={self.uses[i]})"
                 for i, instr in enumerate(self.instructions)]
        for name, slot, dtype in self.outputs:
            lines.append(f"output {name}: %{slot} ({dtype.value})")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def run(self, source) -> Dict[str, np.ndarray]:
        """Evaluate all outputs over a Table or TableView.

        Outputs match the interpreted path's contract: each is a fresh,
        writable array — constant broadcasts (read-only, 0-stride) and
        slots shared between outputs are copied on the way out so no two
        result columns alias each other.
        """
        ctx = _RunContext(source)
        results: Dict[str, np.ndarray] = {}
        emitted: Dict[int, str] = {}
        for name, slot, _ in self.outputs:
            value = self._eval(slot, ctx, None, ctx.full)
            if not value.flags.writeable or slot in emitted:
                value = value.copy()
            emitted[slot] = name
            results[name] = value
        return results

    def run_single(self, source) -> np.ndarray:
        """Evaluate a single-output program (Filter predicates)."""
        (name, slot, _), = self.outputs
        ctx = _RunContext(source)
        return self._eval(slot, ctx, None, ctx.full)

    # ------------------------------------------------------------------
    # Evaluation. ``active`` is None (all rows) or an int64 index array
    # into the source's row domain; ``memo`` caches values computed for
    # exactly this active set (the top-level memo is ``ctx.full``).
    # ------------------------------------------------------------------
    def _eval(self, slot: int, ctx: _RunContext,
              active: Optional[np.ndarray], memo: Dict[int, np.ndarray]
              ) -> np.ndarray:
        value = memo.get(slot)
        if value is not None:
            return value
        if active is not None:
            full = ctx.full.get(slot)
            if full is not None:
                return full[active]
        instr = self.instructions[slot]
        value = getattr(self, f"_eval_{instr.kind}")(instr, ctx, active, memo)
        if self.uses[slot] > 1:
            memo[slot] = value
        return value

    def _n(self, ctx: _RunContext, active: Optional[np.ndarray]) -> int:
        return ctx.num_rows if active is None else len(active)

    # -- leaves --------------------------------------------------------
    def _eval_const(self, instr, ctx, active, memo):
        # payload: 0-d numpy array; broadcast is zero-copy (read-only).
        return np.broadcast_to(instr.payload, (self._n(ctx, active),))

    def _eval_col(self, instr, ctx, active, memo):
        array = ctx.column(instr.payload)
        return array if active is None else array[active]

    # -- pointwise -----------------------------------------------------
    def _eval_cmp(self, instr, ctx, active, memo):
        left = self._eval(instr.args[0], ctx, active, memo)
        right = self._eval(instr.args[1], ctx, active, memo)
        return instr.payload(left, right)

    def _eval_arith(self, instr, ctx, active, memo):
        left = self._eval(instr.args[0], ctx, active, memo)
        right = self._eval(instr.args[1], ctx, active, memo)
        op = instr.payload
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        # SQL float semantics: x/0 is IEEE inf/nan, silently (masked
        # routing already keeps guarded rows out; unguarded divisions
        # must not warn either — the suite promotes warnings to errors).
        with np.errstate(divide="ignore", invalid="ignore"):
            return left.astype(np.float64) / right.astype(np.float64)

    def _eval_not(self, instr, ctx, active, memo):
        return np.logical_not(self._eval(instr.args[0], ctx, active, memo))

    def _eval_neg(self, instr, ctx, active, memo):
        value = self._eval(instr.args[0], ctx, active, memo)
        return -value

    def _eval_func(self, instr, ctx, active, memo):
        values = [self._eval(arg, ctx, active, memo).astype(np.float64)
                  for arg in instr.args]
        return instr.payload(*values)

    def _eval_in(self, instr, ctx, active, memo):
        data = self._eval(instr.args[0], ctx, active, memo)
        return np.isin(data, instr.payload)

    def _eval_strin(self, instr, ctx, active, memo):
        # payload: (column name, op: "=", "<>" or "in", literal values
        # as a <U array).
        name, op, values = instr.payload
        key = id(instr)
        if key not in ctx.lookups:
            ctx.lookups[key] = _code_lookup(ctx.source, name, values,
                                            op == "<>")
        found = ctx.lookups[key]
        if found is None:
            data = self._eval(instr.args[0], ctx, active, memo)
            if op == "in":
                return np.isin(data, values)
            return _COMPARE_FUNCS[op](data, values[0])
        codes, table = found
        return table[codes if active is None else codes[active]]

    def _eval_between(self, instr, ctx, active, memo):
        value = self._eval(instr.args[0], ctx, active, memo)
        low = self._eval(instr.args[1], ctx, active, memo)
        high = self._eval(instr.args[2], ctx, active, memo)
        return np.logical_and(value >= low, value <= high)

    def _eval_cast(self, instr, ctx, active, memo):
        value = self._eval(instr.args[0], ctx, active, memo)
        dtype = instr.payload
        if dtype is DataType.FLOAT:
            return value.astype(np.float64)
        if dtype is DataType.INT:
            return value.astype(np.float64).astype(np.int64) \
                if value.dtype.kind == "U" else value.astype(np.int64)
        if dtype is DataType.BOOL:
            return value.astype(np.bool_)
        return value.astype(np.str_)

    # -- routed (masked) evaluation ------------------------------------
    def _eval_and(self, instr, ctx, active, memo):
        left = self._eval(instr.args[0], ctx, active, memo)
        out = left.astype(np.bool_, copy=True)
        need = np.nonzero(out)[0]
        if len(need) == len(out):
            # No rows short-circuit; stay on the shared active set/memo.
            right = self._eval(instr.args[1], ctx, active, memo)
            return np.logical_and(out, right)
        if len(need):
            subset = need if active is None else active[need]
            out[need] = self._eval(instr.args[1], ctx, subset, {})
        return out

    def _eval_or(self, instr, ctx, active, memo):
        left = self._eval(instr.args[0], ctx, active, memo)
        out = left.astype(np.bool_, copy=True)
        need = np.nonzero(~out)[0]
        if len(need) == len(out):
            right = self._eval(instr.args[1], ctx, active, memo)
            return np.logical_or(out, right)
        if len(need):
            subset = need if active is None else active[need]
            out[need] = self._eval(instr.args[1], ctx, subset, {})
        return out

    def _eval_case(self, instr, ctx, active, memo):
        n = self._n(ctx, active)
        np_dtype = instr.payload  # None for string-valued CASE
        pieces: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        out: Optional[np.ndarray] = None
        if np_dtype is not None:
            out = np.empty(n, dtype=np_dtype)
        else:
            pieces = []
        # Remaining rows: local positions into `out` plus absolute
        # indices into the source domain. None means "all of them".
        rem_local: Optional[np.ndarray] = None
        rem_abs = active
        rem_memo = memo
        rem_count = n
        branches = instr.args[:-1]
        default = instr.args[-1]
        for i in range(0, len(branches), 2):
            if rem_count == 0:
                break
            cond = self._eval(branches[i], ctx, rem_abs, rem_memo)
            taken = np.nonzero(cond)[0]
            if len(taken):
                matched_local = taken if rem_local is None else rem_local[taken]
                if len(taken) == rem_count:
                    # Every remaining row matched: same active set, so the
                    # branch value can reuse this set's memo.
                    value = self._eval(branches[i + 1], ctx, rem_abs, rem_memo)
                    self._emit(out, pieces, matched_local, value)
                    rem_count = 0
                    break
                matched_abs = taken if rem_abs is None else rem_abs[taken]
                value = self._eval(branches[i + 1], ctx, matched_abs, {})
                self._emit(out, pieces, matched_local, value)
                kept = np.nonzero(~cond)[0]
                rem_local = kept if rem_local is None else rem_local[kept]
                rem_abs = kept if rem_abs is None else rem_abs[kept]
                rem_memo = {}
                rem_count = len(kept)
        if rem_count:
            value = self._eval(default, ctx, rem_abs, rem_memo)
            local = rem_local if rem_local is not None else slice(None)
            self._emit(out, pieces, local, value)
        if out is not None:
            return out
        # String CASE: widths are only known once the pieces exist.
        if not pieces:
            return np.empty(n, dtype="<U1")
        target = np.result_type(*(value.dtype for _, value in pieces))
        out = np.empty(n, dtype=target)
        for local, value in pieces:
            out[local] = value
        return out

    @staticmethod
    def _emit(out, pieces, local, value):
        if out is not None:
            out[local] = value
        else:
            pieces.append((local, value))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

class _Compiler:
    """Lowers expression trees into one shared instruction DAG."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.instructions: List[_Instr] = []
        self.uses: List[int] = []
        # Structural-hash CSE: one slot per distinct subtree.
        self._slots: Dict[Expression, int] = {}

    # ------------------------------------------------------------------
    def lower(self, expr: Expression) -> int:
        slot = self._slots.get(expr)
        if slot is not None:
            self.uses[slot] += 1
            return slot
        instr = self._lower_new(expr)
        slot = len(self.instructions)
        self.instructions.append(instr)
        self.uses.append(1)
        self._slots[expr] = slot
        return slot

    # ------------------------------------------------------------------
    def _lower_new(self, expr: Expression) -> _Instr:
        if isinstance(expr, Literal):
            return self._const_instr(expr)
        if isinstance(expr, ColumnRef):
            return _Instr("col", payload=expr.name)
        strin = self._string_compare(expr)
        if strin is not None:
            return strin
        children = tuple(self.lower(child) for child in expr.children())
        folded = self._try_fold(expr, children)
        if folded is not None:
            return folded
        if isinstance(expr, BinaryOp):
            if expr.op in _COMPARE_FUNCS:
                return _Instr("cmp", children, _COMPARE_FUNCS[expr.op])
            if expr.op == "and" or expr.op == "or":
                return _Instr(expr.op, children)
            return _Instr("arith", children, expr.op)
        if isinstance(expr, UnaryOp):
            return _Instr("not" if expr.op == "not" else "neg", children)
        if isinstance(expr, FunctionCall):
            _, func = _FUNCTIONS[expr.name]
            return _Instr("func", children, func)
        if isinstance(expr, CaseWhen):
            dtype = expr.output_dtype(self.schema)
            return _Instr("case", children, _NP_DTYPES.get(dtype))
        if isinstance(expr, InList):
            return _Instr("in", children, np.asarray(expr.values))
        if isinstance(expr, Between):
            return _Instr("between", children)
        if isinstance(expr, Cast):
            return _Instr("cast", children, expr.dtype)
        raise ExpressionError(
            f"cannot compile expression node {type(expr).__name__}"
        )

    def _string_compare(self, expr: Expression) -> Optional[_Instr]:
        """``strin`` for ``col = 'v'``, ``col <> 'v'`` or ``col IN ('v', ...)``.

        Only a STRING column against string literals qualifies; anything
        else (mixed-type IN lists, computed operands) lowers as before.
        """
        if isinstance(expr, BinaryOp) and expr.op in ("=", "<>"):
            column, literal = expr.left, expr.right
            if isinstance(column, Literal):
                column, literal = literal, column
            if not (isinstance(literal, Literal)
                    and literal.dtype is DataType.STRING):
                return None
            operand, op, values = column, expr.op, (literal.value,)
        elif isinstance(expr, InList):
            operand, op, values = expr.operand, "in", expr.values
        else:
            return None
        if not (isinstance(operand, ColumnRef)
                and operand.name in self.schema
                and self.schema.dtype_of(operand.name) is DataType.STRING
                and all(isinstance(value, str) for value in values)):
            return None
        return _Instr("strin", (self.lower(operand),),
                      (operand.name, op, np.asarray(values)))

    # ------------------------------------------------------------------
    def _const_instr(self, literal: Literal) -> _Instr:
        np_dtype = _NP_DTYPES.get(literal.dtype)
        if np_dtype is None:  # string: let numpy size the unicode width
            return _Instr("const", payload=np.asarray(literal.value))
        return _Instr("const", payload=np.asarray(literal.value, dtype=np_dtype))

    def _try_fold(self, expr: Expression, children: Tuple[int, ...]
                  ) -> Optional[_Instr]:
        """Fold a subtree whose inputs are all compile-time constants."""
        if not children or any(self.instructions[slot].kind != "const"
                               for slot in children):
            return None
        try:
            with np.errstate(all="ignore"):
                value = expr.evaluate(_one_row_table())
        except Exception:
            return None
        return _Instr("const", payload=np.asarray(value[0]))


def compile_outputs(outputs: Sequence[Tuple[str, Expression]],
                    schema: Schema) -> CompiledProgram:
    """Compile a Project-style output list into one shared program.

    All outputs share a single instruction DAG, so a subexpression used by
    several outputs (MLtoSQL feature pipelines feeding every tree of an
    ensemble) is evaluated exactly once per run.
    """
    compiler = _Compiler(schema)
    compiled: List[Tuple[str, int, DataType]] = []
    for name, expr in outputs:
        slot = compiler.lower(expr)
        compiled.append((name, slot, expr.output_dtype(schema)))
    return CompiledProgram(compiler.instructions, compiler.uses, compiled)


def compile_predicate(expr: Expression, schema: Schema) -> CompiledProgram:
    """Compile a Filter predicate into a single-output program."""
    return compile_outputs([("__pred__", expr)], schema)

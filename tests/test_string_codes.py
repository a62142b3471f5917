"""Dictionary-encoded string columns: encoder, statistics, and the
compiled engine's code compares, checked against raw-string oracles.

Every generated case must agree bit for bit across compiled (codes) vs
interpreted (raw strings), dop 1 vs 4, and flat vs partitioned tables.
The generators deliberately include empty strings, non-ASCII text,
prefix-sharing values, values with trailing NULs (numpy ``<U`` equality
ignores them, and so must the codes), literals absent from the
dictionary, columns above the 256-value limit (no codes), and 0- and
1-row partitions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import RavenSession, Table
from repro.datasets import hospital
from repro.relational.compile import compile_outputs
from repro.relational.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    InList,
    Literal,
    UnaryOp,
)
from repro.storage.column import (
    MAX_DICTIONARY_SIZE,
    Column,
    DataType,
    dictionary_encode,
)
from repro.storage.partition import Partition, PartitionedTable
from repro.storage.statistics import ColumnStats, TableStats
from repro.storage.table import TableView, concat_tables

# Values the generated string columns draw from.
POOL = ["", "r_1", "r_10", "r_", "r_100", "a", "a\x00", "b\x00\x00", "é",
        "éa", "日本", "日本語", "\U0001f600", "x" * 30, "M", "F", " ", "yes",
        "no", "a\x00b"]
# Literals: the pool plus values no generated column contains.
ABSENT = ["zzz", "r_1000", "日", "x" * 31, "\x00z"]
LITERALS = POOL + ABSENT

FAST = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])
SLOW = settings(max_examples=400, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


def bitwise_equal(a: Table, b: Table) -> bool:
    if a.column_names != b.column_names:
        return False
    for name in a.column_names:
        x, y = a.array(name), b.array(name)
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return True


def sql_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@st.composite
def string_arrays(draw, max_rows: int = 40):
    """A ``<U`` array over the pool, sometimes above the 256-value limit."""
    rows = draw(st.integers(0, max_rows))
    if draw(st.integers(0, 9)) == 0:
        # The no-codes path: more distinct values than a dictionary holds.
        rows = max(rows, MAX_DICTIONARY_SIZE + 20)
        values = [f"v{i}" for i in range(rows)]
        values[:len(POOL)] = POOL[:rows]
        return np.asarray(draw(st.permutations(values)), dtype=np.str_)
    values = draw(st.lists(st.sampled_from(POOL), min_size=rows,
                           max_size=rows))
    return np.asarray(values, dtype=np.str_)


@st.composite
def predicates(draw, depth: int = 0):
    """SQL text of a boolean over ``t.s`` (=, <>, IN, NOT IN; AND/OR)."""
    if depth < 2 and draw(st.integers(0, 2)) == 0:
        op = draw(st.sampled_from(["AND", "OR"]))
        left = draw(predicates(depth + 1))
        right = draw(predicates(depth + 1))
        return f"({left} {op} {right})"
    kind = draw(st.sampled_from(["=", "<>", "lit=", "in", "not in"]))
    if kind in ("in", "not in"):
        values = draw(st.lists(st.sampled_from(LITERALS), min_size=1,
                               max_size=4))
        listed = ", ".join(sql_string(v) for v in values)
        return f"t.s {kind.upper()} ({listed})"
    value = sql_string(draw(st.sampled_from(LITERALS)))
    if kind == "lit=":
        return f"{value} = t.s"
    return f"t.s {kind} {value}"


@st.composite
def queries(draw):
    """A CASE routed on string compares, filtered by another."""
    first, second, where = (draw(predicates()) for _ in range(3))
    return (f"SELECT t.id, CASE WHEN {first} THEN t.x WHEN {second} "
            f"THEN 2.0 ELSE -1.0 END AS c, {first} AS b "
            f"FROM t WHERE {where}")


@st.composite
def layouts(draw):
    """Partition tables (0- and 1-row ones included) and a flat twin."""
    sizes = draw(st.lists(st.one_of(st.sampled_from([0, 1]),
                                    st.integers(2, 40)),
                          min_size=1, max_size=4))
    if draw(st.integers(0, 4)) == 0:
        # Above the morsel size, so dop 4 splits this partition.
        sizes.append(draw(st.integers(8_193, 9_000)))
    pieces, offset = [], 0
    for rows in sizes:
        if rows > MAX_DICTIONARY_SIZE:
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
            strings = rng.choice(np.asarray(POOL), rows)
            if draw(st.booleans()):
                # The no-codes path: more distinct values than codes hold.
                strings = np.char.add(strings, (np.arange(rows) % 300)
                                      .astype(np.str_))
        else:
            strings = np.asarray(
                draw(st.lists(st.sampled_from(POOL), min_size=rows,
                              max_size=rows)), dtype=np.str_)
        pieces.append(Table.from_arrays(
            id=np.arange(offset, offset + rows, dtype=np.int64),
            s=strings,
            x=np.linspace(-1.0, 1.0, rows) + offset))
        offset += rows
    return pieces


def partitioned(pieces) -> PartitionedTable:
    return PartitionedTable([Partition(table=t, stats=TableStats.collect(t),
                                       key=i) for i, t in enumerate(pieces)])


def run_everywhere(pieces, query):
    """The query under every (layout, dop, compiled) combination."""
    results = {}
    for layout in ("flat", "partitioned"):
        for dop in (1, 4):
            for compiled in (True, False):
                session = RavenSession(dop=dop, compile_expressions=compiled)
                table = concat_tables(pieces) if layout == "flat" \
                    else partitioned(pieces)
                session.register_table("t", table)
                results[layout, dop, compiled] = session.sql(query)
    return results


def check_layouts(pieces, query):
    results = run_everywhere(pieces, query)
    oracle = results["flat", 1, False]
    for key, result in results.items():
        assert bitwise_equal(result, oracle), (key, query)


# ---------------------------------------------------------------------------
# Generated differential tests
# ---------------------------------------------------------------------------

def _compare_programs(strings, outputs):
    """Compiled over an encoded table == compiled over raw strings ==
    interpreted, for every output."""
    encoded = Table.from_arrays(s=strings, x=np.arange(len(strings), dtype=np.float64))
    TableStats.collect(encoded)
    raw = Table.from_arrays(s=strings.copy(), x=encoded.array("x"))
    program = compile_outputs(outputs, encoded.schema)
    with_codes = program.run(encoded)
    without = program.run(raw)
    for name, expr in outputs:
        expected = expr.evaluate(raw)
        assert with_codes[name].tobytes() == expected.tobytes(), name
        assert with_codes[name].dtype == expected.dtype
        assert without[name].tobytes() == expected.tobytes(), name
    return encoded


@st.composite
def leaf_expressions(draw):
    s = ColumnRef("s")
    kind = draw(st.sampled_from(["=", "<>", "lit=", "in", "not in"]))
    if kind in ("in", "not in"):
        values = draw(st.lists(st.sampled_from(LITERALS), min_size=1,
                               max_size=4))
        expr = InList(s, values)
        return UnaryOp("not", expr) if kind == "not in" else expr
    value = Literal(draw(st.sampled_from(LITERALS)))
    if kind == "lit=":
        return BinaryOp("=", value, s)
    return BinaryOp(kind, s, value)


@st.composite
def masked_expressions(draw):
    """Leaves under CASE/AND/OR, so code compares also run on subsets."""
    leaves = draw(st.lists(leaf_expressions(), min_size=3, max_size=3))
    x = ColumnRef("x")
    routed = CaseWhen([(leaves[0], x),
                       (BinaryOp("and", leaves[1], leaves[2]), Literal(2.0))],
                      Literal(-1.0))
    either = BinaryOp("or", leaves[0], BinaryOp("and", leaves[1], leaves[2]))
    return [("routed", routed), ("either", either), ("leaf", leaves[0])]


class TestGeneratedPrograms:
    @FAST
    @given(strings=string_arrays(), outputs=masked_expressions())
    def test_codes_match_strings(self, strings, outputs):
        encoded = _compare_programs(strings, outputs)
        distinct = len(np.unique(strings))
        has_codes = encoded.codes("s") is not None
        assert has_codes == (distinct <= MAX_DICTIONARY_SIZE)

    @pytest.mark.slow
    @SLOW
    @given(strings=string_arrays(max_rows=200), outputs=masked_expressions())
    def test_codes_match_strings_slow(self, strings, outputs):
        _compare_programs(strings, outputs)


class TestGeneratedQueries:
    @settings(max_examples=12, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(pieces=layouts(), query=queries())
    def test_layouts_dops_and_engines_agree(self, pieces, query):
        check_layouts(pieces, query)

    @pytest.mark.slow
    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(pieces=layouts(), query=queries())
    def test_layouts_dops_and_engines_agree_slow(self, pieces, query):
        check_layouts(pieces, query)


# ---------------------------------------------------------------------------
# Encoder and statistics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hospital_table() -> Table:
    return hospital.generate(20_000, seed=5).tables["hospital_stays"]


def _np_unique_stats(name: str, column: Column) -> dict:
    """ColumnStats of a string column as the np.unique-based collection
    computed them."""
    uniques = np.unique(column.data)
    categories = tuple(str(u) for u in uniques) \
        if len(uniques) <= ColumnStats.MAX_TRACKED_CATEGORIES else None
    return ColumnStats(name, DataType.STRING, len(column),
                       distinct_count=len(uniques), categories=categories,
                       null_count=0).to_dict()


class TestEncoder:
    @FAST
    @given(strings=string_arrays(max_rows=300))
    def test_dictionary_is_unique_and_codes_decode(self, strings):
        distinct, dictionary, codes = dictionary_encode(strings)
        uniques = np.unique(strings)
        assert distinct == len(uniques)
        if len(uniques) > MAX_DICTIONARY_SIZE:
            assert dictionary is None and codes is None
            return
        assert dictionary.dtype == uniques.dtype
        assert np.array_equal(dictionary, uniques)
        assert codes.dtype == np.uint8
        assert np.array_equal(dictionary[codes], strings)

    @pytest.mark.parametrize("values", [
        ["x" * 40, "y" * 40, "x" * 40],          # too wide to pack
        ["\U0001f600abc", "\U0001f600abd"],     # wide code points
        ["", "", ""],
        [],
    ])
    def test_unpackable_and_degenerate_columns(self, values):
        strings = np.asarray(values, dtype=np.str_)
        distinct, dictionary, codes = dictionary_encode(strings)
        assert distinct == len(np.unique(strings))
        assert np.array_equal(dictionary, np.unique(strings))
        assert np.array_equal(dictionary[codes], strings)

    def test_stats_match_np_unique_on_hospital(self, hospital_table):
        strings = [name for name, column in hospital_table.columns.items()
                   if column.dtype is DataType.STRING]
        assert len(strings) == 15
        for name in strings:
            fresh = Column(hospital_table.array(name).copy(), DataType.STRING)
            assert ColumnStats.collect(name, fresh).to_dict() == \
                _np_unique_stats(name, fresh)
            assert fresh.codes is not None
            # Memoized: a second collection answers from the codes.
            assert ColumnStats.collect(name, fresh).to_dict() == \
                _np_unique_stats(name, fresh)

    def test_high_cardinality_stats_keep_no_codes(self):
        column = Column(np.asarray([f"id{i}" for i in range(1_000)]))
        stats = ColumnStats.collect("id", column)
        assert stats.to_dict() == _np_unique_stats("id", column)
        assert stats.categories is None and column.codes is None

    def test_snapshot_round_trip_keeps_statistics(self, hospital_table,
                                                  tmp_path):
        original = RavenSession()
        original.register_table("h", hospital_table, partition_column="rcount")
        path = original.save_snapshot(tmp_path / "warm.json")
        restored = RavenSession()
        restored.register_table("h", hospital_table, partition_column="rcount")
        restored.load_snapshot(path)
        live, warm = original.catalog.table("h"), restored.catalog.table("h")
        assert warm.stats.to_dict() == live.stats.to_dict()
        assert [p.stats.to_dict() for p in warm.data.partitions] == \
            [p.stats.to_dict() for p in live.data.partitions]
        assert TableStats.from_dict(live.stats.to_dict()).to_dict() == \
            live.stats.to_dict()


# ---------------------------------------------------------------------------
# Codes ride along row-preserving operations; without them (computed
# strings, spilled columns, mixed dictionaries) the strings are compared
# ---------------------------------------------------------------------------

def _encoded_column(values) -> Column:
    column = Column(np.asarray(values, dtype=np.str_))
    column.encode()
    assert column.codes is not None
    return column


def _consistent(column: Column) -> bool:
    return column.codes is not None and \
        np.array_equal(column.dictionary[column.codes], column.data)


class TestCodesRideAlong:
    VALUES = ["r_1", "r_10", "", "é", "r_1", "a\x00", "r_10"]

    def test_slice_take_mask_carry_consistent_codes(self):
        column = _encoded_column(self.VALUES)
        sliced = column.slice(1, 5)
        assert _consistent(sliced)
        assert np.shares_memory(sliced.codes, column.codes)  # zero-copy
        assert _consistent(column.take(np.asarray([6, 0, 0, 3])))
        assert _consistent(column.mask(np.asarray(
            [True, False, True, True, False, False, True])))
        assert column.take(np.asarray([1])).dictionary is column.dictionary

    def test_table_view_memoizes_the_code_gather(self):
        table = Table([("s", _encoded_column(self.VALUES))])
        view = TableView(table).refine(
            np.asarray([False, True, True, False, True, True, False]))
        dictionary, codes = view.codes("s")
        assert view.codes("s")[1] is codes
        assert np.array_equal(dictionary[codes], view.array("s"))

    def test_concat_keeps_codes_only_for_one_dictionary(self):
        same = [Table([("s", _encoded_column(["a", "b"]))]),
                Table([("s", _encoded_column(["b", "a"]))])]
        assert _consistent(concat_tables(same).column("s"))
        differing = [Table([("s", _encoded_column(["a", "b"]))]),
                     Table([("s", _encoded_column(["a", "c"]))])]
        merged = concat_tables(differing).column("s")
        assert merged.codes is None and merged.dictionary is None


FALLBACK_QUERIES = [
    # String CASE and CAST produce computed strings (no codes).
    "SELECT t.id, CASE WHEN t.x > 0.0 THEN t.s ELSE 'neg' END AS v "
    "FROM t WHERE (CASE WHEN t.x > 0.0 THEN t.s ELSE 'neg' END) = 'r_1'",
    "SELECT t.id FROM t WHERE CAST(t.x AS string) <> '0.0' AND t.s = 'é'",
    # Join outputs gather every column with Column.take, so they keep
    # the codes of their inputs.
    "SELECT t.id, u.w FROM t JOIN u ON t.id = u.id "
    "WHERE t.s IN ('r_1', '', 'zzz') OR u.g = 'b'",
]


@pytest.fixture(scope="module")
def fallback_tables():
    rng = np.random.default_rng(3)
    n = 400
    t = Table.from_arrays(id=np.arange(n),
                          s=rng.choice(np.asarray(POOL), n),
                          x=rng.normal(size=n))
    u = Table.from_arrays(id=np.arange(0, n, 2),
                          g=rng.choice(np.asarray(["a", "b"]), n // 2),
                          w=rng.normal(size=n // 2))
    return t, u


def _session(t, u, compiled, **kwargs):
    session = RavenSession(compile_expressions=compiled, **kwargs)
    session.register_table("t", t)
    session.register_table("u", u)
    return session


class TestFallbacks:
    @pytest.mark.parametrize("query", FALLBACK_QUERIES)
    def test_computed_and_joined_strings(self, fallback_tables, query):
        t, u = fallback_tables
        expected = _session(t, u, compiled=False).sql(query)
        assert expected.num_rows > 0
        assert bitwise_equal(_session(t, u, compiled=True).sql(query),
                             expected)

    def test_spilled_columns_keep_no_codes(self, fallback_tables, tmp_path):
        t, u = fallback_tables
        spilled = t.spill_to(tmp_path / "t")
        query = "SELECT t.id, t.x FROM t WHERE t.s IN ('r_1', 'é')"
        session = _session(spilled, u, compiled=True)
        table = session.catalog.table("t").data.partitions[0].table
        assert table.codes("s") is None
        assert bitwise_equal(session.sql(query),
                             _session(t, u, compiled=False).sql(query))

    def test_partitions_with_differing_dictionaries(self, fallback_tables):
        t, u = fallback_tables
        query = ("SELECT t.id, CASE WHEN t.s = 'r_10' THEN 1.0 ELSE 0.0 END "
                 "AS c FROM t WHERE t.s <> ''")
        # Partitioned by the string column itself: one value per
        # partition, so every partition has its own dictionary.
        fresh = Table.from_arrays(**{name: t.array(name).copy()
                                     for name in t.column_names})
        layout = PartitionedTable.from_table(fresh, "s")
        columns = [part.table.column("s") for part in layout.partitions]
        assert all(column.codes is not None for column in columns)
        assert not np.array_equal(columns[0].dictionary,
                                  columns[1].dictionary)
        merged = layout.to_table()
        assert merged.codes("s") is None  # concatenated: string path
        expected = _session(layout, u, compiled=False).sql(query)
        assert bitwise_equal(_session(merged, u, compiled=True).sql(query),
                             expected)
        for dop in (1, 4):
            session = _session(layout, u, compiled=True, dop=dop)
            assert bitwise_equal(session.sql(query), expected)

import csv
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casecontrol import ContingencyTable, DataError, Schema, emit, from_cells, ingest
from casecontrol import tables
from casecontrol.tables import (LEVELS, _ingest_plain, _ingest_rows, cross_products, json_names,
                                strata_cells, superset_sums, term_masks)
from casecontrol.data import bundled_dataset_text

from conftest import table_strategy


# -- ingestion ---------------------------------------------------------------

def test_json_names():
    assert json_names(["V", "C"], "bad") == ("V", "C")
    assert json_names([["V", "C"], ["R"]], "bad", nested=True) == (("V", "C"), ("R",))
    assert json_names([], "bad", nested=True) == ()
    for value, nested in [("VC", False), (["V", 1], False), (None, False),
                          ("VC", True), (["VC"], True), ([["V", ["C"]]], True),
                          ([["V"], "C"], True), ({"V": ["C"]}, True)]:
        with pytest.raises(DataError, match="^bad$"):
            json_names(value, "bad", nested=nested)
    with pytest.raises(KeyError):
        json_names("VC", "bad", error=KeyError)


def test_bundled_dataset_total(study):
    assert study.total == 580.0
    assert study.variables == ("L", "V", "C", "R", "A", "E")


def test_ingest_empty_stream():
    with pytest.raises(DataError, match="no data rows"):
        ingest("")
    with pytest.raises(DataError, match="no data rows"):
        ingest("L,V,count\n")


def test_ingest_partial_file_leaves_other_cells_zero():
    # keep only the case rows of the bundled file
    lines = bundled_dataset_text().splitlines()
    kept = [lines[0]] + [ln for ln in lines[1:] if ln.startswith("1")]
    t = ingest("\n".join(kept))
    assert t.total == 204.0
    assert t.slice_l("L", 0).total == 0.0


def test_ingest_rejects_duplicates():
    text = "A,B,count\n0,0,1\n0,0,2\n"
    with pytest.raises(DataError, match="duplicate"):
        ingest(text)


def test_ingest_rejects_negative_and_bad_levels():
    with pytest.raises(DataError, match="negative"):
        ingest("A,count\n0,-1\n")
    with pytest.raises(DataError, match="unknown level"):
        ingest("A,count\n2,1\n")
    with pytest.raises(DataError, match="header"):
        ingest("A,B\n0,0\n")


def test_schema_validation():
    with pytest.raises(DataError, match="duplicate"):
        Schema(("A", "A"))
    with pytest.raises(DataError, match="nonempty"):
        Schema(("A", ""))
    with pytest.raises(DataError):
        Schema(())


# -- marginalization ---------------------------------------------------------

def test_marginal_lv(study):
    m = study.marginalize({"L", "V"})
    assert m.variables == ("L", "V")
    assert m.counts.ravel().tolist() == [349.0, 27.0, 116.0, 88.0]


def test_marginal_keep_all_is_identity(study):
    assert study.marginalize(set(study.variables)) == study


def test_marginal_la_controls_row(study):
    m = study.marginalize({"L", "A"})
    assert (m.cell({"L": 0, "A": 0}), m.cell({"L": 0, "A": 1})) == (228.0, 148.0)


def test_marginal_unknown_variable(study):
    with pytest.raises(DataError, match="unknown variable"):
        study.marginalize({"L", "S"})
    with pytest.raises(DataError, match="nonempty"):
        study.marginalize(set())


# -- conditioning ------------------------------------------------------------

def test_condition_rural_regular(study):
    m = study.condition({"C": 0, "R": 0}).marginalize({"L", "V"})
    assert m.counts.ravel().tolist() == [73.0, 7.0, 18.0, 5.0]


def test_condition_empty_address_is_identity(study):
    assert study.condition({}) == study


def test_condition_matches_bruteforce_row_sums(study):
    # independent oracle: sum matching rows straight off the CSV text
    reader = csv.reader(io.StringIO(bundled_dataset_text()))
    header = next(reader)
    idx = {name: i for i, name in enumerate(header)}
    sums = {0: 0.0, 1: 0.0}
    for row in reader:
        if row[idx["L"]] == "1" and row[idx["R"]] == "0" and row[idx["C"]] == "1":
            sums[int(row[idx["V"]])] += float(row[idx["count"]])
    assert sums == {0: 8.0, 1: 17.0}

    m = study.condition({"L": 1, "R": 0, "C": 1}).marginalize({"V"})
    assert (m.cell({"V": 0}), m.cell({"V": 1})) == (sums[0], sums[1])


def test_condition_zero_slice_flagged():
    t = from_cells(("A", "B"), {(0, 0): 3.0, (0, 1): 2.0})
    sliced = t.condition({"A": 1})
    assert sliced.zero_total
    assert sliced.total == 0.0


def test_condition_cannot_remove_all_variables(study):
    with pytest.raises(DataError, match="at least one variable"):
        from_cells(("A",), {(1,): 2.0}).condition({"A": 1})


# -- cell lookup ---------------------------------------------------------------

def test_cell_first_row(study):
    at = {"V": 0, "C": 0, "R": 0, "A": 0, "E": 0, "L": 0}
    assert study.cell(at) == 21.0


def test_cell_after_marginalize(study):
    assert study.marginalize({"L"}).cell({"L": 1}) == 204.0


def test_cell_errors(study):
    with pytest.raises(DataError, match="unknown variable"):
        study.cell({"S": 1})
    with pytest.raises(DataError, match="partial address"):
        study.cell({"L": 1})
    with pytest.raises(DataError, match="level"):
        study.marginalize({"L"}).cell({"L": 2})


def test_counts_are_frozen(study):
    with pytest.raises(ValueError):
        study.counts[0] = 99.0


def test_table_rejects_negative_counts():
    with pytest.raises(DataError):
        ContingencyTable(Schema(("A",)), np.array([1.0, -2.0]))
    with pytest.raises(DataError, match="positive"):
        ContingencyTable(Schema(("A",)), np.zeros(2))


# -- properties ----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(t=table_strategy(min_vars=3, max_vars=4), data=st.data())
def test_marginalize_composes(t, data):
    variables = list(t.variables)
    a = data.draw(st.sets(st.sampled_from(variables), min_size=2, max_size=len(variables)))
    b = data.draw(st.sets(st.sampled_from(sorted(a)), min_size=1, max_size=len(a)))
    via_a = t.marginalize(a).marginalize(b)
    direct = t.marginalize(b)
    assert via_a == direct


@settings(max_examples=60, deadline=None)
@given(t=table_strategy(min_vars=2, max_vars=4), data=st.data())
def test_condition_splits_total(t, data):
    var = data.draw(st.sampled_from(list(t.variables)))
    t0 = t.condition({var: 0})
    t1 = t.condition({var: 1})
    assert t0.total + t1.total == pytest.approx(t.total, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(t=table_strategy(min_vars=1, max_vars=4))
def test_emit_ingest_round_trip(t):
    assert ingest(emit(t)) == t


@given(st.floats(min_value=0, max_value=1e9, allow_nan=False))
def test_emit_round_trips_real_counts(x):
    t = from_cells(("A",), {(0,): x, (1,): 1.0})
    assert ingest(emit(t)) == t


def test_emit_is_byte_stable(study):
    assert emit(study) == emit(study)
    assert emit(study) == bundled_dataset_text()


# -- the flat cell index against the per-cell ingest and emit -----------------------

def per_cell_ingest(cells_text):
    """Cell-CSV parser that addresses the table one level tuple at a time."""
    reader = csv.reader(io.StringIO(cells_text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("no data rows") from None
    header = [h.strip() for h in header]
    if len(header) < 2 or header[-1] != "count":
        raise DataError("header must name variables followed by a final 'count' column")
    names = tuple(header[:-1])
    if "count" in names:
        raise DataError("'count' is reserved for the count column")
    schema = Schema(names)
    arr = np.zeros((2,) * len(names))
    seen = set()
    n_rows = 0
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) != len(header):
            raise DataError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        levels = []
        for name, label in zip(names, row):
            label = label.strip()
            if label not in LEVELS:
                raise DataError(f"line {lineno}: unknown level {label!r} for {name!r}")
            levels.append(int(label))
        key = tuple(levels)
        if key in seen:
            raise DataError(f"line {lineno}: duplicate cell address {key}")
        seen.add(key)
        try:
            count = float(row[-1])
        except ValueError:
            raise DataError(f"line {lineno}: bad count {row[-1]!r}") from None
        if not np.isfinite(count) or count < 0:
            raise DataError(f"line {lineno}: negative or non-finite count {count}")
        arr[key] = count
        n_rows += 1
    if n_rows == 0:
        raise DataError("no data rows")
    return ContingencyTable(schema, arr)


def per_cell_emit(table):
    """Cell-CSV writer that walks the cells with ``np.ndindex``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(table.variables) + ["count"])
    for levels in np.ndindex(*table.counts.shape):
        count = float(table.counts[levels])
        writer.writerow([LEVELS[l] for l in levels] + [format(count, ".17g")])
    return out.getvalue()


@st.composite
def real_tables(draw):
    k = draw(st.integers(1, 5))
    counts = draw(st.lists(st.floats(0, 1e12, allow_nan=False) | st.integers(0, 9).map(float),
                           min_size=2 ** k, max_size=2 ** k).filter(lambda xs: sum(xs) > 0))
    return ContingencyTable(Schema(tuple("ABCDE"[:k])), np.array(counts))


@settings(max_examples=80, deadline=None)
@given(t=real_tables())
def test_emit_matches_per_cell_emit(t):
    text = emit(t)
    assert text == per_cell_emit(t)
    assert ingest(text) == t
    assert list(t.cells()) == [(lv, float(t.counts[lv])) for lv in np.ndindex(*t.counts.shape)]


def _mutations(rows, k, draw):
    """One malformed (or merely reshuffled) variant of the data rows."""
    i = draw(st.integers(0, len(rows) - 1))
    row = list(rows[i])
    kind = draw(st.sampled_from(
        ["label", "duplicate", "count", "short", "long", "blank", "padded", "drop"]))
    if kind == "label":
        row[draw(st.integers(0, k - 1))] = draw(st.sampled_from(["2", "", " x", "01", "1.0", "-0"]))
    elif kind == "duplicate":
        rows = rows + [list(rows[draw(st.integers(0, len(rows) - 1))])]
    elif kind == "count":
        row[-1] = draw(st.sampled_from(["-1", "-0.5", "abc", "", "inf", "nan", "-inf", "1e400",
                                        " 3 ", "-0"]))
    elif kind == "short":
        row = row[:-1]
    elif kind == "long":
        row = row + ["0"]
    elif kind == "blank":
        rows = rows[:i] + [[" "] * (k + 1)] + rows[i:]
    elif kind == "padded":
        row[draw(st.integers(0, k - 1))] = f" {row[0]}\t"
    else:
        rows = rows[:i] + rows[i + 1:]
    if kind not in ("duplicate", "blank", "drop"):
        rows = rows[:i] + [row] + rows[i + 1:]
    return rows


@settings(max_examples=150, deadline=None)
@given(t=real_tables(), data=st.data())
def test_ingest_matches_per_cell_ingest_on_malformed_rows(t, data):
    k = len(t.variables)
    rows = [[*map(str, lv), format(c, ".17g")] for lv, c in t.cells()]
    rows = data.draw(st.permutations(rows))
    for _ in range(data.draw(st.integers(1, 3))):
        rows = _mutations(rows, k, data.draw) if rows else rows
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([[*t.variables, "count"], *rows])
    text = out.getvalue()
    try:
        expected = per_cell_ingest(text)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            ingest(text)
        assert str(raised.value) == str(exc)
    else:
        assert ingest(text) == expected


# -- the array fast path of ingest against the row checker ---------------------------

def parent_emit(table):
    """``emit`` as one ``csv.writer`` call over every row, kept verbatim."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(table.variables) + ["count"])
    labels = itertools.product(LEVELS, repeat=len(table.variables))
    writer.writerows([*levels, format(count, ".17g")]
                     for levels, count in zip(labels, table.counts.ravel().tolist()))
    return out.getvalue()


def same_table(a, b):
    return a.variables == b.variables and a.counts.tobytes() == b.counts.tobytes()


# names that csv.writer quotes, or that the header reader strips
ODD_NAMES = st.sampled_from(["A", "B,C", 'say "x"', " pad ", "count2", "é", "line\nbreak"])


@settings(max_examples=80, deadline=None)
@given(t=real_tables(), names=st.lists(ODD_NAMES, min_size=5, max_size=5, unique=True))
def test_emit_matches_the_csv_writer_byte_for_byte(t, names):
    t = ContingencyTable(Schema(tuple(names[:len(t.variables)])), t.counts)
    assert emit(t) == parent_emit(t)


@st.composite
def plain_files(draw):
    """Emitted text of a real-valued table with its rows shuffled and some
    dropped, with or without the final newline."""
    t = draw(real_tables())
    header, *rows = emit(t).splitlines()
    rows = draw(st.permutations(rows))[:draw(st.integers(1, len(rows)))]
    return "\n".join([header, *rows]) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=150, deadline=None)
@given(plain_files())
def test_fast_path_matches_the_row_checker(text):
    try:
        expected = _ingest_rows(text)
    except DataError as exc:  # the kept rows hold no count
        with pytest.raises(DataError) as raised:
            _ingest_plain(text)
        assert str(raised.value) == str(exc)
    else:
        fast = _ingest_plain(text)
        assert fast is not None
        assert same_table(fast, expected)


def _malformed(lines, k, draw):
    """One malformed (or merely reformatted) variant of the plain text lines."""
    i = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
    fields = lines[i].split(",")
    kind = draw(st.sampled_from(["label", "separator", "duplicate", "count", "short", "long",
                                 "blank", "quote", "crlf", "padded", "header", "empty",
                                 "header_only"]))
    if kind == "label":
        fields[draw(st.integers(0, k - 1))] = draw(st.sampled_from(
            ["2", "", "x", "01", "1.0", "-0", "\u0661", "\x00"]))
    elif kind == "separator":  # a comma replaced by another character
        if len(fields) > 1:
            j = draw(st.integers(0, len(fields) - 2))
            sep = draw(st.sampled_from([";", ".", "0", "1"]))
            fields[j:j + 2] = [fields[j] + sep + fields[j + 1]]
    elif kind == "duplicate":
        return lines + [lines[draw(st.integers(0, len(lines) - 1))]]
    elif kind == "count":
        fields[-1] = draw(st.sampled_from(
            ["-1", "-0.5", "abc", "", "inf", "nan", "-inf", "1e400", "-0", "1_0", "\x0c3",
             "0x1", "\u0663", "3\x00"]))
    elif kind == "short":
        fields = fields[:-1]
    elif kind == "long":
        fields = fields + ["0"]
    elif kind == "blank":
        return lines[:i] + [draw(st.sampled_from(["", ",", " ", ",".join([" "] * (k + 1))]))] \
            + lines[i:]
    elif kind == "quote":
        j = draw(st.integers(0, len(fields) - 1))
        fields[j] = f'"{fields[j]}"'
    elif kind == "crlf":
        return [line + "\r" for line in lines]
    elif kind == "padded":
        j = draw(st.integers(0, len(fields) - 1))
        fields[j] = draw(st.sampled_from([f" {fields[j]}", f"{fields[j]}\t", f"\x0b{fields[j]}"]))
    elif kind == "header":
        return [draw(st.sampled_from(
            ["A,B", "A,A,count", "count,count", ",count", "count", "", "A,B,C,count,x"]))] + lines[1:]
    elif kind == "empty":
        return []
    else:
        return lines[:1]
    return lines[:i] + [",".join(fields)] + lines[i + 1:]


@settings(max_examples=300, deadline=None)
@given(t=real_tables(), data=st.data())
def test_ingest_matches_the_row_checker_on_malformed_files(t, data):
    lines = emit(t).splitlines()
    lines = lines[:1] + data.draw(st.permutations(lines[1:]))
    for _ in range(data.draw(st.integers(1, 3))):
        lines = _malformed(lines, len(t.variables), data.draw) if lines else lines
    text = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]))
    try:
        expected = _ingest_rows(text)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            ingest(text)
        assert str(raised.value) == str(exc)
    else:
        assert same_table(ingest(text), expected)


@pytest.mark.parametrize("text, message", [
    ("A,count\n0,1\r,0\n", "line 2: new-line character seen in unquoted field"),
    ("A,count\n0,1\n1," + "1" * (csv.field_size_limit() + 1) + "\n",
     "line 3: field larger than field limit"),
    ("A" * (csv.field_size_limit() + 1) + ",count\n0,1\n", "line 1: field larger than field limit"),
])
def test_rows_the_csv_reader_refuses_are_data_errors(text, message):
    for read in (ingest, _ingest_rows):
        with pytest.raises(DataError, match="^" + message):
            read(text)


REAL_COUNTS = (st.floats(0, 1e300, allow_nan=False)
               | st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                                  1.7976931348623157e308, 0.1, 1 / 3]))


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 4), data=st.data())
def test_ingest_emit_round_trip_on_real_counts(k, data):
    counts = data.draw(st.lists(REAL_COUNTS, min_size=2 ** k, max_size=2 ** k)
                       .filter(lambda xs: 0 < sum(xs) < math.inf))
    t = ContingencyTable(Schema(tuple("ABCD"[:k])), np.array(counts))
    text = emit(t)
    assert _ingest_plain(text) is not None  # emitted files take the array path
    assert same_table(ingest(text), t)


# -- superset sums over the cell lattice -------------------------------------------

@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_superset_sums_match_brute_force(k, seed):
    rng = np.random.default_rng(seed)
    # small integers with zeros: every sum is exact in either order
    values = rng.integers(-50, 50, 2 ** k) * rng.integers(0, 2, 2 ** k)
    cells = range(2 ** k)
    expected = [sum(int(values[c]) for c in cells if c & s == s) for s in cells]
    assert superset_sums(values.astype(float)).tolist() == expected


def brute_cross_products(masks, cells, w):
    return [[sum(wi for c, wi in zip(cells, w) if c & (s | t) == s | t) for t in masks]
            for s in masks]


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_cross_products_match_brute_force(k, seed):
    rng = np.random.default_rng(seed)
    masks = np.unique(np.append(rng.integers(0, 2 ** k, rng.integers(0, 12)), 0))
    cells = np.flatnonzero(rng.random(2 ** k) < rng.random())  # none to every cell
    # small integer weights: every sum is exact in either order
    w = rng.integers(1, 50, len(cells)).astype(float)
    assert (cross_products(k, masks, cells, w).tolist()
            == brute_cross_products(masks.tolist(), cells.tolist(), w.tolist()))


def test_cross_products_take_the_lattice_only_where_it_takes_fewer_steps(monkeypatch):
    lattices = []
    monkeypatch.setattr(tables, "superset_sums",
                        lambda values: lattices.append(len(values)) or superset_sums(values))
    masks = term_masks(8, [()] + [(a,) for a in range(8)])  # p = 9: 81 steps a cell
    # the lattice takes 256 * 32 steps: more than 2 cells take, fewer than 256
    for cells, taken in ((np.array([3, 200]), []), (np.arange(256), [256])):
        w = np.arange(1.0, len(cells) + 1)
        assert (cross_products(8, masks, cells, w).tolist()
                == brute_cross_products(masks.tolist(), cells.tolist(), w.tolist()))
        assert lattices == taken


# -- strata of the flat cell index ---------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_strata_cells_match_product_reference(data):
    k = data.draw(st.integers(1, 8))
    factor = data.draw(st.integers(0, k - 1))
    others = [axis for axis in range(k) if axis != factor]
    given_axes = data.draw(st.permutations(others))[:data.draw(st.integers(0, k - 1))]
    rest = [axis for axis in others if axis not in given_axes]
    expected = {0: [], 1: []}
    for stratum in itertools.product((0, 1), repeat=len(given_axes)):
        for level in (0, 1):
            # one row per stratum, its cells in C order of the remaining axes
            row = [sum(lv << (k - 1 - axis) for axis, lv
                       in zip([factor, *given_axes, *rest], (level, *stratum, *others_lv)))
                   for others_lv in itertools.product((0, 1), repeat=len(rest))]
            assert row == sorted(row)
            expected[level].append(row)
    hi, lo = strata_cells(k, factor, given_axes)
    assert hi.dtype == lo.dtype == np.int64
    assert hi.tolist() == expected[1]
    assert lo.tolist() == expected[0]

"""Dense N-way contingency tables over binary variables.

A table is a k-dimensional array of nonnegative real counts, one axis per
variable, with levels 0 and 1.  Counts are reals, not integers: fitted
tables produced by the model modules flow through the same type.  Flattened
in C order, the cells are in lexicographic order of the level combinations,
with the first schema variable as the most significant digit: in cell i of
a k-variable table, the variable on axis a is at level 1 when bit k - 1 - a
of i is set.  Design columns of the model modules are bit masks of that
index (``term_columns``).

All operations are pure: they return new tables and never mutate inputs,
so concurrent use needs no locking.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

LEVELS = ("0", "1")

MAX_VARIABLES = 24  # dense 2^k storage; 24 axes is already 128 MiB of float64

CellAddress = Mapping[str, int]
"""Partial or full assignment of levels (0/1) to variable names."""


class DataError(ValueError):
    """Malformed input data or an address that does not fit the schema."""


@dataclass(frozen=True)
class Schema:
    """Ordered collection of named binary variables.

    Order is significant: it fixes the axis layout of every table and is
    preserved by marginalization and conditioning.
    """

    variables: tuple[str, ...]

    def __post_init__(self):
        if not self.variables:
            raise DataError("schema needs at least one variable")
        if len(self.variables) > MAX_VARIABLES:
            raise DataError(f"at most {MAX_VARIABLES} variables supported")
        seen = set()
        for name in self.variables:
            if not name:
                raise DataError("variable names must be nonempty")
            if name in seen:
                raise DataError(f"duplicate variable name {name!r}")
            seen.add(name)

    def __len__(self) -> int:
        return len(self.variables)

    def axis(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise DataError(f"unknown variable {name!r}") from None

    def subset(self, keep) -> "Schema":
        """Schema restricted to ``keep``, preserving the original order."""
        keep = set(keep)
        for name in keep:
            self.axis(name)
        return Schema(tuple(v for v in self.variables if v in keep))


@dataclass(frozen=True)
class ContingencyTable:
    """Counts over all level combinations of a schema.

    ``counts`` has shape ``(2,) * k`` with axis i indexing variable i of the
    schema.  The array is copied on construction and frozen.  A table with
    total zero is only representable when it arose from conditioning on an
    empty slice, in which case ``zero_total`` is set.
    """

    schema: Schema
    counts: np.ndarray
    zero_total: bool = field(default=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=float)
        k = len(self.schema)
        if arr.size != 2 ** k:
            raise DataError(f"expected {2 ** k} cells, got {arr.size}")
        arr = arr.reshape((2,) * k).copy()
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise DataError("counts must be finite and nonnegative")
        if arr.sum() <= 0 and not self.zero_total:
            raise DataError("table total must be positive")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    def __eq__(self, other):
        if not isinstance(other, ContingencyTable):
            return NotImplemented
        return self.schema == other.schema and np.array_equal(self.counts, other.counts)

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    @property
    def variables(self) -> tuple[str, ...]:
        return self.schema.variables

    def cells(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """(levels, count) pairs in lexicographic order."""
        return zip(itertools.product((0, 1), repeat=self.counts.ndim),
                   self.counts.ravel().tolist())

    def _resolve(self, at: CellAddress) -> dict[int, int]:
        out: dict[int, int] = {}
        for name, level in at.items():
            ax = self.schema.axis(name)
            if ax in out:
                raise DataError(f"variable {name!r} assigned twice")
            if level not in (0, 1):
                raise DataError(f"level for {name!r} must be 0 or 1, got {level!r}")
            out[ax] = int(level)
        return out

    def cell(self, at: CellAddress) -> float:
        """Count stored at a full address (every variable assigned)."""
        assign = self._resolve(at)
        if len(assign) != len(self.schema):
            missing = [v for i, v in enumerate(self.variables) if i not in assign]
            raise DataError(f"partial address, missing {missing}")
        idx = tuple(assign[i] for i in range(len(self.schema)))
        return float(self.counts[idx])

    def marginalize(self, keep) -> "ContingencyTable":
        """Sum counts over all variables not in ``keep``.

        The total is preserved exactly; the kept variables retain their
        original relative order.
        """
        keep = set(keep)
        if not keep:
            raise DataError("keep set must be nonempty")
        sub = self.schema.subset(keep)
        drop = tuple(i for i, v in enumerate(self.variables) if v not in keep)
        out = self.counts.sum(axis=drop) if drop else self.counts
        return ContingencyTable(sub, out, zero_total=self.zero_total)

    def condition(self, on: CellAddress) -> "ContingencyTable":
        """Slice of the table matching the address, over the remaining variables.

        An empty address returns the table unchanged.  A slice with no
        observations is allowed and flagged via ``zero_total``.
        """
        if not on:
            return self
        assign = self._resolve(on)
        if len(assign) == len(self.schema):
            raise DataError("conditioning must leave at least one variable")
        index = tuple(assign.get(i, slice(None)) for i in range(len(self.schema)))
        out = self.counts[index]
        remaining = tuple(v for i, v in enumerate(self.variables) if i not in assign)
        return ContingencyTable(Schema(remaining), out, zero_total=float(out.sum()) == 0.0)

    def slice_l(self, name: str, level: int) -> "ContingencyTable":
        """Shorthand for conditioning on a single variable."""
        return self.condition({name: level})


def term_masks(k: int, terms) -> np.ndarray:
    """Flat cell index bit masks of terms given as tuples of table axes."""
    return np.array([sum(1 << (k - 1 - axis) for axis in term) for term in terms], dtype=np.int64)


def term_columns(k: int, terms, cells) -> np.ndarray:
    """Dummy-coded design columns over flat C-order cell indices.

    ``terms`` lists each term as a tuple of axes of a ``k``-variable table;
    a term's column is 1 where ``(cell & mask) == mask``, all its variables
    at level 1; the empty term is a column of ones.
    """
    return _mask_columns(term_masks(k, terms), cells)


def _mask_columns(masks, cells) -> np.ndarray:
    cells = np.asarray(cells, dtype=np.int64)[:, None]
    return ((cells & masks) == masks).astype(float)


def _containment(bits: int) -> np.ndarray:
    """Z[s, c] = 1 where the ``bits``-bit cell index c contains s (c & s == s)."""
    index = np.arange(1 << bits)
    return ((index & index[:, None]) == index[:, None]).astype(float)


_CONTAINMENT = tuple(map(_containment, range(7)))  # every Z of up to 12 variables, 43 KB


def superset_sums(values) -> np.ndarray:
    """Entry s sums ``values[c]`` over the flat cells c with c & s == s: the
    zeta transform (Yates 1937; Good 1958) as Z V Z', V the values over the
    high and low index bits, Z[s, c] = 1 where c contains s.  It takes
    2^k (2^(k//2) + 2^(k - k//2)) multiply-adds, however many values are 0."""
    k = len(values).bit_length() - 1
    hi, lo = k // 2, k - k // 2
    z_hi, z_lo = (_CONTAINMENT[hi], _CONTAINMENT[lo]) if k <= 12 else map(_containment, (hi, lo))
    return np.dot(np.dot(z_hi, np.reshape(values, (1 << hi, 1 << lo))), z_lo.T).ravel()


def cross_products(k: int, masks, cells, w, X=None) -> np.ndarray:
    """X'WX of the 0/1 columns of term ``masks`` over the flat ``cells`` of a
    ``k``-variable table, weight ``w[i]`` on ``cells[i]``: entry (s, t) sums w
    over the cells that contain ``masks[s] | masks[t]``.  The superset sums of
    the whole lattice give it for any number of cells; where the listed cells
    take fewer multiply-adds, len(cells) p^2, the columns ``X`` over them do
    (built here unless given)."""
    if len(cells) * len(masks) ** 2 < (1 << k) * ((1 << k // 2) + (1 << k - k // 2)):
        X = _mask_columns(masks, cells) if X is None else X
        return X.T @ (X * w[:, None])
    lattice = np.zeros(1 << k)
    lattice[cells] = w
    return superset_sums(lattice)[masks[:, None] | masks[None, :]]


def strata_cells(k: int, factor: int, given) -> tuple[np.ndarray, np.ndarray]:
    """Flat C-order indices ``(hi, lo)`` of the factor=1 and factor=0 cells of
    a ``k``-variable table, of shape ``(2 ** len(given), 2 ** rest)``: one row
    per level combination of the ``given`` axes in C order as listed, one
    column per combination of the remaining axes in axis order."""
    given = list(given)
    cells = np.moveaxis(np.arange(1 << k, dtype=np.int64).reshape((2,) * k), [factor, *given],
                        range(len(given) + 1))
    lo, hi = cells.reshape(2, 1 << len(given), -1)
    return hi, lo


def from_cells(variables, cells: Mapping[tuple[int, ...], float]) -> ContingencyTable:
    """Build a table from a {levels: count} mapping; unlisted cells are 0."""
    schema = Schema(tuple(variables))
    arr = np.zeros((2,) * len(schema))
    for levels, count in cells.items():
        arr[tuple(levels)] = count
    return ContingencyTable(schema, arr)


def json_names(value, message: str, nested: bool = False, error=DataError):
    """A JSON list of names as a tuple, or with ``nested`` a list of name
    lists as a tuple of tuples; ``error(message)`` for anything else.  Every
    name must be a JSON string: a string is never split into letters."""
    if nested and isinstance(value, list):
        return tuple(json_names(items, message, error=error) for items in value)
    if nested or not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise error(message)
    return tuple(value)


def ingest(cells_text: str) -> ContingencyTable:
    """Parse the cell-CSV format: header of variable names plus ``count``.

    One row per cell, level labels ``0``/``1``, counts as decimal reals.
    Cells absent from the file are zero.  Duplicate addresses, negative
    counts and unknown level labels are errors.

    A plain file (no quotes, padding, blank lines or carriage returns) is
    decoded as arrays; anything else, and any plain file that fails a check,
    goes through the row checker, so both give the same tables and messages.
    """
    table = _ingest_plain(cells_text)
    return table if table is not None else _ingest_rows(cells_text)


def _header_schema(header) -> Schema:
    """Schema of the variable names in a cell-CSV header's fields."""
    header = [h.strip() for h in header]
    if len(header) < 2 or header[-1] != "count":
        raise DataError("header must name variables followed by a final 'count' column")
    names = tuple(header[:-1])
    if "count" in names:
        raise DataError("'count' is reserved for the count column")
    return Schema(names)


def _ingest_plain(cells_text: str) -> ContingencyTable | None:
    """The table of a plain file whose every data row is k ``0``/``1`` labels,
    each followed by ``,``, and then a count; ``None`` on any doubt."""
    if not cells_text or any(c in cells_text for c in '" \r\t'):
        return None
    header, _, body = cells_text.partition("\n")
    rows = body.split("\n")
    if rows[-1] == "":
        rows.pop()
    # csv.reader refuses a field above its limit; leave that to the row checker
    if not header or not rows or max(len(header), *map(len, rows)) > csv.field_size_limit():
        return None
    schema = _header_schema(header.split(","))
    k = len(schema)
    width = 2 * k
    try:
        prefixes = "".join([row[:width] for row in rows]).encode("ascii")
        counts = np.array([float(row[width:]) for row in rows])
    except (UnicodeEncodeError, ValueError):
        return None
    # every prefix is k labels, each followed by a comma (float() refuses a
    # count that holds one)
    labels, commas = prefixes[0::2], prefixes[1::2]
    if (len(prefixes) != width * len(rows) or labels.translate(None, b"01")
            or commas.count(b",") != len(commas)):
        return None
    bits = np.frombuffer(labels.translate(bytes.maketrans(b"01", b"\0\1")), dtype=np.uint8)
    flat = np.ravel_multi_index(bits.reshape(len(rows), k).T, (2,) * k)
    if not np.all(np.isfinite(counts)) or np.any(counts < 0):
        return None
    if np.bincount(flat, minlength=1 << k).max() > 1:
        return None
    arr = np.zeros(1 << k)
    arr[flat] = counts
    return ContingencyTable(schema, arr)


def _ingest_rows(cells_text: str) -> ContingencyTable:
    """The row checker: parses any cell-CSV text with ``csv.reader`` and
    names the line of the first malformed row."""
    rows = _csv_rows(cells_text)
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataError("no data rows") from None
    schema = _header_schema(header)
    names = schema.variables
    k = len(names)
    level_of = {label: level for level, label in enumerate(LEVELS)}
    arr = np.zeros(2 ** k)
    seen = bytearray(2 ** k)
    n_rows = 0
    for lineno, row in rows:
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) != k + 1:
            raise DataError(f"line {lineno}: expected {k + 1} fields, got {len(row)}")
        flat = 0
        for name, label in zip(names, row):
            level = level_of.get(label.strip())
            if level is None:
                raise DataError(f"line {lineno}: unknown level {label.strip()!r} for {name!r}")
            flat = 2 * flat + level
        if seen[flat]:
            key = tuple((flat >> (k - 1 - axis)) & 1 for axis in range(k))
            raise DataError(f"line {lineno}: duplicate cell address {key}")
        seen[flat] = 1
        try:
            count = float(row[-1])
        except ValueError:
            raise DataError(f"line {lineno}: bad count {row[-1]!r}") from None
        if not math.isfinite(count) or count < 0:
            raise DataError(f"line {lineno}: negative or non-finite count {count}")
        arr[flat] = count
        n_rows += 1
    if n_rows == 0:
        raise DataError("no data rows")
    return ContingencyTable(schema, arr)


def _csv_rows(cells_text: str):
    """(line, row) pairs of ``csv.reader``, the header at line 1; a row the
    reader refuses (a field above its size limit, a stray carriage return)
    is a DataError naming its line."""
    reader = csv.reader(io.StringIO(cells_text))
    for lineno in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        yield lineno, row


def emit(table: ContingencyTable) -> str:
    """Serialize to cell-CSV, rows sorted lexicographically by schema order.

    Counts are written with ``%.17g`` so that ``ingest(emit(t)) == t``
    exactly, and the output is byte-stable for a given table.  Only the
    header goes through ``csv.writer``, which quotes names where needed;
    level labels and ``%.17g`` strings never need quoting.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([*table.variables, "count"])
    # "0,1,...," per cell in C order, the first variable varying slowest
    prefixes = [""]
    for _ in table.variables:
        prefixes = [prefix + label for prefix in prefixes for label in ("0,", "1,")]
    out.write("".join([prefix + format(count, ".17g") + "\n"
                       for prefix, count in zip(prefixes, table.counts.ravel().tolist())]))
    return out.getvalue()

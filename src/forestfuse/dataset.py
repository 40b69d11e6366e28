"""Tabular data containers with explicit missingness.

A Dataset is an immutable table of float64 cells stored either dense
row-major or CSR. Missingness lives only in the dense missing mask,
and the mask marks absent cells only: a masked cell holds NaN, and
every other cell is finite. So a filled table (an imputation result)
is complete, with an all-False mask, and `has_missing` is the one
completeness test. A CSR dataset carries no missingness; its zeros are
structural zeros and its mask reads all False. Categorical features
are integer-coded at load time and split as ordered codes.

`Dataset.read_cells` is the one cell reader for both storages. The CSR
arrays are a CSR dataset's canonical content: they are what the model
fingerprint hashes. `from_csr` also keeps the stored cells sorted by
(column, row), so any set of cells is read with one searchsorted.
"""

from __future__ import annotations

import csv
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, FormatError, ParseError, SchemaError

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

DEFAULT_MISSING_TOKEN = "NA"
# CSV records parsed column-wise at once; bounds the strings held in memory
_CSV_BLOCK_ROWS = 256


@dataclass(frozen=True)
class Feature:
    """One column of the schema.

    Parameters
    ----------
    name : str
        Unique, non-empty column name.
    kind : str
        Either ``"continuous"`` or ``"categorical"``.
    categories : tuple of str
        Labels for a categorical feature; code ``c`` means
        ``categories[c]``. Empty for continuous features.
    """

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise SchemaError("feature name must be non-empty")
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise SchemaError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL and len(self.categories) < 1:
            raise SchemaError(
                f"categorical feature {self.name!r} needs at least one category"
            )
        if self.kind == CONTINUOUS and self.categories:
            raise SchemaError(
                f"continuous feature {self.name!r} must not list categories"
            )


class FeatureSchema:
    """Ordered collection of features with unique names."""

    def __init__(self, features):
        features = list(features)
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise SchemaError("feature names must be unique")
        self.features: list[Feature] = features

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    def is_categorical(self) -> np.ndarray:
        """Boolean mask, True where the feature is categorical."""
        return np.array([f.kind == CATEGORICAL for f in self.features], dtype=bool)

    def n_categories(self, feature: int) -> int:
        return len(self.features[feature].categories)

    def __eq__(self, other):
        return isinstance(other, FeatureSchema) and self.features == other.features

    def __len__(self):
        return len(self.features)


@contextmanager
def _read_text(path, newline=None):
    """open(path) for UTF-8 text; bytes that do not decode raise ParseError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_schema(path) -> FeatureSchema:
    """Parse a sidecar schema file.

    One feature per line: ``name,kind`` for continuous features or
    ``name,categorical,label1|label2|...`` for categoricals. Blank lines
    and lines starting with ``#`` are skipped.
    """
    features = []
    with _read_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise FormatError(f"{path}:{lineno}: expected 'name,kind[,cats]'")
            name, kind = parts[0].strip(), parts[1].strip()
            cats: tuple[str, ...] = ()
            if len(parts) > 2 and parts[2].strip():
                cats = tuple(c.strip() for c in ",".join(parts[2:]).split("|"))
            features.append(Feature(name, kind, cats))
    return FeatureSchema(features)


def continuous_schema(names) -> FeatureSchema:
    """Schema with every listed feature continuous."""
    return FeatureSchema([Feature(n, CONTINUOUS) for n in names])


class Dataset:
    """Immutable n_rows x n_features table.

    Construct through :meth:`from_dense`, :meth:`from_csr`, or the file
    loaders. The mask marks the absent cells and nothing else; an absent
    cell holds NaN, which keeps accidental reads loud. A CSR dataset has
    no missing cells.
    """

    def __init__(self):
        raise TypeError("use Dataset.from_dense / Dataset.from_csr / the loaders")

    @classmethod
    def _blank(cls) -> "Dataset":
        return object.__new__(cls)

    @classmethod
    def from_dense(cls, values, schema=None, missing_mask=None, target=None):
        """Wrap a dense (n, m) float array; copies its inputs."""
        ds = cls._blank()
        values = np.array(_as_floats(values, "dense values", ArgumentError),
                          order="C", ndmin=2)
        if values.ndim != 2:
            raise ArgumentError(f"dense values must be 2-D, not {values.ndim}-D")
        ds.is_sparse = False
        ds.values = values
        ds.n_rows, ds.n_features = values.shape
        if schema is None:
            schema = continuous_schema([f"f{j}" for j in range(ds.n_features)])
        if schema.n_features != ds.n_features:
            raise SchemaError(
                f"schema has {schema.n_features} features, data has {ds.n_features}"
            )
        ds.schema = schema
        if missing_mask is None:
            missing_mask = np.zeros(values.shape, dtype=bool)
        else:
            missing_mask = np.array(missing_mask)
            if missing_mask.dtype.kind not in "biuf":
                raise ArgumentError("missing mask must hold booleans, not "
                                    f"{missing_mask.dtype}")
            missing_mask = missing_mask.astype(bool)
            if missing_mask.shape != values.shape:
                raise ArgumentError("missing mask shape must match values")
        bad = _non_finite_cell(values, missing_mask)
        if bad is not None:
            raise ArgumentError(f"cell {tuple(bad)} is not finite and not "
                                "marked missing")
        ds.missing = missing_mask
        ds.values[missing_mask] = np.nan
        ds._set_target(target, ArgumentError)
        ds._check_categorical_codes()
        return ds

    @classmethod
    def from_csr(cls, indptr, indices, data, n_features, schema=None, target=None):
        """Wrap CSR arrays; validates offsets and column ordering."""
        ds = cls._blank()
        ds.is_sparse = True
        ds.indptr = _as_whole(indptr, "CSR offsets")
        indices = _as_whole(indices, "CSR indices")
        ds.data = _as_floats(data, "CSR values", FormatError)
        n_features = _as_whole(n_features, "n_features")
        if ds.indptr.size == 0 or {ds.indptr.ndim, indices.ndim,
                                   ds.data.ndim} != {1}:
            raise FormatError("CSR arrays must be 1-D with at least one offset")
        if n_features.ndim:
            raise FormatError("n_features must be one number")
        ds.n_rows = len(ds.indptr) - 1
        ds.n_features = int(n_features)
        if np.any(np.diff(ds.indptr) < 0):
            raise FormatError("CSR row offsets must be non-decreasing")
        if ds.indptr[0] != 0 or ds.indptr[-1] != len(indices):
            raise FormatError("CSR offsets do not span the index array")
        if len(indices) != len(ds.data):
            raise FormatError("CSR indices and values differ in length")
        if indices.size:
            if indices.min() < 0 or indices.max() >= ds.n_features:
                raise FormatError("CSR column id out of range")
        ds.indices = indices.astype(np.int32)
        row_of = np.repeat(np.arange(ds.n_rows, dtype=np.int64),
                           np.diff(ds.indptr))
        bad = (np.diff(ds.indices) <= 0) & (row_of[1:] == row_of[:-1])
        if bad.any():
            r = row_of[np.argmax(bad)]
            raise FormatError(f"row {r}: CSR columns must be strictly increasing")
        bad = ~np.isfinite(ds.data)
        if bad.any():
            i = np.argmax(bad)
            raise FormatError(f"row {row_of[i]}, column {ds.indices[i]}: "
                              "CSR value is not finite")
        if schema is None:
            schema = continuous_schema([f"f{j + 1}" for j in range(ds.n_features)])
        if schema.n_features != ds.n_features:
            raise SchemaError(
                f"schema has {schema.n_features} features, data has {ds.n_features}"
            )
        ds.schema = schema
        # complete by construction: an all-False mask that holds no memory
        ds.missing = np.broadcast_to(False, (ds.n_rows, ds.n_features))
        ds._set_target(target, FormatError)
        # one ascending (column, row) key per stored cell, so any set of
        # cells is read with one searchsorted; stable keeps rows ascending
        # within each column
        order = np.argsort(ds.indices, kind="stable")
        col_of = ds.indices[order].astype(np.int64)
        ds._cell_key = col_of * ds.n_rows + row_of[order]
        ds._cell_vals = ds.data[order]
        return ds

    def _set_target(self, target, error):
        if target is None:
            self.target = None
            return
        target = _as_floats(target, "target", error)
        if target.shape != (self.n_rows,):
            raise ArgumentError(
                f"target length {target.shape} does not match n_rows {self.n_rows}"
            )
        self.target = target

    def _check_categorical_codes(self):
        for k, feat in enumerate(self.schema.features):
            if feat.kind != CATEGORICAL:
                continue
            col = self.values[:, k]
            obs = col[~self.missing[:, k]]
            if obs.size == 0:
                continue
            if np.any(obs != np.floor(obs)) or obs.min() < 0 \
                    or obs.max() >= len(feat.categories):
                raise SchemaError(
                    f"feature {feat.name!r}: categorical codes must be integers "
                    f"in [0, {len(feat.categories)})"
                )

    # -- cell access -----------------------------------------------------

    @property
    def n_missing(self) -> int:
        # CSR storage is complete by construction: skip its broadcast mask
        return 0 if self.is_sparse else int(np.count_nonzero(self.missing))

    @property
    def has_missing(self) -> bool:
        return not self.is_sparse and bool(self.missing.any())

    def gather_column(self, rows, feature: int) -> np.ndarray:
        """`read_cells(rows, feature)`; kept for the benchmark's tracer."""
        return self.read_cells(rows, feature)

    def read_cells(self, rows, features) -> np.ndarray:
        """Values at the cells (rows, features), broadcast against each other.

        Cells read as stored: a missing cell reads NaN and a CSR absent
        reads 0.0; the missing mask says which cells are missing.
        Rows or features outside the table raise IndexError.
        """
        rows = np.asarray(rows, dtype=np.int64)
        features = np.asarray(features, dtype=np.int64)
        for ids, size, what in ((rows, self.n_rows, "rows"),
                                (features, self.n_features, "features")):
            # one pass: a negative id views as a huge unsigned one
            if ids.size and ids.view(np.uint64).max() >= size:
                raise IndexError(f"{what} {ids.min()}..{ids.max()} out of "
                                 f"bounds for {size} {what}")
        if not self.is_sparse:
            return self.values[rows, features]
        key = features * self.n_rows + rows
        if self._cell_key.size == 0:
            return np.zeros(key.shape, dtype=np.float64)
        # searching all but the last key keeps every position in range; a
        # cell past the last stored one lands on it and misses
        pos = np.searchsorted(self._cell_key[:-1], key)
        return np.where(self._cell_key[pos] == key, self._cell_vals[pos], 0.0)

    def _replace(self, **fields) -> "Dataset":
        """Copy of this Dataset, sharing its arrays, with `fields` replaced."""
        ds = Dataset._blank()
        ds.__dict__.update(self.__dict__, **fields)
        return ds

    def with_values(self, values) -> "Dataset":
        """Complete dense Dataset with the same schema and target, new values.

        Every cell must be finite, and the result's mask is all False.
        Categorical codes are not checked.
        """
        if self.is_sparse:
            raise ArgumentError("with_values requires dense storage")
        values = np.array(values, dtype=np.float64, order="C")
        if values.shape != (self.n_rows, self.n_features):
            raise ArgumentError("replacement values must keep the shape")
        missing = np.zeros(values.shape, dtype=bool)
        bad = _non_finite_cell(values, missing)
        if bad is not None:
            raise ArgumentError(f"cell {tuple(bad)} is not finite")
        return self._replace(values=values, missing=missing)

    def without_target(self) -> "Dataset":
        return self if self.target is None else self._replace(target=None)


def _as_floats(values, what: str, error) -> np.ndarray:
    """`values` as a float64 array; raises `error` if they are not numbers."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be numbers: {exc}") from None


def _as_whole(values, what: str) -> np.ndarray:
    """`values` as an int64 array; raises FormatError unless whole numbers."""
    ids = np.asarray(values)
    if ids.dtype.kind == "f":
        if not np.all(np.isfinite(ids) & (ids == np.trunc(ids))):
            raise FormatError(f"{what} must be whole numbers")
    elif ids.dtype.kind not in "biu":
        raise FormatError(f"{what} must be whole numbers, not {ids.dtype}")
    return ids.astype(np.int64)


def _non_finite_cell(values, missing):
    """[row, column] of the first non-finite cell outside `missing`, or None."""
    bad = ~(np.isfinite(values) | missing)
    return np.argwhere(bad)[0].tolist() if bad.any() else None


# -- dense CSV ------------------------------------------------------------

def load_dense_csv(path, schema: FeatureSchema, target_column=None,
                   missing_token: str = DEFAULT_MISSING_TOKEN) -> Dataset:
    """Load a dense CSV against a schema.

    The header must list the schema's feature names in order; a target
    column named `target_column` may appear at any position. Cells equal
    to `missing_token` populate the missing mask; categorical labels are
    mapped to their schema codes. Any other continuous cell must parse as
    a finite number.
    """
    with _read_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        target_pos = None
        if target_column is not None:
            if target_column not in header:
                raise SchemaError(
                    f"{path}: target column {target_column!r} not in header"
                )
            target_pos = header.index(target_column)
        feature_headers = [h for i, h in enumerate(header) if i != target_pos]
        if feature_headers != schema.names:
            raise SchemaError(
                f"{path}: header {feature_headers} does not match schema "
                f"{schema.names}"
            )
        col_map = [i for i in range(len(header)) if i != target_pos]
        m = schema.n_features
        # blocks of (values, mask, target); a fault raises in its block
        parts = [(np.empty((0, m)), np.zeros((0, m), dtype=bool), np.empty(0))]
        line = 2  # the file line of the next record
        while records := list(itertools.islice(reader, _CSV_BLOCK_ROWS)):
            parts.append(_parse_records(records, line, path, len(header),
                                        col_map, target_pos, schema,
                                        missing_token))
            line += len(records)

    values, mask, target = (np.concatenate(p) for p in zip(*parts))
    bad = _non_finite_cell(values, mask)
    if bad is not None:
        r, k = bad
        raise ParseError(f"{path}:{r + 2}: column {schema.names[k]!r}: cell "
                         f"{float(values[r, k])!r} is not finite")
    return Dataset.from_dense(values, schema, mask,
                              None if target_pos is None else target)


def _parse_records(records, line, path, n_fields, col_map, target_pos,
                   schema, missing_token):
    """Parse CSV records column-wise into (values, mask, target).

    Raises the first fault in row-major order, `line` being the file line
    of records[0]: a bad cell, or else a record with the wrong field
    count. A cell's finiteness is checked later, over the whole table.
    """
    # a record with the wrong field count ends the parsed table; a bad
    # cell on an earlier line is still the first fault
    cut = next((i for i, rec in enumerate(records) if len(rec) != n_fields),
               len(records))
    table = records[:cut]
    n, m = len(table), schema.n_features
    values = np.empty((n, m))
    mask = np.zeros((n, m), dtype=bool)
    faults = []  # each column's first bad cell: (row, position, error)
    for k, (src, feat) in enumerate(zip(col_map, schema.features)):
        cells = [rec[src].strip() for rec in table]
        if feat.kind == CATEGORICAL:
            # the first code of a repeated label; the missing token wins
            codes = {label: float(code) for code, label
                     in reversed(list(enumerate(feat.categories)))}
            codes[missing_token] = np.nan
            picked = [codes.get(cell) for cell in cells]
            if None in picked:
                r = picked.index(None)
                faults.append((r, k, SchemaError(
                    f"{path}:{line + r}: column {feat.name!r}: "
                    f"unknown category label {cells[r]!r}")))
                continue
            values[:, k] = picked
            mask[:, k] = np.isnan(values[:, k])
            continue
        if missing_token in cells:
            mask[:, k] = [cell == missing_token for cell in cells]
            cells = ["nan" if miss else cell
                     for cell, miss in zip(cells, mask[:, k])]
        r = _parse_floats(cells, values[:, k])
        if r is not None:
            faults.append((r, k, ParseError(
                f"{path}:{line + r}: column {feat.name!r}: "
                f"cannot parse {cells[r]!r} as a number")))
    target = np.empty(n)
    if target_pos is not None:
        cells = [rec[target_pos].strip() for rec in table]
        r = _parse_floats(cells, target)
        if r is not None:
            faults.append((r, m, ParseError(
                f"{path}:{line + r}: cannot parse target {cells[r]!r}")))
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]
    if cut < len(records):
        raise FormatError(f"{path}:{line + cut}: expected {n_fields} fields, "
                          f"got {len(records[cut])}")
    return values, mask, target


def _parse_floats(cells, out) -> int | None:
    """Parse `cells` as Python floats into `out`; the first bad index or None."""
    try:
        out[:] = np.array(cells, dtype=np.float64)
    except ValueError:
        for r, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                return r
        raise
    return None


def write_dense_csv(ds: Dataset, path, target_column=None,
                    missing_token: str = DEFAULT_MISSING_TOKEN) -> None:
    """Write a dense Dataset back to CSV.

    Continuous cells use shortest round-trip float formatting, so a
    load/write cycle is idempotent after the first round trip.
    """
    if ds.is_sparse:
        raise ArgumentError("write_dense_csv requires dense storage")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(ds.schema.names)
        if target_column is not None:
            if ds.target is None:
                raise ArgumentError("dataset has no target to write")
            header.append(target_column)
        writer.writerow(header)
        labels = [f.categories if f.kind == CATEGORICAL else None
                  for f in ds.schema.features]
        target = None if target_column is None else ds.target.tolist()
        for r, (row, missing) in enumerate(zip(ds.values.tolist(),
                                               ds.missing.tolist())):
            rec = [missing_token if absent else repr(v) if cats is None
                   else cats[int(v)]
                   for v, absent, cats in zip(row, missing, labels)]
            if target is not None:
                rec.append(repr(target[r]))
            writer.writerow(rec)


# -- sparse SVMLight ------------------------------------------------------

def load_sparse_svmlight(path, n_features: int) -> Dataset:
    """Load SVMLight/libsvm text into a CSR Dataset.

    Lines read ``<target> <col>:<value> ...`` with 1-based strictly
    increasing columns and finite values. Absent entries are structural
    zeros, not missing values, and every feature is continuous.
    """
    if n_features < 1:
        raise ArgumentError("n_features must be >= 1")
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    targets: list[float] = []
    with _read_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                targets.append(float(parts[0]))
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: cannot parse target {parts[0]!r}"
                ) from None
            prev = 0
            for tok in parts[1:]:
                col_s, _, val_s = tok.partition(":")
                try:
                    col = int(col_s)
                except ValueError:
                    raise FormatError(
                        f"{path}:{lineno}: bad feature token {tok!r}"
                    ) from None
                if col < 1 or col > n_features:
                    raise FormatError(
                        f"{path}:{lineno}: column {col} outside 1..{n_features}"
                    )
                if col <= prev:
                    raise FormatError(
                        f"{path}:{lineno}: columns must be strictly increasing"
                    )
                try:
                    val = float(val_s)
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: cannot parse value in {tok!r}"
                    ) from None
                if not math.isfinite(val):
                    raise ParseError(f"{path}:{lineno}: column {col}: "
                                     f"value {val_s!r} is not finite")
                indices.append(col - 1)
                data.append(val)
                prev = col
            indptr.append(len(indices))
    return Dataset.from_csr(indptr, indices, data, n_features,
                            target=np.array(targets))

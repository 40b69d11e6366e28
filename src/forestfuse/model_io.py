"""Model persistence.

Single-file container: magic bytes, a little-endian format version, then
length-prefixed named sections. Format version 2 holds:

- "meta": JSON metadata, with the SHA-256 of the training file's bytes
  and its target column's name when the CLI trained the model;
- "trees": each tree's node count (int64), then each `forest.NODE_LAYOUT`
  field over all trees, tree after tree, in its dtype;
- "inbag" and "leaf_train", the in-bag counts and leaf assignments of
  every training row, rows by trees, each in the narrowest unsigned
  type that holds its largest value, named in the metadata; loading
  widens them to uint16 and int32;
- the training rows the forest answers for: "values" (float64, rows by
  features) for dense data, or "indptr" (int64), "indices" (int32) and
  "data" (float64) for CSR, plus "target" (float64) unless unsupervised.

Everything is little-endian. Serialization is canonical (sorted JSON
keys, dtypes fixed or chosen by the values), so identical forests
produce byte-identical files, saving what was loaded writes the same
bytes, and a round trip reproduces predictions and top-K results exactly.

Loading checks every length, count and shape against the metadata, then
every tree's node links, leaf ids and node values in one pass over the
forest's node arrays, and the training rows as the Dataset constructors
do, with a finite target of the forest's classes. So a truncated or
corrupted file raises ModelFormatError rather than a low-level error, a
forest whose walks never end, or a leaf whose class counts give NaN
probabilities.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, Feature, FeatureSchema
from .errors import ArgumentError, ForestFuseError, ModelFormatError
from .forest import NODE_LAYOUT, Forest, ForestConfig

MAGIC = b"FFMD"
FORMAT_VERSION = 2


@dataclass
class ModelArtifact:
    """A forest, its schema and the rows it was trained on.

    source_sha256 is the SHA-256 (hex) of the training file's bytes and
    target_column the name of its target column, when the rows were read
    from a file; `forestfuse train` records both.
    """

    forest: Forest
    schema: FeatureSchema
    data: Dataset
    source_sha256: str | None = None
    target_column: str | None = None


# NODE_LAYOUT's dtypes, little-endian
_FILE_LAYOUT = [(name, np.dtype(dtype).newbyteorder("<").str)
                for name, dtype in NODE_LAYOUT]
# each per-row section: its name, the forest's array it holds, that
# array's dtype, and the types a file may store it in
_PER_ROW = (("inbag", "inbag_counts", np.uint16, ("uint8", "uint16")),
            ("leaf_train", "leaf_of_train", np.int32,
             ("uint8", "uint16", "uint32")))


def _le(values, dtype) -> bytes:
    return np.ascontiguousarray(values, dtype=np.dtype(dtype).newbyteorder(
        "<")).tobytes()


def _take(buf, offset: int, dtype: str, count: int):
    """`count` items of `dtype` at `offset`, and the offset after them."""
    end = offset + np.dtype(dtype).itemsize * count
    if count < 0 or end > len(buf):
        raise ModelFormatError("file is truncated")
    return np.frombuffer(buf, dtype=dtype, count=count, offset=offset), end


def _section(sections: dict, name: str, dtype, count: int) -> np.ndarray:
    """Section `name`, exactly `count` items of `dtype`, little-endian."""
    if name not in sections:
        raise ModelFormatError(f"missing section {name!r}")
    arr, end = _take(sections[name], 0, np.dtype(dtype).newbyteorder("<"),
                     count)
    if end != len(sections[name]):
        raise ModelFormatError(f"section {name!r} does not hold {count} "
                               "values")
    return arr


def _check_forest(forest: Forest) -> None:
    """One pass over the concatenated node arrays, each node in its tree."""
    sizes, owner = np.diff(forest.node_offset), forest.node_tree()
    feature, inner = forest.feature, forest.feature >= 0
    local = np.arange(len(feature)) - forest.node_offset[owner]
    left = forest.left[inner].astype(np.int64)  # left + 1 must not wrap
    rank = (np.arange(len(forest.leaf_nodes))
            - forest.leaf_offset[owner[forest.leaf_nodes]])
    # children after their parent and inside its tree, so every walk ends
    # at a leaf, the right one next to the left, as the walk steps; each
    # tree's leaf ids are exactly 0..n_leaves-1
    if not ((sizes >= 1).all() and feature.min() >= -1
            and feature.max() < forest.n_features
            and (forest.leaf_id[inner] == -1).all()
            and (forest.leaf_id[forest.leaf_nodes] == rank).all()
            and (forest.right[inner] == left + 1).all()
            and ((left > local[inner])
                 & (left + 1 < sizes[owner[inner]])).all()):
        raise ModelFormatError("tree nodes are inconsistent")
    value, n_node = forest.value, forest.n_node
    if not np.isfinite(value).all():
        raise ModelFormatError("node values are not finite")
    # class counts are whole, non-negative and sum to the node's rows
    if forest.n_classes and not (
            (n_node >= 1).all() and (value >= 0).all()
            and (value == np.round(value)).all()
            and (value.sum(axis=1) == n_node).all()):
        raise ModelFormatError("node class counts do not sum to the node size")
    leaves = forest.leaf_of_train
    if np.any(leaves < 0) or np.any(leaves >= np.diff(forest.leaf_offset)):
        raise ModelFormatError("leaf assignment beyond its tree's leaves")


def _schema_to_json(schema: FeatureSchema):
    return [{"name": f.name, "kind": f.kind, "categories": list(f.categories)}
            for f in schema.features]


def _schema_from_json(items) -> FeatureSchema:
    return FeatureSchema([
        Feature(d["name"], d["kind"], tuple(d["categories"])) for d in items])


def save_model(path, artifact: ModelArtifact) -> None:
    forest, ds = artifact.forest, artifact.data
    if (ds.n_rows, ds.n_features) != (forest.n_scored_rows,
                                      forest.n_features) or ds.has_missing:
        raise ArgumentError("the artifact's data are not complete rows of "
                            "the forest's training shape")
    meta = {
        "format_version": FORMAT_VERSION,
        "config": asdict(forest.config),
        "schema": _schema_to_json(artifact.schema),
        "n_features": forest.n_features,
        "n_classes": forest.n_classes,
        "n_train_rows": forest.n_train_rows,
        "synthetic_offset": forest.synthetic_offset,
        "oob_error": None if np.isnan(forest.oob_error) else forest.oob_error,
        "oob_skipped": forest.oob_skipped,
        "source_sha256": artifact.source_sha256,
        "target_column": artifact.target_column,
    }
    sections = [("trees", _le(np.diff(forest.node_offset), "<i8") + b"".join(
        _le(getattr(forest, name), dtype) for name, dtype in _FILE_LAYOUT))]
    for name, attr, _, _ in _PER_ROW:
        values = getattr(forest, attr)
        # the narrowest type of its range: unsigned, unless a value is not
        dtype = np.result_type(*map(np.min_scalar_type,
                                    (values.min(), values.max())))
        meta[f"{name}_dtype"] = dtype.name
        sections.append((name, _le(values, dtype)))
    if ds.is_sparse:
        sections += [("indptr", _le(ds.indptr, "<i8")),
                     ("indices", _le(ds.indices, "<i4")),
                     ("data", _le(ds.data, "<f8"))]
    else:
        sections.append(("values", _le(ds.values, "<f8")))
    if ds.target is not None:
        sections.append(("target", _le(ds.target, "<f8")))
    sections.insert(0, ("meta", json.dumps(
        meta, sort_keys=True, separators=(",", ":")).encode("utf-8")))
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", MAGIC, FORMAT_VERSION, len(sections)))
        for name, payload in sections:
            raw = name.encode("ascii")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)


def load_model(path) -> ModelArtifact:
    """Read a model file; any fault in its structure raises ModelFormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_model(blob)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def _count(value, low: int) -> int:
    if type(value) is not int or value < low:
        raise ModelFormatError(f"expected an integer >= {low}, got {value!r}")
    return value


def _name(value):
    if value is not None and type(value) is not str:
        raise ModelFormatError(f"expected a string or null, got {value!r}")
    return value


def _parse_model(blob: bytes) -> ModelArtifact:
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise ModelFormatError("not a forestfuse model file")
    magic, version, n_sections = struct.unpack_from("<4sII", blob, 0)
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"format version {version} is not supported "
            f"(expected {FORMAT_VERSION})")
    offset = 12
    sections = {}
    for _ in range(n_sections):
        (name_len,), offset = _take(blob, offset, "<u2", 1)
        name, offset = _take(blob, offset, "u1", int(name_len))
        (size,), offset = _take(blob, offset, "<u8", 1)
        payload, end = _take(blob, offset, "u1", int(size))
        sections[name.tobytes().decode("latin-1")] = payload.data
        offset = end
    if offset != len(blob):
        raise ModelFormatError(f"{len(blob) - offset} bytes after the sections")
    for required in ("meta", "trees"):
        if required not in sections:
            raise ModelFormatError(f"missing section {required!r}")

    try:
        meta = json.loads(bytes(sections["meta"]).decode("utf-8"))
        config = ForestConfig(**meta["config"])
        config.validate()
        schema = _schema_from_json(meta["schema"])
        n_features = _count(meta["n_features"], 1)
        n_train = _count(meta["n_train_rows"], 1)
        n_trees = _count(config.n_trees, 1)
        n_classes, synthetic_offset = (
            None if meta[k] is None else _count(meta[k], 1)
            for k in ("n_classes", "synthetic_offset"))
        oob = meta["oob_error"]
        oob_error = float("nan") if oob is None else float(oob)
        oob_skipped = _count(meta["oob_skipped"], 0)
        source_sha256, target_column = (
            _name(meta[k]) for k in ("source_sha256", "target_column"))
        stored = {}
        for name, _, _, allowed in _PER_ROW:
            if meta[f"{name}_dtype"] not in allowed:
                raise ModelFormatError(f"{name} stored as "
                                       f"{meta[f'{name}_dtype']!r}")
            stored[name] = meta[f"{name}_dtype"]
    except (KeyError, TypeError, ValueError, ForestFuseError) as exc:
        raise ModelFormatError(f"bad metadata: {exc}") from None
    # a regression forest alone stores no class counts, and an unsupervised
    # one alone has a synthetic half and two classes, real and synthetic
    unsupervised = config.mode == "unsupervised"
    if ((config.mode == "regression") != (n_classes is None)
            or unsupervised != (synthetic_offset is not None)
            or unsupervised and n_classes != 2):
        raise ModelFormatError(
            f"mode {config.mode!r} does not match n_classes={n_classes} "
            f"and synthetic_offset={synthetic_offset}")
    if synthetic_offset is not None and 2 * synthetic_offset != n_train:
        raise ModelFormatError("synthetic_offset is not half the rows")

    # each tree's node count, then each field over all trees
    buf = sections["trees"]
    sizes, end = _take(buf, 0, "<i8", n_trees)
    if sizes.min() < 0 or sizes.max() > len(buf):
        raise ModelFormatError("tree node counts are out of range")
    n = int(sizes.sum())
    counts = {"value": n * (n_classes or 1),
              "split_gain": n_trees * n_features}
    nodes = {"node_count": sizes}
    for name, dtype in _FILE_LAYOUT:
        arr, end = _take(buf, end, dtype, counts.get(name, n))
        nodes[name] = arr.astype(dtype[1:])
    if end != len(buf):
        raise ModelFormatError(f"{len(buf) - end} bytes after the trees")
    if n_classes:
        nodes["value"] = nodes["value"].reshape(n, n_classes)
    nodes["split_gain"] = nodes["split_gain"].reshape(n_trees, n_features)
    per_row = {
        name: _section(sections, name, stored[name], n_train * n_trees
                       ).reshape(n_train, n_trees).astype(memory)
        for name, _, memory, _ in _PER_ROW}
    forest = Forest(
        config=config,
        tree_arrays=nodes,
        inbag_counts=per_row["inbag"],
        leaf_of_train=per_row["leaf_train"],
        n_features=n_features,
        n_classes=n_classes,
        synthetic_offset=synthetic_offset,
        oob_error=oob_error,
        oob_skipped=oob_skipped,
    )
    _check_forest(forest)
    return ModelArtifact(forest=forest, schema=schema,
                         data=_stored_rows(sections, forest, schema),
                         source_sha256=source_sha256,
                         target_column=target_column)


def _stored_rows(sections: dict, forest: Forest, schema) -> Dataset:
    """The stored training rows: n_scored_rows x n_features, each cell
    checked by the Dataset constructors, and a target, finite and whole
    classes of the forest in classification, exactly when supervised."""
    n, m = forest.n_scored_rows, forest.n_features
    has_target = forest.mode != "unsupervised"
    if ("target" in sections) != has_target:
        raise ModelFormatError(f"a {forest.mode} model "
                               f"{'needs' if has_target else 'takes no'} "
                               "target section")
    target = None
    if has_target:
        target = _section(sections, "target", np.float64, n).astype(np.float64)
        if not (np.isfinite(target).all() and (
                forest.mode == "regression"
                or ((target >= 0) & (target < forest.n_classes)
                    & (target == np.floor(target))).all())):
            raise ModelFormatError("the target is not finite, or not the "
                                   "forest's classes")
    try:
        if "values" in sections:
            return Dataset.from_dense(
                _section(sections, "values", np.float64, n * m).reshape(n, m),
                schema, target=target)
        indptr = _section(sections, "indptr", np.int64, n + 1)
        nnz = int(indptr[-1])
        return Dataset.from_csr(
            indptr, _section(sections, "indices", np.int32, nnz),
            _section(sections, "data", np.float64, nnz).astype(np.float64),
            m, schema, target=target)
    except ModelFormatError:
        raise
    except ForestFuseError as exc:
        raise ModelFormatError(f"bad training rows: {exc}") from None

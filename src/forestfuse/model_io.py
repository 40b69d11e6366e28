"""Model persistence.

Single-file container: magic bytes, a little-endian format version, then
length-prefixed named sections (JSON metadata, trees, in-bag counts, leaf
assignments). The trees section holds one record per tree: its node
count, then its arrays in the order and dtypes of `forest.NODE_LAYOUT`,
little-endian. Serialization is canonical — sorted JSON keys,
fixed dtypes — so identical forests produce byte-identical files, and a
save/load round trip reproduces predictions and top-K results exactly.

Loading checks every length, count and shape against the metadata, then
every tree's node links, leaf ids and node values in one pass over the
forest's node arrays, so a truncated or corrupted file raises
ModelFormatError rather than a low-level error, a forest whose walks
never end, or a leaf whose class counts give NaN probabilities.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, Feature, FeatureSchema
from .errors import ForestFuseError, ModelFormatError, ProvenanceError
from .forest import NODE_LAYOUT, Forest, ForestConfig

MAGIC = b"FFMD"
FORMAT_VERSION = 1


@dataclass
class ModelArtifact:
    forest: Forest
    schema: FeatureSchema
    fingerprint: dict


def dataset_fingerprint(ds: Dataset, seed: int) -> dict:
    """Content hash binding a model to its training data."""
    h = hashlib.sha256()
    h.update(struct.pack("<qq", ds.n_rows, ds.n_features))
    if ds.is_sparse:
        h.update(b"csr")
        h.update(np.ascontiguousarray(ds.indptr, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(ds.indices, dtype="<i4").tobytes())
        h.update(np.ascontiguousarray(ds.data, dtype="<f8").tobytes())
    else:
        h.update(b"dense")
        h.update(np.ascontiguousarray(ds.values, dtype="<f8").tobytes())
        h.update(np.packbits(ds.missing).tobytes())
    if ds.target is not None:
        h.update(np.ascontiguousarray(ds.target, dtype="<f8").tobytes())
    return {
        "n_rows": ds.n_rows,
        "n_features": ds.n_features,
        "seed": seed,
        "sha256": h.hexdigest(),
    }


def check_fingerprint(artifact: ModelArtifact, ds: Dataset) -> None:
    """Raise ProvenanceError unless ds matches the model's training data."""
    actual = dataset_fingerprint(ds, artifact.fingerprint["seed"])
    if actual["sha256"] != artifact.fingerprint["sha256"]:
        raise ProvenanceError(
            "dataset does not match the model's training fingerprint")


# NODE_LAYOUT's dtypes, little-endian
_FILE_LAYOUT = [(name, np.dtype(dtype).newbyteorder("<").str)
                for name, dtype in NODE_LAYOUT]


def _pack_tree(arrays: dict) -> bytes:
    return struct.pack("<q", len(arrays["feature"])) + b"".join(
        np.ascontiguousarray(arrays[name], dtype=dtype).tobytes()
        for name, dtype in _FILE_LAYOUT)


def _take(buf, offset: int, dtype: str, count: int):
    """`count` items of `dtype` at `offset`, and the offset after them."""
    end = offset + np.dtype(dtype).itemsize * count
    if count < 0 or end > len(buf):
        raise ModelFormatError("file is truncated")
    return np.frombuffer(buf, dtype=dtype, count=count, offset=offset), end


def _unpack_tree(buf: memoryview, offset: int, n_classes, n_features):
    (n,), offset = _take(buf, offset, "<i8", 1)
    n = int(n)
    counts = {"value": n * (n_classes or 1), "split_gain": n_features}
    arrays = {}
    for name, dtype in _FILE_LAYOUT:
        arrays[name], offset = _take(buf, offset, dtype, counts.get(name, n))
    if n_classes:
        arrays["value"] = arrays["value"].reshape(n, n_classes)
    return arrays, offset


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
    forest = artifact.forest
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
        "fingerprint": artifact.fingerprint,
    }
    sections = [
        ("meta", json.dumps(meta, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")),
        ("trees", b"".join(_pack_tree(forest.arrays_of(t))
                           for t in range(forest.n_trees))),
        ("inbag", np.ascontiguousarray(
            forest.inbag_counts, dtype="<u2").tobytes()),
        ("leaf_train", np.ascontiguousarray(
            forest.leaf_of_train, dtype="<i4").tobytes()),
    ]
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
    for required in ("meta", "trees", "inbag", "leaf_train"):
        if required not in sections:
            raise ModelFormatError(f"missing section {required!r}")

    try:
        meta = json.loads(bytes(sections["meta"]).decode("utf-8"))
        stored = dict(meta["config"])
        stored.pop("proximity_pairs", None)  # older files; no longer a setting
        config = ForestConfig(**stored)
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
        fingerprint = {k: meta["fingerprint"][k]
                       for k in ("n_rows", "n_features", "seed", "sha256")}
    except (KeyError, TypeError, ValueError, ForestFuseError) as exc:
        raise ModelFormatError(f"bad metadata: {exc}") from None
    if synthetic_offset is not None and 2 * synthetic_offset != n_train:
        raise ModelFormatError("synthetic_offset is not half the rows")

    trees, end = [], 0
    for _ in range(n_trees):
        tree, end = _unpack_tree(sections["trees"], end, n_classes, n_features)
        trees.append(tree)
    if end != len(sections["trees"]):
        raise ModelFormatError(f"{len(sections['trees']) - end} bytes "
                               "after the trees")
    per_row = {}
    for name, dtype in (("inbag", "<u2"), ("leaf_train", "<i4")):
        arr, end = _take(sections[name], 0, dtype, n_train * n_trees)
        if end != len(sections[name]):
            raise ModelFormatError(f"section {name!r} does not hold "
                                   f"{n_train} x {n_trees} values")
        per_row[name] = arr.reshape(n_train, n_trees).astype(dtype[1:])
    forest = Forest(
        config=config,
        tree_arrays=trees,
        inbag_counts=per_row["inbag"],
        leaf_of_train=per_row["leaf_train"],
        n_features=n_features,
        n_classes=n_classes,
        synthetic_offset=synthetic_offset,
        oob_error=oob_error,
        oob_skipped=oob_skipped,
    )
    _check_forest(forest)
    return ModelArtifact(forest=forest, schema=schema, fingerprint=fingerprint)

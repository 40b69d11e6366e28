"""Command-line interface.

Subcommands cover the full pipeline: train a model, predict, query
similar rows (optionally explained), export importance reports, score
outliers, extract prototypes, impute missing values, and rank candidate
imputations. Exit codes: 0 success, 1 data/model error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .dataset import (Dataset, load_dense_csv, load_schema, write_dense_csv)
from .errors import ConfigError, ForestFuseError
from .forest import ForestConfig, p_synthetic, predict, predict_proba, train
from .importance import (compute_importance_report, local_proximity_importance,
                         local_variable_importance,
                         overall_proximity_importance,
                         overall_variable_importance)
from .imputation import ImputationConfig, impute, validate_imputations
from .model_io import (ModelArtifact, check_fingerprint, dataset_fingerprint,
                       load_model, save_model)
from .outlier import outlier_exact, outlier_greedy
from .prototype import find_prototypes
from .proximity import top_k_similar, top_k_similar_explained


def _add_forest_flags(p: argparse.ArgumentParser, require_mode: bool) -> None:
    p.add_argument("--mode", choices=("classification", "regression",
                                      "unsupervised"),
                   required=require_mode, default=None if require_mode
                   else "unsupervised")
    p.add_argument("--trees", dest="n_trees", type=int, default=100)
    p.add_argument("--mtry", type=int, default=None)
    p.add_argument("--min-node-size", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--split", choices=("presort", "histogram"),
                   default="presort")
    p.add_argument("--bins", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)


def _forest_config(args) -> ForestConfig:
    return ForestConfig(
        mode=args.mode, n_trees=args.n_trees, mtry=args.mtry,
        min_node_size=args.min_node_size, max_depth=args.max_depth,
        split_strategy=args.split, n_bins=args.bins, seed=args.seed)


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_rows(path, header, rows):
    fh, close = _open_out(path)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            fh.close()


def _texts(values) -> list:
    """Shortest round-trip text of each float of a 1-D array, or a list of
    such rows for a 2-D one, read through one .tolist()."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 2:
        return [list(map(repr, row)) for row in values.tolist()]
    return list(map(repr, values.tolist()))


def _load_data_for_model(artifact: ModelArtifact, path, target=None) -> Dataset:
    ds = load_dense_csv(path, artifact.schema, target_column=target)
    check_fingerprint(artifact, ds)
    return ds


# -- subcommands -----------------------------------------------------------

def cmd_train(args) -> int:
    schema = load_schema(args.schema)
    ds = load_dense_csv(args.data, schema, target_column=args.target)
    config = _forest_config(args)
    t0 = time.perf_counter()
    forest = train(ds, config)
    elapsed = time.perf_counter() - t0
    artifact = ModelArtifact(
        forest=forest, schema=schema,
        fingerprint=dataset_fingerprint(ds, config.seed))
    save_model(args.output, artifact)
    kind = "mse" if config.mode == "regression" else "error"
    print(f"oob_{kind}={forest.oob_error:.6f} skipped={forest.oob_skipped} "
          f"trees={forest.n_trees} seconds={elapsed:.2f}")
    if args.importance_out:
        report = compute_importance_report(forest, ds)
        _write_importance_files(args.importance_out, report, schema)
    return 0


def _write_importance_files(prefix, report, schema):
    names = schema.names
    for label, scores in (("overall_var", report.overall_var),
                          ("overall_prox", report.overall_prox)):
        _write_rows(f"{prefix}.{label}.csv", ["feature", "score"],
                    zip(names, _texts(scores)))
    for label, matrix in (("local_var", report.local_var),
                          ("local_prox", report.local_prox)):
        rows = [[r] + row for r, row in enumerate(_texts(matrix))]
        _write_rows(f"{prefix}.{label}.csv", ["row"] + names, rows)


def cmd_predict(args) -> int:
    artifact = load_model(args.model)
    forest = artifact.forest
    ds = load_dense_csv(args.data, artifact.schema, target_column=args.target)
    if forest.mode == "regression":
        values = predict(forest, ds)
        _write_rows(args.output, ["row", "prediction"],
                    enumerate(_texts(values)))
    elif forest.mode == "unsupervised":
        values = p_synthetic(forest, ds)
        _write_rows(args.output, ["row", "p_synthetic"],
                    enumerate(_texts(values)))
    else:
        proba = predict_proba(forest, ds)
        labels = np.argmax(proba, axis=1)
        header = ["row", "prediction"] + [f"p_class{c}"
                                          for c in range(proba.shape[1])]
        rows = [[r, label] + row for r, (label, row) in
                enumerate(zip(labels.tolist(), _texts(proba)))]
        _write_rows(args.output, header, rows)
    return 0


def cmd_similar(args) -> int:
    artifact = load_model(args.model)
    forest = artifact.forest
    queries = load_dense_csv(args.query, artifact.schema)
    if not (0 <= args.query_row < queries.n_rows):
        raise ConfigError(f"query row {args.query_row} out of range")
    vec = queries.values[args.query_row]

    if args.explain:
        if args.data is None:
            raise ConfigError("--explain needs --data (training file) "
                              "for donor draws")
        ds = _load_data_for_model(artifact, args.data, args.target)
        neighbors, importance = top_k_similar_explained(
            forest, ds.without_target(), vec, args.k,
            n_repeats=args.repeats)
    else:
        neighbors = top_k_similar(forest, vec, args.k)
    rows = [[rank, nb.row_id, repr(nb.score)]
            for rank, nb in enumerate(neighbors, start=1)]
    if args.explain:
        # a blank line, then the explanation as a second table
        rows += [[], ["feature", "importance"]] + list(
            zip(artifact.schema.names, _texts(importance)))
    _write_rows(args.output, ["rank", "row_id", "score"], rows)
    return 0


def cmd_importance(args) -> int:
    artifact = load_model(args.model)
    forest = artifact.forest
    ds = _load_data_for_model(artifact, args.data, args.target)
    names = artifact.schema.names
    if args.type.startswith("overall"):
        scores = (overall_variable_importance(forest, ds, args.method)
                  if args.type == "overall-var" else
                  overall_proximity_importance(forest, ds,
                                               n_repeats=args.repeats))
        _write_rows(args.output, ["feature", "score"],
                    zip(names, _texts(scores)))
        return 0
    if args.type == "local-var":
        matrix = local_variable_importance(forest, ds, n_repeats=args.repeats)
    else:
        matrix = local_proximity_importance(forest, ds,
                                            n_repeats=args.repeats)
    row_ids = range(matrix.shape[0])
    if args.row is not None:
        if not (0 <= args.row < matrix.shape[0]):
            raise ConfigError(f"--row {args.row} out of range")
        row_ids = [args.row]
    texts = _texts(matrix)
    rows = [[r] + texts[r] for r in row_ids]
    _write_rows(args.output, ["row"] + names, rows)
    return 0


def _outlier_classes(forest, ds):
    if forest.mode == "classification":
        if ds.target is None:
            raise ConfigError("classification outliers need the target "
                              "column (--target)")
        return ds.target.astype(np.int64)
    # one pseudo-class: all real rows together
    return np.zeros(forest.n_scored_rows, dtype=np.int64)


def cmd_outliers(args) -> int:
    artifact = load_model(args.model)
    forest = artifact.forest
    ds = _load_data_for_model(artifact, args.data, args.target)
    classes = _outlier_classes(forest, ds)
    if args.score_mode == "exact":
        report = outlier_exact(forest, classes)
    else:
        report = outlier_greedy(forest, classes, m_cap=args.m_cap)
    rows = [(r, c, raw, score, ";".join(flags)) for r, (c, raw, score, flags)
            in enumerate(zip(report.class_of.tolist(), _texts(report.raw),
                             _texts(report.score), report.flags))]
    _write_rows(args.output, ["row_id", "class", "raw", "score", "flags"], rows)
    return 0


def cmd_prototypes(args) -> int:
    artifact = load_model(args.model)
    forest = artifact.forest
    ds = _load_data_for_model(artifact, args.data, args.target)
    classes = _outlier_classes(forest, ds)
    protos = find_prototypes(forest, ds.without_target(), classes,
                             k=args.k, n_protos=args.n_protos)
    rows = []
    for c in sorted(protos):
        for proto in protos[c]:
            rows += [(c, proto.rank) + cells for cells in zip(
                artifact.schema.names, _texts(proto.q25),
                _texts(proto.median), _texts(proto.q75))]
    _write_rows(args.output, ["class", "rank", "feature", "q25", "median",
                              "q75"], rows)
    return 0


def cmd_impute(args) -> int:
    schema = load_schema(args.schema)
    ds = load_dense_csv(args.data, schema, target_column=args.target)
    method = {"bc": "breiman_cutler", "young": "young"}[args.impute_method]
    cfg = ImputationConfig(
        forest_config=_forest_config(args), method=method,
        max_iters=args.max_iters, tol=args.tol)
    result = impute(ds, cfg)
    write_dense_csv(result.dataset, args.output, target_column=args.target)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for st in result.trace:
                fh.write(json.dumps(
                    {"iter": st.iteration,
                     "max_rel_change": st.max_rel_change,
                     "n_categorical_changes": st.n_categorical_changes},
                    sort_keys=True) + "\n")
    print(f"converged={result.converged} iterations={len(result.trace)} "
          f"fallback_cells={len(result.fallback_cells)}")
    return 0


def cmd_validate_imputation(args) -> int:
    schema = load_schema(args.schema)
    reference = load_dense_csv(args.reference, schema)
    candidates = []
    for path in args.candidates:
        name = os.path.splitext(os.path.basename(path))[0]
        candidates.append((name, load_dense_csv(path, schema)))
    cfg = ImputationConfig(forest_config=_forest_config(args))
    report = validate_imputations(reference, candidates, cfg)
    fh, close = _open_out(args.output)
    try:
        for rank, name in enumerate(report.ranking, start=1):
            fh.write(json.dumps(
                {"name": name, "mean_p_synthetic": report.scores[name],
                 "rank": rank}, sort_keys=True) + "\n")
    finally:
        if close:
            fh.close()
    return 0


# -- wiring ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestfuse",
        description="Random-forest engine: train once, then predict, "
                    "search, explain, score outliers, and impute.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a forest and save the model")
    p.add_argument("data")
    p.add_argument("schema")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--importance-out", default=None,
                   help="prefix for importance reports computed at train time")
    _add_forest_flags(p, require_mode=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict rows of a CSV")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--target", default=None,
                   help="target column in the CSV, ignored")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("similar", help="top-K similar training rows")
    p.add_argument("model")
    p.add_argument("query", help="CSV of query rows (schema header)")
    p.add_argument("--query-row", type=int, default=0)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--explain", action="store_true")
    p.add_argument("--build-index", action="store_true",
                   help="accepted and ignored: queries read the model's "
                        "leaf assignments directly")
    p.add_argument("--data", default=None,
                   help="training CSV (required with --explain)")
    p.add_argument("--target", default=None)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_similar)

    p = sub.add_parser("importance", help="importance reports")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--type", required=True,
                   choices=("overall-var", "local-var", "overall-prox",
                            "local-prox"))
    p.add_argument("--method", choices=("permutation", "split_gain"),
                   default="permutation")
    p.add_argument("--row", type=int, default=None)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--target", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("outliers", help="per-row outlier scores")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--mode", dest="score_mode", choices=("exact", "greedy"),
                   default="exact")
    p.add_argument("--m-cap", type=int, default=256)
    p.add_argument("--target", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_outliers)

    p = sub.add_parser("prototypes", help="class prototypes")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--n-protos", type=int, default=1)
    p.add_argument("--target", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_prototypes)

    p = sub.add_parser("impute", help="fill missing values")
    p.add_argument("data")
    p.add_argument("schema")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--impute-method", choices=("bc", "young"), default="bc")
    p.add_argument("--max-iters", type=int, default=6)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--target", default=None)
    p.add_argument("--trace", default=None)
    _add_forest_flags(p, require_mode=False)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("validate-imputation",
                       help="rank imputed datasets without ground truth")
    p.add_argument("reference")
    p.add_argument("candidates", nargs="+")
    p.add_argument("--schema", required=True)
    p.add_argument("-o", "--output", default=None)
    _add_forest_flags(p, require_mode=False)
    p.set_defaults(func=cmd_validate_imputation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ForestFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

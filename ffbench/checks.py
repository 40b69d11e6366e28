"""Output checks, computed apart from the program.

Every check returns a list of problems (empty when the output is right).
References are recomputed here from the generated inputs and the tree
arrays with plain numpy: a tree walk, leaf co-occurrence counts, a
brute-force proximity matrix, OOB averages. The remaining checks are
properties the method must have (bounds, orderings, medians).

The workload checks return `(problems, failed)`, where `failed[i]` marks
operation i of the round as failed. Only one kind of failure is counted
rather than reported as a problem: a `similar` score cell that is not a
plain number (`cli.cmd_similar` writes `repr(numpy.float64)`, which reads
`np.float64(0.5)` under numpy 2).
"""

from __future__ import annotations

import csv
import math

import numpy as np

import forestfuse as ff

# probabilities and means are compared after the same additions in the
# same order, so they agree far inside this
ATOL = 1e-12
# held-out accuracy must beat always guessing the majority class by this
ACCURACY_MARGIN = 0.15


# -- references ----------------------------------------------------------------

def tree_nodes(tree, X) -> np.ndarray:
    """Terminal node of each row of X: go left iff value <= threshold."""
    n = X.shape[0]
    node = np.zeros(n, dtype=np.int64)
    active = np.full(n, tree.feature[0] >= 0)
    while active.any():
        idx = np.flatnonzero(active)
        cur = node[idx]
        f = tree.feature[cur]
        left = X[idx, f] <= tree.threshold[cur]
        node[idx] = np.where(left, tree.left[cur], tree.right[cur])
        active[idx] = tree.feature[node[idx]] >= 0
    return node


def leaf_matrix(forest, X) -> np.ndarray:
    """(n, T) leaf ids by the reference walk."""
    return np.column_stack([t.leaf_id[tree_nodes(t, X)] for t in forest.trees])


def class_proba(forest, X) -> np.ndarray:
    """Mean over trees of each leaf's in-bag class fractions."""
    acc = np.zeros((X.shape[0], forest.n_classes))
    for tree in forest.trees:
        counts = tree.value[tree_nodes(tree, X)]
        acc += counts / counts.sum(axis=1, keepdims=True)
    return acc / len(forest.trees)


def regression_mean(forest, X) -> np.ndarray:
    acc = np.zeros(X.shape[0])
    for tree in forest.trees:
        acc += tree.value[tree_nodes(tree, X)]
    return acc / len(forest.trees)


def cooccurrence(leaves) -> np.ndarray:
    """(n, n) count of trees in which two rows share a leaf."""
    n, T = leaves.shape
    counts = np.zeros((n, n), dtype=np.int64)
    for t in range(T):
        counts += leaves[:, t, None] == leaves[None, :, t]
    return counts


def outlier_raw(prox, classes) -> np.ndarray:
    """N_j / sum of squared proximities to the row's other classmates."""
    sq = prox ** 2
    same = classes[:, None] == classes[None, :]
    np.fill_diagonal(same, False)
    mass = (sq * same).sum(axis=1)
    sizes = np.bincount(classes)[classes]
    with np.errstate(divide="ignore"):
        return np.where(mass > 0, sizes / mass, np.inf)


def median_fill(values, missing, categorical) -> np.ndarray:
    """Column median (continuous) or lowest-tie mode (categorical) fill."""
    out = values.copy()
    for k in range(values.shape[1]):
        obs = values[~missing[:, k], k]
        if categorical[k]:
            fill = np.argmax(np.bincount(obs.astype(np.int64)))
        else:
            fill = np.median(obs)
        out[missing[:, k], k] = fill
    return out


# -- generic checks --------------------------------------------------------------

def check_trees(forest, X, label) -> list[str]:
    """Leaf assignments, node counts and bootstrap sizes of every tree."""
    problems = []
    n = X.shape[0]
    if not np.array_equal(leaf_matrix(forest, X), forest.leaf_of_train):
        problems.append(f"{label}: leaf_of_train differs from a tree walk")
    for t, tree in enumerate(forest.trees):
        internal = np.flatnonzero(tree.feature >= 0)
        kids = tree.n_node[tree.left[internal]] + tree.n_node[tree.right[internal]]
        if not np.array_equal(tree.n_node[internal], kids):
            problems.append(f"{label}: tree {t}: parent counts != child sums")
        if tree.n_node[0] != n or int(forest.inbag_counts[:, t].sum()) != n:
            problems.append(f"{label}: tree {t}: root count "
                            f"{tree.n_node[0]} is not the bootstrap size {n}")
        if tree.value.ndim == 2 and not np.array_equal(
                tree.value.sum(axis=1), tree.n_node.astype(np.float64)):
            problems.append(f"{label}: tree {t}: class counts != node counts")
        if not np.array_equal(tree.leaf_id >= 0, tree.feature < 0):
            problems.append(f"{label}: tree {t}: leaf ids on internal nodes")
    return problems


def check_close(label, got, want) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    if not np.allclose(got, want, rtol=0, atol=ATOL):
        worst = float(np.max(np.abs(got - want)))
        return [f"{label}: differs from the reference by up to {worst:.3g}"]
    return []


def check_accuracy(proba, y_true) -> list[str]:
    acc = float(np.mean(np.argmax(proba, axis=1) == y_true))
    majority = float(np.max(np.bincount(y_true.astype(np.int64)))) / len(y_true)
    if acc < majority + ACCURACY_MARGIN:
        return [f"held-out accuracy {acc:.3f} is not clearly above the "
                f"majority rate {majority:.3f}"]
    return []


def check_oob_mse(forest, X, y) -> list[str]:
    """OOB MSE recomputed from in-bag counts; must beat the variance."""
    oob = forest.inbag_counts == 0
    acc = np.zeros(len(y))
    for t, tree in enumerate(forest.trees):
        rows = np.flatnonzero(oob[:, t])
        acc[rows] += tree.value[tree_nodes(tree, X[rows])]
    n_oob = oob.sum(axis=1)
    seen = n_oob > 0
    mse = float(np.mean((acc[seen] / n_oob[seen] - y[seen]) ** 2))
    problems = []
    if not math.isclose(mse, forest.oob_error, rel_tol=1e-9):
        problems.append(f"OOB MSE {forest.oob_error!r} differs from the "
                        f"recomputed {mse!r}")
    if not mse < float(np.var(y)):
        problems.append(f"OOB MSE {mse:.4f} is not below the target "
                        f"variance {np.var(y):.4f}")
    return problems


def same_forest(a, b) -> bool:
    """Bit-identical trees, bootstraps and leaf assignments."""
    if len(a.trees) != len(b.trees):
        return False
    fields = ("feature", "threshold", "left", "right", "leaf_id", "n_node",
              "value", "split_gain")
    for ta, tb in zip(a.trees, b.trees):
        for f in fields:
            x, y = getattr(ta, f), getattr(tb, f)
            if x.dtype != y.dtype or x.tobytes() != y.tobytes():
                return False
    return (a.inbag_counts.tobytes() == b.inbag_counts.tobytes()
            and a.leaf_of_train.tobytes() == b.leaf_of_train.tobytes())


def check_in_range(label, values, lo, hi) -> list[str]:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0 or not np.all(np.isfinite(values)) \
            or values.min() < lo or values.max() > hi:
        return [f"{label}: entries outside [{lo}, {hi}]"]
    return []


# -- CSV outputs -------------------------------------------------------------------

def read_csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _floats(rows, col) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


def check_predict_csv(rows, proba) -> list[str]:
    header, body = rows[0], rows[1:]
    want = ["row", "prediction"] + [f"p_class{c}" for c in range(proba.shape[1])]
    if header != want or len(body) != proba.shape[0]:
        return [f"predict: header {header} / {len(body)} rows"]
    got = np.array([[float(x) for x in r[2:]] for r in body])
    problems = check_close("predict probabilities", got, proba)
    if [int(r[1]) for r in body] != np.argmax(proba, axis=1).tolist():
        problems.append("predict: labels are not the argmax")
    return problems


def check_similar_csv(rows, counts, n_trees, k, names):
    """Returns (problems, scores_unreadable) for one `similar --explain`."""
    order = np.lexsort((np.arange(len(counts)), -counts))[:k]
    body = rows[1:1 + k]
    problems = []
    if rows[0] != ["rank", "row_id", "score"] or len(body) != k:
        return [f"similar: header {rows[0]} / {len(body)} neighbours"], False
    if [int(r[1]) for r in body] != order.tolist():
        problems.append("similar: neighbours differ from the brute-force top-K")
    try:
        scores = np.array([float(r[2]) for r in body])
    except ValueError:
        unreadable = True
    else:
        unreadable = False
        problems += check_close("similar scores", scores,
                                counts[order] / n_trees)
    expl = rows[1 + k:]
    if expl[:2] != [[], ["feature", "importance"]] or \
            [r[0] for r in expl[2:]] != names:
        problems.append("similar: explanation block malformed")
    else:
        problems += check_in_range("similar explanation",
                                   _floats(expl[2:], 1), 0.0, 1.0)
    return problems, unreadable


def check_outlier_csv(label, rows, classes, planted, raw_ref=None,
                      raw_floor=None) -> list[str]:
    """Raw measures (exact, or a floor for greedy), class medians, planted."""
    body = rows[1:]
    if rows[0] != ["row_id", "class", "raw", "score", "flags"] \
            or len(body) != len(classes):
        return [f"{label}: header {rows[0]} / {len(body)} rows"]
    problems = []
    if [int(r[1]) for r in body] != classes.tolist():
        problems.append(f"{label}: class column differs from the labels")
    raw = _floats(body, 2)
    score = _floats(body, 3)
    if raw_ref is not None:
        same_inf = np.array_equal(np.isinf(raw), np.isinf(raw_ref))
        fin = np.isfinite(raw_ref)
        if not same_inf or not np.allclose(raw[fin], raw_ref[fin], rtol=1e-9,
                                           atol=0):
            problems.append(f"{label}: raw measures differ from a brute-force "
                            "proximity matrix")
    if raw_floor is not None and np.any(raw < raw_floor * (1 - 1e-9)):
        problems.append(f"{label}: raw below the exact raw (greedy must "
                        "underestimate the mass)")
    for c in np.unique(classes):
        med = float(np.median(score[classes == c]))
        if abs(med) > 1e-9:
            problems.append(f"{label}: class {c} score median {med!r} is not 0")
    if not np.all(score[planted] > 0):
        problems.append(f"{label}: a planted outlier scores <= 0")
    return problems


def check_prototypes_csv(rows, n_classes, names) -> list[str]:
    body = rows[1:]
    if rows[0] != ["class", "rank", "feature", "q25", "median", "q75"]:
        return [f"prototypes: header {rows[0]}"]
    problems = []
    if [(int(r[0]), r[2]) for r in body] != \
            [(c, n) for c in range(n_classes) for n in names]:
        problems.append("prototypes: not one prototype per class and feature")
    q = np.array([[float(x) for x in r[3:6]] for r in body])
    if q.size == 0 or not (np.all(q[:, 0] <= q[:, 1]) and
                           np.all(q[:, 1] <= q[:, 2])):
        problems.append("prototypes: quartiles out of order")
    return problems


def check_importance_csv(label, rows, header, n_rows, lo, hi) -> list[str]:
    if rows[0] != header or len(rows) - 1 != n_rows:
        return [f"{label}: header {rows[0]} / {len(rows) - 1} rows"]
    values = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    return check_in_range(label, values, lo, hi)


# -- per workload ------------------------------------------------------------------

def check_fit_dense(inputs, outputs):
    (_, forest), (_, forest_hist), (_, proba) = outputs
    problems = check_trees(forest, inputs["X"], "presort forest")
    problems += check_trees(forest_hist, inputs["X"], "histogram forest")
    problems += check_close("predict_proba", proba,
                            class_proba(forest, inputs["Xq"]))
    problems += check_accuracy(proba, inputs["yq"])
    return problems, [False] * len(outputs)


def check_explore_cli(inputs, model_path, outputs, k):
    forest = ff.load_model(model_path).forest
    X, Xq, names = inputs["X"], inputs["Xq"], inputs["names"]
    classes = inputs["y"].astype(np.int64)
    T = len(forest.trees)
    problems = check_trees(forest, X, "CLI model")
    leaves = leaf_matrix(forest, X)
    query_leaves = leaf_matrix(forest, Xq)
    raw_exact = outlier_raw(cooccurrence(leaves) / T, classes)
    failed = []
    for i, (step, path) in enumerate(outputs):
        rows = read_csv(path)
        unreadable = False
        if step == "predict":
            found = check_predict_csv(rows, class_proba(forest, Xq))
        elif step == "similar":
            q = sum(1 for s, _ in outputs[:i] if s == "similar")
            counts = (leaves == query_leaves[q]).sum(axis=1)
            found, unreadable = check_similar_csv(rows, counts, T, k, names)
        elif step == "outliers_exact":
            found = check_outlier_csv(step, rows, classes, inputs["planted"],
                                      raw_ref=raw_exact)
        elif step == "outliers_greedy":
            found = check_outlier_csv(step, rows, classes, inputs["planted"],
                                      raw_floor=raw_exact)
        elif step == "prototypes":
            found = check_prototypes_csv(rows, 3, names)
        elif step == "importance_local_prox":
            found = check_importance_csv(step, rows, ["row"] + names, len(X),
                                         0.0, 1.0)
        else:
            # permutation importance is a drop in accuracy: within [-1, 1]
            found = check_importance_csv(step, rows, ["feature", "score"],
                                         len(names), -1.0, 1.0)
        problems += found
        failed.append(unreadable)
    return problems, failed


def check_imputation(label, values, truth, missing, categorical, levels):
    """Observed cells untouched; fills inside the observed range or codes."""
    problems = []
    if not np.array_equal(values[~missing], truth[~missing]):
        problems.append(f"{label}: an observed cell changed")
    for k in range(truth.shape[1]):
        fills = values[missing[:, k], k]
        if not np.all(np.isfinite(fills)):
            problems.append(f"{label}: column {k} has an unfilled cell")
        elif categorical[k]:
            if np.any(fills != np.floor(fills)) or np.any(fills < 0) \
                    or np.any(fills >= levels[k]):
                problems.append(f"{label}: column {k}: invalid category code")
        else:
            obs = truth[~missing[:, k], k]
            if np.any(fills < obs.min()) or np.any(fills > obs.max()):
                problems.append(f"{label}: column {k}: fill outside the "
                                "observed range")
    return problems


def scaled_rmse(values, truth, missing, categorical) -> float:
    """RMSE over missing continuous cells, each column in its own sd."""
    errs = []
    for k in np.flatnonzero(~np.asarray(categorical)):
        rows = missing[:, k]
        sd = np.std(truth[~rows, k])
        errs.append((values[rows, k] - truth[rows, k]) / sd)
    return float(np.sqrt(np.mean(np.concatenate(errs) ** 2)))


def check_impute_mixed(inputs, data, outputs):
    (_, bc), (_, young), (_, report) = outputs
    truth, missing = inputs["truth"], inputs["missing"]
    categorical = data.schema.is_categorical()
    levels = [data.schema.n_categories(k) for k in range(data.n_features)]
    median_rmse = scaled_rmse(median_fill(truth, missing, categorical), truth,
                              missing, categorical)
    problems = []
    for label, result in (("breiman_cutler", bc), ("young", young)):
        values = result.dataset.values
        problems += check_imputation(label, values, truth, missing,
                                     categorical, levels)
        rmse = scaled_rmse(values, truth, missing, categorical)
        if not rmse < median_rmse:
            problems.append(f"{label}: RMSE {rmse:.4f} does not beat the "
                            f"median fill's {median_rmse:.4f}")
    if not bc.converged:
        problems.append("breiman_cutler: did not report converged")
    names = {"truth", "bc", "young", "median"}
    if set(report.ranking) != names or set(report.scores) != names:
        problems.append(f"validate: ranking {report.ranking}")
    else:
        problems += check_in_range("validate scores",
                                   list(report.scores.values()), 0.0, 1.0)
        if report.ranking.index("truth") > report.ranking.index("median"):
            problems.append("validate: median fill ranked ahead of the truth")
    return problems, [False] * len(outputs)


def check_sparse_regress(inputs, config, outputs):
    (_, forest), (_, pred), (_, scores) = outputs
    X, y = inputs["X"], inputs["y"]
    problems = check_trees(forest, X, "CSR forest")
    problems += check_close("CSR predict", pred,
                            regression_mean(forest, inputs["Xq"]))
    problems += check_oob_mse(forest, X, y)
    dense = ff.train(ff.Dataset.from_dense(X, target=y), config)
    if not same_forest(forest, dense):
        problems.append("CSR forest differs from the forest grown on the "
                        "dense copy")
    scores = np.asarray(scores)
    if scores.shape != (X.shape[1],) or not np.all(np.isfinite(scores)):
        problems.append("importance: not one finite score per feature")
    return problems, [False] * len(outputs)

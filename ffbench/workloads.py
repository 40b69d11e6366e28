"""The four workloads: input generators, set-up and one round of operations.

Each workload has three parts:

* `make_inputs(seed)` builds every input from the seed alone (numpy
  arrays and a few constants); the program never sees the seed itself,
  only the files and datasets made from these arrays.
* `setup(inputs, workdir)` writes the input files and loads them through
  the program (and, for explore_cli, trains and saves the model with the
  CLI). It returns the context a round needs.
* `run_round(ctx, op, outdir)` performs one round: the same operations
  in the same order every time. `op(step, fn, *args)` times one call and
  returns its result.

`check(ctx, outputs)` (see checks.py) then judges the outputs of one round.
"""

from __future__ import annotations

import contextlib
import io
import os
from types import SimpleNamespace

import numpy as np

import forestfuse as ff
import forestfuse.cli

from . import checks

# -- shared helpers -----------------------------------------------------------


def _rng(seed, stream):
    """Generator for one workload's inputs; streams keep workloads apart."""
    return np.random.default_rng([seed, stream])


def write_schema(path, names, categories):
    """Schema file: `name,continuous` or `name,categorical,a|b|c`."""
    with open(path, "w", encoding="utf-8") as fh:
        for name in names:
            cats = categories.get(name)
            if cats:
                fh.write(f"{name},categorical,{'|'.join(cats)}\n")
            else:
                fh.write(f"{name},continuous\n")


def write_csv(path, names, categories, X, target=None, target_name="label",
              missing=None):
    """Dense CSV; categorical codes become labels, missing cells read NA."""
    cols = [categories.get(n) for n in names]
    with open(path, "w", encoding="utf-8") as fh:
        header = list(names) + ([target_name] if target is not None else [])
        fh.write(",".join(header) + "\n")
        for i in range(X.shape[0]):
            cells = []
            for k, cats in enumerate(cols):
                if missing is not None and missing[i, k]:
                    cells.append("NA")
                elif cats:
                    cells.append(cats[int(X[i, k])])
                else:
                    cells.append(repr(float(X[i, k])))
            if target is not None:
                cells.append(repr(float(target[i])))
            fh.write(",".join(cells) + "\n")


def write_svmlight(path, X, y):
    """SVMLight text: `<target> <col>:<value> ...`, 1-based columns."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(X.shape[0]):
            nz = np.flatnonzero(X[i])
            cells = [repr(float(y[i]))]
            cells += [f"{c + 1}:{float(X[i, c])!r}" for c in nz.tolist()]
            fh.write(" ".join(cells) + "\n")


def _mixed_table(rng, n, n_cont, cat_levels):
    """Continuous normals plus categorical codes, interleaved by position."""
    m = n_cont + len(cat_levels)
    cat_pos = [round((j + 1) * m / (len(cat_levels) + 1))
               for j in range(len(cat_levels))]
    X = np.empty((n, m))
    names, categories = [], {}
    cont_cols = []
    for k in range(m):
        name = f"f{k}"
        names.append(name)
        if k in cat_pos:
            levels = cat_levels[cat_pos.index(k)]
            categories[name] = tuple(f"{name}_{c}" for c in "abcdefgh"[:levels])
            X[:, k] = rng.integers(0, levels, size=n)
        else:
            X[:, k] = rng.normal(size=n)
            cont_cols.append(k)
    return X, names, categories, cont_cols, cat_pos


def call_cli(argv):
    """Run `forestfuse <argv>` in-process, as the console script does."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = forestfuse.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"forestfuse {' '.join(argv)} exited {code}")
    return argv[argv.index("-o") + 1] if "-o" in argv else None


# -- fit_dense ----------------------------------------------------------------

class FitDense:
    """Dense mixed-type classification: presort and histogram training,
    then predict_proba on a held-out query set."""

    name = "fit_dense"
    setup_repeats = 9
    n_rows, n_query, n_trees = 2000, 2000, 6

    def make_inputs(self, seed):
        rng = _rng(seed, 1)
        n = self.n_rows + self.n_query
        X, names, cats, cont, cat_pos = _mixed_table(rng, n, 7, (3, 4, 2))
        a, b, c = cat_pos
        score = (X[:, cont[0]] + 0.8 * X[:, cont[1]] * X[:, cont[2]]
                 - 0.7 * X[:, cont[3]] + 0.9 * (X[:, a] == 1)
                 - 0.4 * X[:, b] + 0.5 * X[:, c]
                 + rng.normal(scale=0.4, size=n))
        cut = np.quantile(score, [0.4, 0.75])
        y = np.digitize(score, cut).astype(np.float64)
        return dict(X=X[:self.n_rows], y=y[:self.n_rows],
                    Xq=X[self.n_rows:], yq=y[self.n_rows:],
                    names=names, categories=cats, seed=seed)

    def setup(self, inputs, workdir):
        names, cats = inputs["names"], inputs["categories"]
        schema_path = os.path.join(workdir, "schema.txt")
        train_path = os.path.join(workdir, "train.csv")
        query_path = os.path.join(workdir, "query.csv")
        write_schema(schema_path, names, cats)
        write_csv(train_path, names, cats, inputs["X"], inputs["y"])
        write_csv(query_path, names, cats, inputs["Xq"])
        schema = ff.load_schema(schema_path)
        return SimpleNamespace(
            inputs=inputs,
            train=ff.load_dense_csv(train_path, schema, target_column="label"),
            query=ff.load_dense_csv(query_path, schema))

    def config(self, ctx, strategy):
        return ff.ForestConfig(mode="classification", n_trees=self.n_trees,
                               split_strategy=strategy,
                               seed=ctx.inputs["seed"])

    def run_round(self, ctx, op, outdir):
        forest = op("train", ff.train, ctx.train, self.config(ctx, "presort"))
        op("train_hist", ff.train, ctx.train, self.config(ctx, "histogram"))
        op("predict", ff.predict_proba, forest, ctx.query)

    def step_metrics(self, steps):
        return {
            "train_s": steps.median("train"),
            "train_hist_s": steps.median("train_hist"),
            "predict_rows_per_s": self.n_query / steps.median("predict"),
        }

    def check(self, ctx, outputs):
        return checks.check_fit_dense(ctx.inputs, outputs)


# -- explore_cli --------------------------------------------------------------

class ExploreCli:
    """A model trained once by the CLI, then explored with the CLI."""

    name = "explore_cli"
    setup_repeats = 5
    n_rows, n_query, n_trees = 1500, 200, 30
    n_similar = 4
    n_planted = 6
    k = 10

    def make_inputs(self, seed):
        rng = _rng(seed, 2)
        n = self.n_rows + self.n_query
        X, names, cats, cont, cat_pos = _mixed_table(rng, n, 6, (3, 3))
        y = rng.integers(0, 3, size=n)
        # fixed centres, 6 apart: the seed moves the rows, not the classes
        centres = 3.0 * np.tile(np.eye(3), 2)
        X[:, cont] = X[:, cont] * 0.8 + centres[y]
        # the categoricals agree with the class three times in four
        for k in cat_pos:
            agree = rng.uniform(size=n) < 0.75
            X[:, k] = np.where(agree, y, X[:, k])
        # planted outliers: the rows nearest their own class centre get
        # the next class's label
        yt = y[:self.n_rows].copy()
        dist = np.linalg.norm(X[:self.n_rows, cont] - centres[yt], axis=1)
        planted = []
        for c in range(3):
            members = np.flatnonzero(yt == c)
            planted += members[np.argsort(dist[members])[:self.n_planted // 3]
                               ].tolist()
        planted = np.sort(np.array(planted))
        y_train = yt.astype(np.float64)
        y_train[planted] = (yt[planted] + 1) % 3
        return dict(X=X[:self.n_rows], y=y_train, Xq=X[self.n_rows:],
                    planted=planted, names=names, categories=cats, seed=seed)

    def setup(self, inputs, workdir):
        names, cats = inputs["names"], inputs["categories"]
        paths = {k: os.path.join(workdir, f)
                 for k, f in (("schema", "schema.txt"), ("train", "train.csv"),
                              ("query", "query.csv"), ("model", "model.ffm"))}
        write_schema(paths["schema"], names, cats)
        write_csv(paths["train"], names, cats, inputs["X"], inputs["y"])
        write_csv(paths["query"], names, cats, inputs["Xq"])
        call_cli(["train", paths["train"], paths["schema"], "-o",
                  paths["model"], "--target", "label", "--mode",
                  "classification", "--trees", str(self.n_trees),
                  "--seed", str(inputs["seed"])])
        return SimpleNamespace(inputs=inputs, paths=paths)

    def run_round(self, ctx, op, outdir):
        p = ctx.paths
        model, train, query = p["model"], p["train"], p["query"]
        data = [train, "--target", "label"]

        def out(name):
            return ["-o", os.path.join(outdir, name)]

        op("predict", call_cli, ["predict", model, query] + out("predict.csv"))
        for q in range(self.n_similar):
            op("similar", call_cli,
               ["similar", model, query, "--query-row", str(q),
                "--build-index", "--explain", "--k", str(self.k),
                "--data"] + data + out(f"similar{q}.csv"))
        op("outliers_exact", call_cli,
           ["outliers", model] + data + out("outliers_exact.csv"))
        op("outliers_greedy", call_cli,
           ["outliers", model] + data + ["--mode", "greedy"]
           + out("outliers_greedy.csv"))
        op("prototypes", call_cli,
           ["prototypes", model] + data + ["--k", str(self.k)]
           + out("prototypes.csv"))
        op("importance_local_prox", call_cli,
           ["importance", model] + data + ["--type", "local-prox"]
           + out("importance_local_prox.csv"))
        op("importance_overall_var", call_cli,
           ["importance", model] + data + ["--type", "overall-var"]
           + out("importance_overall_var.csv"))

    def step_metrics(self, steps):
        return {
            "similar_s": steps.median("similar"),
            "outliers_exact_s": steps.median("outliers_exact"),
            "outliers_greedy_s": steps.median("outliers_greedy"),
            "prototypes_s": steps.median("prototypes"),
            "importance_s": steps.median_of_sum(
                ("importance_local_prox", "importance_overall_var")),
        }

    def check(self, ctx, outputs):
        return checks.check_explore_cli(ctx.inputs, ctx.paths["model"],
                                        outputs, self.k)


# -- impute_mixed ---------------------------------------------------------------

class ImputeMixed:
    """Correlated mixed-type table with MCAR cells: Breiman-Cutler and
    Young imputation, then the P(synthetic) validator."""

    name = "impute_mixed"
    setup_repeats = 15
    n_rows, n_trees, max_iters = 200, 10, 3
    missing_rate = 0.15

    def _table(self, rng, n):
        z = rng.normal(size=n)
        cont = [z + rng.normal(scale=0.25, size=n),
                -0.8 * z + rng.normal(scale=0.3, size=n),
                0.6 * z + rng.normal(scale=0.2, size=n),
                0.5 * z ** 2 + rng.normal(scale=0.3, size=n)]
        cat_a = np.digitize(z + rng.normal(scale=0.3, size=n), [-0.5, 0.5])
        cat_b = (z + rng.normal(scale=0.4, size=n) > 0).astype(np.float64)
        return np.column_stack([cont[0], cont[1], cat_a, cont[2], cont[3],
                                cat_b])

    def make_inputs(self, seed):
        rng = _rng(seed, 3)
        truth = self._table(rng, self.n_rows)
        reference = self._table(rng, self.n_rows)
        missing = rng.uniform(size=truth.shape) < self.missing_rate
        names = [f"f{k}" for k in range(truth.shape[1])]
        categories = {"f2": ("low", "mid", "high"), "f5": ("neg", "pos")}
        return dict(truth=truth, reference=reference, missing=missing,
                    names=names, categories=categories, seed=seed)

    def setup(self, inputs, workdir):
        names, cats = inputs["names"], inputs["categories"]
        schema_path = os.path.join(workdir, "schema.txt")
        data_path = os.path.join(workdir, "data.csv")
        ref_path = os.path.join(workdir, "reference.csv")
        write_schema(schema_path, names, cats)
        write_csv(data_path, names, cats, inputs["truth"],
                  missing=inputs["missing"])
        write_csv(ref_path, names, cats, inputs["reference"])
        schema = ff.load_schema(schema_path)
        return SimpleNamespace(
            inputs=inputs,
            data=ff.load_dense_csv(data_path, schema),
            reference=ff.load_dense_csv(ref_path, schema),
            truth=ff.Dataset.from_dense(inputs["truth"], schema),
            median_fill=ff.Dataset.from_dense(
                checks.median_fill(inputs["truth"], inputs["missing"],
                                   schema.is_categorical()), schema))

    def config(self, ctx, method):
        fc = ff.ForestConfig(mode="unsupervised", n_trees=self.n_trees,
                             seed=ctx.inputs["seed"])
        return ff.ImputationConfig(forest_config=fc, method=method,
                                   max_iters=self.max_iters)

    def run_round(self, ctx, op, outdir):
        bc = op("impute_bc", ff.impute, ctx.data,
                self.config(ctx, "breiman_cutler"))
        young = op("impute_young", ff.impute, ctx.data,
                   self.config(ctx, "young"))
        candidates = [("truth", ctx.truth), ("bc", bc.dataset),
                      ("young", young.dataset), ("median", ctx.median_fill)]
        op("validate", ff.validate_imputations, ctx.reference, candidates,
           self.config(ctx, "breiman_cutler"))

    def step_metrics(self, steps):
        return {
            "impute_bc_s": steps.median("impute_bc"),
            "impute_young_s": steps.median("impute_young"),
            "validate_s": steps.median("validate"),
        }

    def check(self, ctx, outputs):
        return checks.check_impute_mixed(ctx.inputs, ctx.data, outputs)


# -- sparse_regress -------------------------------------------------------------

class SparseRegress:
    """SVMLight regression on CSR storage: train, predict, permutation
    importance."""

    name = "sparse_regress"
    setup_repeats = 15
    n_rows, n_query, n_features, n_trees = 300, 200, 15, 4
    density = 0.3

    def make_inputs(self, seed):
        rng = _rng(seed, 4)
        n = self.n_rows + self.n_query
        X = np.where(rng.uniform(size=(n, self.n_features)) < self.density,
                     rng.normal(size=(n, self.n_features)), 0.0)
        # rows with no stored entry are legal but make dull inputs
        empty = ~X.any(axis=1)
        X[empty, 0] = 1.0
        y = (2.0 * X[:, 0] + X[:, 1] - X[:, 2] + 0.5 * X[:, 3] * X[:, 4]
             + rng.normal(scale=0.2, size=n))
        return dict(X=X[:self.n_rows], y=y[:self.n_rows],
                    Xq=X[self.n_rows:], yq=y[self.n_rows:], seed=seed)

    def setup(self, inputs, workdir):
        train_path = os.path.join(workdir, "train.svm")
        query_path = os.path.join(workdir, "query.svm")
        write_svmlight(train_path, inputs["X"], inputs["y"])
        write_svmlight(query_path, inputs["Xq"], inputs["yq"])
        return SimpleNamespace(
            inputs=inputs,
            train=ff.load_sparse_svmlight(train_path, self.n_features),
            query=ff.load_sparse_svmlight(query_path, self.n_features))

    def config(self, ctx):
        return ff.ForestConfig(mode="regression", n_trees=self.n_trees,
                               seed=ctx.inputs["seed"])

    def run_round(self, ctx, op, outdir):
        forest = op("train", ff.train, ctx.train, self.config(ctx))
        op("predict", ff.predict, forest, ctx.query)
        op("importance", ff.overall_variable_importance, forest, ctx.train)

    def step_metrics(self, steps):
        return {
            "train_s": steps.median("train"),
            "predict_rows_per_s": self.n_query / steps.median("predict"),
            "importance_s": steps.median("importance"),
        }

    def check(self, ctx, outputs):
        return checks.check_sparse_regress(ctx.inputs, self.config(ctx),
                                           outputs)


WORKLOADS = {w.name: w for w in (FitDense(), ExploreCli(), ImputeMixed(),
                                 SparseRegress())}

"""The metric catalogue and the arithmetic that turns timings into metrics.

End-to-end metrics are measured with tracing off and hold for every
workload. Per-layer metrics come from the traced run: the `.s` / `self_s`
names are span self times, the others counts or sizes, all for one set-up
plus one round (see spans.per_layer). The `op.` metrics time the public
operation a user calls, from the traced run's untraced rounds; a workload
that has no such operation reports 0.
"""

from __future__ import annotations

import math
import statistics

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "job_s": ("s", "lower", 0.25),
    "op_gmean_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def _self(span):
    return lambda a: a[f"{span}.self"]


def _calls(span):
    return lambda a: a[f"{span}.calls"]


def _count(name):
    return lambda a: a[name]


# name -> (unit, better, amount of one phase)
LAYERS = {
    "dataset.load_dense_csv.s": ("s", "lower", _self("dataset.load_dense_csv")),
    "dataset.load_sparse_svmlight.s":
        ("s", "lower", _self("dataset.load_sparse_svmlight")),
    "dataset.from_csr.s": ("s", "lower", _self("dataset.from_csr")),
    "dataset.gather_column.s": ("s", "lower", _self("dataset.gather_column")),
    "dataset.gather_column.calls":
        ("count", "lower", _calls("dataset.gather_column")),
    "splitfind.find_node_split.s":
        ("s", "lower", _self("splitfind.find_node_split")),
    "splitfind.find_node_split.calls":
        ("count", "lower", _calls("splitfind.find_node_split")),
    "splitfind.find_node_split.hits":
        ("count", "higher", _count("splitfind.find_node_split.hits")),
    "forest.train.self_s": ("s", "lower", _self("forest.train")),
    "forest.nodes": ("count", "lower", _count("forest.nodes")),
    "forest.train_held_out.s": ("s", "lower", _self("forest.train_held_out")),
    "forest.generate_synthetic.s":
        ("s", "lower", _self("forest.generate_synthetic")),
    "forest.oob_error.s": ("s", "lower", _self("forest.oob_error")),
    "forest.Tree.apply_nodes.s": ("s", "lower", _self("forest.Tree.apply_nodes")),
    "forest.Tree.apply_nodes.calls":
        ("count", "lower", _calls("forest.Tree.apply_nodes")),
    "proximity.compute_proximity.s":
        ("s", "lower", _self("proximity.compute_proximity")),
    "proximity.compute_proximity.calls":
        ("count", "lower", _calls("proximity.compute_proximity")),
    "proximity.build_leaf_index.s":
        ("s", "lower", _self("proximity.build_leaf_index")),
    "proximity.build_leaf_index.calls":
        ("count", "lower", _calls("proximity.build_leaf_index")),
    "proximity.top_k_similar.s": ("s", "lower", _self("proximity.top_k_similar")),
    "proximity.query_proximity_importance.s":
        ("s", "lower", _self("proximity.query_proximity_importance")),
    "importance.local_proximity_importance.s":
        ("s", "lower", _self("importance.local_proximity_importance")),
    "importance.overall_variable_importance.s":
        ("s", "lower", _self("importance.overall_variable_importance")),
    "importance.counted_trees.s":
        ("s", "lower", _self("importance.counted_trees")),
    "outlier.outlier_exact.s": ("s", "lower", _self("outlier.outlier_exact")),
    "outlier.outlier_greedy.s": ("s", "lower", _self("outlier.outlier_greedy")),
    "prototype.find_prototypes.s":
        ("s", "lower", _self("prototype.find_prototypes")),
    "imputation.bc.passes": ("count", "lower", _calls("imputation.bc_reimpute")),
    "imputation.young.passes":
        ("count", "lower", _calls("imputation.young_reimpute")),
    "imputation.bc_reimpute.s": ("s", "lower", _self("imputation.bc_reimpute")),
    "imputation.young_reimpute.s":
        ("s", "lower", _self("imputation.young_reimpute")),
    "model_io.load_model.s": ("s", "lower", _self("model_io.load_model")),
    "model_io.load_model.calls": ("count", "lower", _calls("model_io.load_model")),
    "model_io.save_model.s": ("s", "lower", _self("model_io.save_model")),
    "model_io.model_bytes": ("bytes", "lower", _count("model_io.model_bytes")),
    "cli.self_s": ("s", "lower", _self("cli.main")),
    "trace.spans": ("count", "lower",
                    lambda a: sum(v for k, v in a.items()
                                  if k.endswith(".calls"))),
}

# derived from the layer metrics or from the traced run as a whole
DERIVED = {
    "splitfind.find_node_split.hit_share": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# the operations users wait for: name -> unit, better
OPS = {
    "op.train_s": ("s", "lower"),
    "op.train_hist_s": ("s", "lower"),
    "op.predict_rows_per_s": ("rows/s", "higher"),
    "op.similar_s": ("s", "lower"),
    "op.outliers_exact_s": ("s", "lower"),
    "op.outliers_greedy_s": ("s", "lower"),
    "op.prototypes_s": ("s", "lower"),
    "op.importance_s": ("s", "lower"),
    "op.impute_bc_s": ("s", "lower"),
    "op.impute_young_s": ("s", "lower"),
    "op.validate_s": ("s", "lower"),
}


def per_layer_names() -> list[str]:
    return [*LAYERS, *DERIVED, *OPS]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Steps:
    """Per-operation timings of the timed rounds.

    rounds: one list of (step, seconds) per round, in execution order.
    """

    def __init__(self, rounds):
        self.rounds = rounds

    def names(self) -> list[str]:
        seen = {}
        for rnd in self.rounds:
            for step, _ in rnd:
                seen.setdefault(step)
        return list(seen)

    def times(self, step) -> list[float]:
        return [s for rnd in self.rounds for st, s in rnd if st == step]

    def median(self, step) -> float:
        return statistics.median(self.times(step))

    def median_of_sum(self, steps) -> float:
        """Median over rounds of the summed time of the given steps."""
        return statistics.median(
            sum(s for st, s in rnd if st in steps) for rnd in self.rounds)

    def round_totals(self) -> list[float]:
        return [sum(s for _, s in rnd) for rnd in self.rounds]

    def job_s(self) -> float:
        return statistics.median(self.round_totals())

    def gmean(self) -> float:
        """Geometric mean over distinct steps of each step's median time.

        Every operation weighs the same, so a short one that slows shows
        here even where the round total hides it.
        """
        logs = [math.log(self.median(step)) for step in self.names()]
        return math.exp(sum(logs) / len(logs))

"""Tests of the benchmark's own code: span arithmetic, generators, checks.

Each workload is run once at a reduced size; its outputs must pass the
checks, and every check must report a problem once its output is
deliberately corrupted.
"""

import csv
import dataclasses
import json
import os

import numpy as np
import pytest

import forestfuse as ff
from ffbench import checks, metrics, spans, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = {
    "fit_dense": dict(n_rows=600, n_query=300, n_trees=5),
    "explore_cli": dict(n_rows=150, n_query=10, n_trees=6),
    "impute_mixed": dict(n_rows=120, n_trees=6, max_iters=2),
    "sparse_regress": dict(n_rows=80, n_query=20, n_trees=2),
}


def small(name):
    wl = type(workloads.WORKLOADS[name])()
    for attr, value in SMALL[name].items():
        setattr(wl, attr, value)
    return wl


def run_once(wl, tmp_path, seed=5):
    inputs = wl.make_inputs(seed)
    ctx = wl.setup(inputs, str(tmp_path))
    outdir = tmp_path / "out"
    outdir.mkdir()
    record = []

    def op(step, fn, *args):
        result = fn(*args)
        record.append((step, result))
        return result

    wl.run_round(ctx, op, str(outdir))
    return ctx, record


# -- spans ---------------------------------------------------------------------

def span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent, "p")


def test_self_time_subtracts_the_union_of_children():
    s = [span("root", 0.0, 10.0),
         span("a", 1.0, 3.0, 0),
         span("b", 2.0, 5.0, 0),     # overlaps a: [1, 5] counts once
         span("c", 9.0, 12.0, 0),    # clipped to the parent: [9, 10]
         span("a.inner", 1.5, 2.5, 1)]
    assert spans.self_times(s) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_self_time_of_a_leaf_span_is_its_duration():
    assert spans.self_times([span("x", 2.0, 2.5)]) == pytest.approx([0.5])


def test_tracer_records_nested_spans_and_restores_the_program():
    original = ff.forest.train
    original_apply = ff.Tree.apply_nodes
    tracer = spans.Tracer()
    tracer.phase = "p"
    ds = ff.Dataset.from_dense(np.arange(40.0).reshape(20, 2),
                               target=np.repeat([0.0, 1.0], 10))
    tracer.install()
    try:
        assert ff.train is ff.forest.train is ff.imputation.train
        assert ff.train is not original
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=2, seed=1))
    finally:
        tracer.uninstall()
    assert ff.forest.train is original and ff.train is original
    assert ff.Tree.apply_nodes is original_apply
    names = [s.name for s in tracer.spans]
    assert names[0] == "forest.train"
    assert "splitfind.find_node_split" in names
    assert all(s.parent == 0 for s in tracer.spans[1:]
               if s.name == "forest.oob_error")
    amounts = tracer.amounts()["p"]
    assert amounts["forest.nodes"] == sum(t.n_nodes for t in forest.trees)
    assert amounts["splitfind.find_node_split.hits"] == \
        sum(int((t.feature >= 0).sum()) for t in forest.trees)


def test_per_layer_adds_setup_and_round_medians():
    tracer = spans.Tracer()
    for phase, n in (("s0", 1), ("s1", 3), ("s2", 2), ("r1", 5), ("r2", 7)):
        tracer.counts[(phase, "x")] = n
    out = spans.per_layer(tracer, ["s0", "s1", "s2"], ["r1", "r2"],
                          {"x": lambda a: a["x"]})
    assert out == {"x": 2 + 6}


# -- generators ----------------------------------------------------------------

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    wl = workloads.WORKLOADS[name]
    a, b, c = wl.make_inputs(3), wl.make_inputs(3), wl.make_inputs(4)
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert a[key].tobytes() == b[key].tobytes()
        else:
            assert a[key] == b[key]
    first = next(k for k in a if isinstance(a[k], np.ndarray))
    assert a[first].tobytes() != c[first].tobytes()


# -- checks --------------------------------------------------------------------

def rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_fit_dense_checks(tmp_path):
    wl = small("fit_dense")
    ctx, rec = run_once(wl, tmp_path)
    assert wl.check(ctx, rec) == ([], [False] * 3)
    (_, forest), (_, hist), (_, proba) = rec

    bad = proba.copy()
    bad[0, 0] += 1e-6
    assert wl.check(ctx, [rec[0], rec[1], ("predict", bad)])[0]
    flat = np.full_like(proba, 1.0 / proba.shape[1])
    problems = checks.check_accuracy(flat, ctx.inputs["yq"])
    assert problems and "accuracy" in problems[0]

    forest.leaf_of_train[0, 0] += 1
    assert "leaf_of_train" in wl.check(ctx, rec)[0][0]
    forest.leaf_of_train[0, 0] -= 1
    leaf = int(np.flatnonzero(hist.trees[0].feature < 0)[0])
    hist.trees[0].n_node[leaf] += 1
    assert any("counts" in p for p in wl.check(ctx, rec)[0])


def test_explore_cli_checks(tmp_path):
    wl = small("explore_cli")
    ctx, rec = run_once(wl, tmp_path)
    problems, failed = wl.check(ctx, rec)
    assert problems == []
    # the similar scores read np.float64(...): counted, not reported
    assert [s for (s, _), bad in zip(rec, failed) if bad] == \
        ["similar"] * wl.n_similar
    paths = dict((s, p) for s, p in rec if s != "similar")
    similar0 = rec[1][1]

    def fix_scores(rows):
        for r in rows[1:1 + wl.k]:
            r[2] = r[2].removeprefix("np.float64(").removesuffix(")")

    def swap_first_neighbours(rows):
        rows[1][1], rows[2][1] = rows[2][1], rows[1][1]

    rewrite(similar0, fix_scores)
    problems, failed = wl.check(ctx, rec)
    assert problems == [] and failed[1] is False

    corruptions = [
        (similar0, lambda rows: rows[1].__setitem__(2, "0.123")),
        (similar0, swap_first_neighbours),
        (similar0, lambda rows: rows[-1].__setitem__(1, "1.5")),
        (paths["predict"], lambda rows: rows[1].__setitem__(2, "0.5001")),
        (paths["outliers_exact"], lambda rows: rows[1].__setitem__(
            2, repr(float(rows[1][2]) * 1.01))),
        (paths["outliers_exact"], lambda rows: [
            r.__setitem__(3, repr(float(r[3]) + 1.0)) for r in rows[1:]]),
        (paths["outliers_exact"], lambda rows: rows[
            1 + int(ctx.inputs["planted"][0])].__setitem__(3, "-1.0")),
        (paths["outliers_greedy"], lambda rows: rows[1].__setitem__(
            2, repr(float(rows[1][2]) * 0.5))),
        (paths["prototypes"], lambda rows: rows[1].__setitem__(3, "1e9")),
        (paths["importance_local_prox"],
         lambda rows: rows[1].__setitem__(1, "1.5")),
        (paths["importance_overall_var"],
         lambda rows: rows[1].__setitem__(1, "2.0")),
    ]
    for path, edit in corruptions:
        with open(path, "rb") as fh:
            clean = fh.read()
        rewrite(path, edit)
        assert wl.check(ctx, rec)[0], f"corrupted {os.path.basename(path)}"
        with open(path, "wb") as fh:
            fh.write(clean)
    assert wl.check(ctx, rec)[0] == []


def test_impute_mixed_checks(tmp_path):
    wl = small("impute_mixed")
    ctx, rec = run_once(wl, tmp_path)
    assert wl.check(ctx, rec) == ([], [False] * 3)
    (_, bc), (_, young), (_, report) = rec
    missing = ctx.inputs["missing"]

    def with_values(result, edit):
        values = result.dataset.values.copy()
        edit(values)
        return dataclasses.replace(result,
                                   dataset=result.dataset.with_values(values))

    row = int(np.flatnonzero(~missing[:, 0])[0])
    cont = int(np.flatnonzero(missing[:, 0])[0])
    cat = int(np.flatnonzero(missing[:, 2])[0])
    median = ctx.median_fill.values
    bad_outputs = [
        [("impute_bc", with_values(bc, lambda v: v.__setitem__((row, 0), 9.0))),
         rec[1], rec[2]],
        [("impute_bc", with_values(bc, lambda v: v.__setitem__((cont, 0), 1e6))),
         rec[1], rec[2]],
        [rec[0], ("impute_young",
                  with_values(young, lambda v: v.__setitem__((cat, 2), 7.0))),
         rec[2]],
        [rec[0], ("impute_young", with_values(
            young, lambda v: v.__setitem__(slice(None), median))), rec[2]],
        [("impute_bc", dataclasses.replace(bc, converged=False)), rec[1],
         rec[2]],
        [rec[0], rec[1], ("validate", dataclasses.replace(
            report, ranking=["median", "bc", "young", "truth"]))],
    ]
    for outputs in bad_outputs:
        assert wl.check(ctx, outputs)[0]


def test_sparse_regress_checks(tmp_path):
    wl = small("sparse_regress")
    ctx, rec = run_once(wl, tmp_path)
    assert wl.check(ctx, rec) == ([], [False] * 3)
    (_, forest), (_, pred), (_, scores) = rec

    assert wl.check(ctx, [rec[0], ("predict", pred + 1e-6), rec[2]])[0]
    assert wl.check(ctx, [rec[0], rec[1], ("importance", scores[:-1])])[0]
    forest.oob_error *= 2
    assert any("OOB" in p for p in wl.check(ctx, rec)[0])
    forest.oob_error /= 2
    tree = forest.trees[0]
    tree.threshold[0] = np.nextafter(tree.threshold[0], np.inf)
    assert any("dense copy" in p for p in wl.check(ctx, rec)[0])


# -- the benchmark definition ----------------------------------------------------

def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["command"] == ["python3", "ffbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == metrics.END_TO_END
    units = {**{k: v[:2] for k, v in metrics.LAYERS.items()},
             **metrics.DERIVED, **metrics.OPS}
    assert [m["name"] for m in bench["per_layer"]] == metrics.per_layer_names()
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == units

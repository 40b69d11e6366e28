"""Missing-value imputation and ground-truth-free validation.

Two iterative fillers share the same outer loop (re-impute every
originally-missing cell, repeat until the fills stop moving or max_iters
passes run):

* breiman_cutler — proximity-weighted mean (continuous) or
  proximity-weighted mode (categorical) over rows whose cell is observed.
  Its forest never reads an originally-missing cell (see
  `forest.train_held_out`), so it is trained once for all passes: pass 2
  reproduces pass 1 and the loop reaches its fixed point there.
  Letting the filled values steer the forest that re-imputes them locks
  in the seed fill and keeps the loop from settling (the proximity
  imputation bias of Tang & Ishwaran, Stat. Anal. Data Min. 2017).
* young — per tree where the sample is out-of-bag, the mean/mode of
  observed leaf co-members, averaged (majority-voted) over those trees.
  It trains a new forest on each pass's fill, imputed cells included.

The validator ranks candidate imputations without ground truth: an
unsupervised forest trained on complete reference data scores each
candidate's rows by P(synthetic); fills that distort the dependency
structure look more synthetic and rank worse.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import CATEGORICAL, Dataset
from .errors import ArgumentError, ConfigError, ImputationError
from .forest import Forest, ForestConfig, p_synthetic, train, train_held_out
from .proximity import LeafIndex, build_leaf_index, compute_proximity


@dataclass
class ImputationConfig:
    forest_config: ForestConfig
    method: str = "breiman_cutler"
    max_iters: int = 6
    tol: float = 1e-3

    def validate(self):
        if self.method not in ("breiman_cutler", "young"):
            raise ConfigError(f"unknown imputation method {self.method!r}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ConfigError("tol must be > 0")


@dataclass
class IterationStats:
    iteration: int
    max_rel_change: float
    n_categorical_changes: int


@dataclass
class ImputationResult:
    dataset: Dataset
    trace: list[IterationStats]
    converged: bool
    fallback_cells: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class ValidationReport:
    scores: dict[str, float]
    ranking: list[str]
    reference_oob: float


# -- per-cell fill rules ----------------------------------------------------

def proximity_weighted_mean(weights, values) -> float | None:
    """Weighted average of donor values; None when all weights are zero."""
    weights = np.asarray(weights, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        return None
    return float(weights @ values / total)


def proximity_weighted_mode(weights, codes, n_categories: int) -> int | None:
    """Category with the largest total donor weight (ties to lower code)."""
    weights = np.asarray(weights, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.int64)
    if weights.sum() <= 0:
        return None
    totals = np.bincount(codes, weights=weights, minlength=n_categories)
    return int(np.argmax(totals))


def young_cell_estimates(forest: Forest, index: LeafIndex, values: np.ndarray,
                         observed_col: np.ndarray, row: int, feature: int,
                         categorical: bool) -> list[float]:
    """Per-OOB-tree estimates for one missing cell.

    For each tree where `row` is out-of-bag, the estimate is the mean
    (mode for categoricals, ties to the lower code) of the feature over
    the observed leaf co-members, the row itself excluded. Trees whose
    leaf holds no observed donor contribute nothing.
    """
    oob_trees = np.flatnonzero(forest.oob_mask()[row])
    estimates: list[float] = []
    for t in oob_trees:
        post = index.members(t, forest.leaf_of_train[row, t])
        donors = post[(post != row) & observed_col[post]]
        if donors.size == 0:
            continue
        vals = values[donors, feature]
        if categorical:
            estimates.append(float(np.argmax(
                np.bincount(vals.astype(np.int64)))))
        else:
            estimates.append(float(vals.mean()))
    return estimates


def _aggregate_young(estimates: list[float], categorical: bool) -> float:
    if categorical:
        return float(np.argmax(np.bincount(
            np.asarray(estimates, dtype=np.int64))))
    return float(np.mean(estimates))


# -- single re-imputation passes ---------------------------------------------

def bc_reimpute(current: Dataset, missing: np.ndarray, prox: np.ndarray,
                fills: np.ndarray):
    """One Breiman-Cutler pass: proximity-weighted fills of masked cells.

    `missing` is the original mask; weights come from `prox` rows against
    rows whose cell is observed. Cells with zero total weight fall back
    to `fills`. Returns (new values, fallback cells).
    """
    observed = ~missing
    is_cat = current.schema.is_categorical()
    new_values = current.values.copy()
    fallbacks: list[tuple[int, int]] = []
    for k in range(current.n_features):
        miss_rows = np.flatnonzero(missing[:, k])
        if miss_rows.size == 0:
            continue
        obs_rows = np.flatnonzero(observed[:, k])
        donor_vals = current.values[obs_rows, k]
        n_codes = current.schema.n_categories(k) if is_cat[k] else 0
        for i in miss_rows:
            weights = prox[i, obs_rows]
            if is_cat[k]:
                pick = proximity_weighted_mode(weights, donor_vals.astype(np.int64),
                                               n_codes)
            else:
                pick = proximity_weighted_mean(weights, donor_vals)
            if pick is None:
                new_values[i, k] = fills[k]
                fallbacks.append((int(i), int(k)))
            else:
                new_values[i, k] = pick
    return new_values, fallbacks


def young_reimpute(current: Dataset, missing: np.ndarray, forest: Forest,
                   index: LeafIndex):
    """One Young pass: OOB leaf-member fills of masked cells.

    Cells with no OOB tree, or whose OOB leaves hold no observed donor,
    keep their current value. Returns (new values, fallback cells).
    """
    observed = ~missing
    is_cat = current.schema.is_categorical()
    new_values = current.values.copy()
    fallbacks: list[tuple[int, int]] = []
    for k in range(current.n_features):
        miss_rows = np.flatnonzero(missing[:, k])
        if miss_rows.size == 0:
            continue
        obs_col = observed[:, k]
        for i in miss_rows:
            estimates = young_cell_estimates(
                forest, index, current.values, obs_col, int(i), k,
                bool(is_cat[k]))
            if not estimates:
                fallbacks.append((int(i), int(k)))
                continue
            new_values[i, k] = _aggregate_young(estimates, bool(is_cat[k]))
    return new_values, fallbacks


# -- iterative drivers --------------------------------------------------------

def _observed_mask(ds: Dataset) -> np.ndarray:
    if ds.is_sparse:
        raise ConfigError(
            "imputation requires dense storage; CSR zeros are structural, "
            "densify explicitly if the mask is real")
    return ~ds.missing


def _column_fills(ds: Dataset) -> np.ndarray:
    """Median (continuous) or lowest-tie mode (categorical) per column."""
    observed = _observed_mask(ds)
    fills = np.empty(ds.n_features, dtype=np.float64)
    for k, feat in enumerate(ds.schema.features):
        obs = ds.values[observed[:, k], k]
        if obs.size == 0:
            raise ImputationError(
                f"feature {feat.name!r} has no observed values")
        if feat.kind == CATEGORICAL:
            fills[k] = int(np.argmax(np.bincount(obs.astype(np.int64))))
        else:
            fills[k] = float(np.median(obs))
    return fills


def initial_impute(ds: Dataset) -> Dataset:
    """Column-median / column-mode fill; the iterative methods' seed fill."""
    if not ds.has_missing:
        return ds
    fills = _column_fills(ds)
    values = ds.values.copy()
    for k in range(ds.n_features):
        rows = np.flatnonzero(ds.missing[:, k])
        values[rows, k] = fills[k]
    return ds.with_values(values)


def _inner_train(ds: Dataset, forest_config: ForestConfig,
                 held_out: np.ndarray | None = None):
    # every iteration reuses the same seed, so bootstraps and feature draws
    # are fixed. With held_out the forest reads observed cells only, so one
    # training serves every pass; without it, the forest trains on the current
    # fill and moves with it, so leaf memberships need not settle
    cfg = replace(forest_config)
    complete = ds.as_complete()
    if cfg.mode == "unsupervised":
        complete = complete.without_target()
    if held_out is None:
        return train(complete, cfg)
    return train_held_out(complete, held_out, cfg)


def _column_iqr(ds: Dataset) -> np.ndarray:
    observed = _observed_mask(ds)
    iqr = np.zeros(ds.n_features)
    for k in range(ds.n_features):
        obs = ds.values[observed[:, k], k]
        if obs.size:
            q75, q25 = np.percentile(obs, [75, 25])
            iqr[k] = q75 - q25
    return iqr


_REL_EPS = 1e-9


def _run_iterations(ds: Dataset, cfg: ImputationConfig, reimpute):
    cfg.validate()
    if not ds.has_missing:
        return ImputationResult(ds, [], True)
    current = initial_impute(ds)
    missing = ds.missing
    iqr = _column_iqr(ds)
    is_cat = ds.schema.is_categorical()
    trace: list[IterationStats] = []
    converged = False
    fallbacks: list[tuple[int, int]] = []
    for it in range(cfg.max_iters):
        new_values, fallbacks = reimpute(current, it)
        max_rel = 0.0
        n_cat = 0
        for k in range(ds.n_features):
            rows = np.flatnonzero(missing[:, k])
            if rows.size == 0:
                continue
            old = current.values[rows, k]
            new = new_values[rows, k]
            if is_cat[k]:
                n_cat += int(np.sum(old != new))
            else:
                rel = np.abs(new - old) / (iqr[k] + _REL_EPS)
                max_rel = max(max_rel, float(rel.max()))
        current = current.with_values(new_values)
        trace.append(IterationStats(it + 1, max_rel, n_cat))
        if max_rel < cfg.tol and n_cat == 0:
            converged = True
            break
    return ImputationResult(current, trace, converged, fallbacks)


def impute_breiman_cutler(ds: Dataset, cfg: ImputationConfig) -> ImputationResult:
    """Iterative proximity-weighted imputation.

    The first pass trains a forest that never reads an originally-missing
    cell (`forest.train_held_out`) and computes its proximity matrix. That
    forest does not depend on the fill and the donors are observed cells,
    so every pass reuses the matrix in `bc_reimpute`, pass 2 repeats pass 1
    exactly and the loop converges there (with max_iters >= 2). The
    iteration trace and final-pass fallback cells come back in the result;
    observed cells are never modified.
    """
    fills = _column_fills(ds) if ds.has_missing else None
    prox = None

    def step(current: Dataset, iteration: int):
        nonlocal prox
        if prox is None:
            forest = _inner_train(current, cfg.forest_config,
                                  held_out=ds.missing)
            prox = compute_proximity(forest, current.without_target(),
                                     pair_mode="all").values
        return bc_reimpute(current, ds.missing, prox, fills)

    return _run_iterations(ds, cfg, step)


def impute_young(ds: Dataset, cfg: ImputationConfig) -> ImputationResult:
    """Iterative OOB leaf-member imputation (see `young_reimpute`).

    Each estimate comes from trees that never saw the sample in-bag, so
    the sample's filled values did not shape those trees' splits. They
    still route the sample through its OOB trees, and other samples'
    filled values shape the splits, so the fill feeds back into the next
    pass and the loop need not reach a fixed point.
    """

    def step(current: Dataset, iteration: int):
        forest = _inner_train(current, cfg.forest_config)
        index = build_leaf_index(forest)
        return young_reimpute(current, ds.missing, forest, index)

    return _run_iterations(ds, cfg, step)


def impute(ds: Dataset, cfg: ImputationConfig) -> ImputationResult:
    """Dispatch on cfg.method."""
    cfg.validate()
    if cfg.method == "young":
        return impute_young(ds, cfg)
    return impute_breiman_cutler(ds, cfg)


def validate_imputations(reference: Dataset, candidates, cfg: ImputationConfig
                         ) -> ValidationReport:
    """Rank candidate datasets by how synthetic they look.

    One unsupervised forest is trained on the complete reference; every
    candidate row is scored by P(synthetic) and candidates are ranked by
    the mean, ascending — lower means the fill preserved the reference's
    dependency structure better.
    """
    if not reference.is_filled:
        raise ArgumentError("reference dataset must be complete")
    candidates = list(candidates)
    names = [name for name, _ in candidates]
    if len(set(names)) != len(names):
        raise ArgumentError("candidate names must be unique")
    for name, cand in candidates:
        if cand.n_rows != reference.n_rows or \
                cand.n_features != reference.n_features:
            raise ArgumentError(
                f"candidate {name!r} shape does not match the reference")
        if not cand.is_filled:
            raise ArgumentError(f"candidate {name!r} has unfilled cells")

    fc = replace(cfg.forest_config, mode="unsupervised")
    forest = train(reference.as_complete().without_target(), fc)
    scores = {}
    for name, cand in candidates:
        scores[name] = float(p_synthetic(
            forest, cand.as_complete().without_target()).mean())
    ranking = sorted(names, key=lambda nm: scores[nm])
    return ValidationReport(scores, ranking, forest.oob_error)

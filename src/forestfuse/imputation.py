"""Missing-value imputation and ground-truth-free validation.

Two iterative fillers share the same outer loop (re-impute every
originally-missing cell, repeat until the fills stop moving or max_iters
passes run):

* breiman_cutler — proximity-weighted mean (continuous) or
  proximity-weighted mode (categorical) over rows whose cell is observed.
  Its forest never reads an originally-missing cell (see
  `forest.train_held_out`), so the forest and its fills are computed
  once, on pass 1: pass 2 returns the same fills and the loop reaches
  its fixed point there.
  Letting the filled values steer the forest that re-imputes them locks
  in the seed fill and keeps the loop from settling (the proximity
  imputation bias of Tang & Ishwaran, Stat. Anal. Data Min. 2017).
  Proximities are read a block of rows at a time, and only for the rows
  that hold a missing cell.
* young — each leaf's estimate of a feature is the mean (mode) of its
  rows whose cell is observed. A missing cell averages (majority-votes)
  the estimates of its leaves over the trees where its row is
  out-of-bag and the leaf holds such a row. It trains a new forest on
  each pass's fill, imputed cells included.

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
from .proximity import ProximityMatrix, proximity_rows


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


# -- single re-imputation passes ---------------------------------------------

def bc_reimpute(current: Dataset, missing: np.ndarray,
                prox: Forest | ProximityMatrix | np.ndarray, fills: np.ndarray):
    """One Breiman-Cutler pass: proximity-weighted fills of masked cells.

    `missing` is the original mask. `prox` is a Forest, read by blocks of
    the rows that hold a missing cell, or a proximity matrix; each cell's
    weights are its row's proximities to the rows whose cell is observed.
    Cells with zero total weight fall back to `fills`. Returns (new
    values, fallback cells in (feature, row) order).
    """
    is_cat = current.schema.is_categorical()
    new_values = current.values.copy()
    donors = [np.flatnonzero(~missing[:, k]) for k in range(current.n_features)]
    donor_vals = [current.values[rows, k] for k, rows in enumerate(donors)]
    fallbacks: list[tuple[int, int]] = []
    for block, values, scale in proximity_rows(
            prox, np.flatnonzero(missing.any(axis=1))):
        for r, i in enumerate(block.tolist()):
            for k in np.flatnonzero(missing[i]).tolist():
                weights = values[r, donors[k]] / scale
                if is_cat[k]:
                    pick = proximity_weighted_mode(
                        weights, donor_vals[k], current.schema.n_categories(k))
                else:
                    pick = proximity_weighted_mean(weights, donor_vals[k])
                if pick is None:
                    new_values[i, k] = fills[k]
                    fallbacks.append((i, k))
                else:
                    new_values[i, k] = pick
    fallbacks.sort(key=lambda cell: (cell[1], cell[0]))
    return new_values, fallbacks


def _group_modes(groups, codes, n_groups: int) -> np.ndarray:
    """Most frequent code of each group id, ties to the lower code.

    Counts only the (group, code) pairs that occur, so memory follows the
    input and not groups x categories. An empty group gets 0.
    """
    c = int(codes.max(initial=0)) + 1
    pairs, counts = np.unique(groups * c + codes, return_counts=True)
    group = pairs // c
    # pairs ascend by (group, code): a stable sort on (group, -count)
    # puts each group's lowest most frequent code first
    ranked = np.lexsort((-counts, group))
    first = ranked[np.unique(group[ranked], return_index=True)[1]]
    modes = np.zeros(n_groups, dtype=np.int64)
    modes[group[first]] = pairs[first] % c
    return modes


def young_reimpute(current: Dataset, missing: np.ndarray, forest: Forest):
    """One Young pass: OOB leaf-member fills of masked cells.

    Per feature, bincounts over the global leaf ids of the observed rows
    give every leaf's donor count and value sum (continuous); categorical
    leaves take their donors' mode, ties to the lower code. A missing
    cell takes the mean (majority vote, ties to the lower code) of its
    leaves' estimates over its OOB trees whose leaf holds a donor; cells
    with no such tree keep their current value. Returns (new values,
    fallback cells).
    """
    n, T = forest.n_scored_rows, forest.n_trees
    n_leaves = int(forest.leaf_offset[-1])
    leaf_ids = forest.leaf_of_train[:n] + forest.leaf_offset[:-1]
    oob = forest.oob_mask()[:n]
    is_cat = current.schema.is_categorical()
    new_values = current.values.copy()
    fallbacks: list[tuple[int, int]] = []
    for k in range(current.n_features):
        rows = np.flatnonzero(missing[:, k])
        if rows.size == 0:
            continue
        observed = ~missing[:, k]
        # row by row, so each leaf sums its donors in ascending row order
        donor_leaves = leaf_ids[observed].ravel()
        donor_vals = np.repeat(current.values[observed, k], T)
        n_donors = np.bincount(donor_leaves, minlength=n_leaves)
        leaves = leaf_ids[rows]
        used = oob[rows] & (n_donors[leaves] > 0)
        if is_cat[k]:
            leaf_mode = _group_modes(donor_leaves, donor_vals.astype(np.int64),
                                     n_leaves)
            # one vote per used (cell, tree) pair
            fill = _group_modes(np.nonzero(used)[0], leaf_mode[leaves][used],
                                len(rows))
        else:
            sums = np.bincount(donor_leaves, weights=donor_vals,
                               minlength=n_leaves)
            means = np.divide(sums[leaves], n_donors[leaves],
                              out=np.zeros(leaves.shape), where=used)
            fill = means.sum(axis=1) / np.maximum(used.sum(axis=1), 1)
        found = used.any(axis=1)
        new_values[rows[found], k] = fill[found]
        fallbacks += [(i, k) for i in rows[~found].tolist()]
    return new_values, fallbacks


# -- iterative drivers --------------------------------------------------------

def _column_fills(ds: Dataset) -> np.ndarray:
    """Median (continuous) or lowest-tie mode (categorical) per column."""
    observed = ~ds.missing
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
    return ds.with_values(np.where(ds.missing, fills, ds.values))


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
    observed = ~ds.missing
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
    cell (`forest.train_held_out`) and fills with it in `bc_reimpute`.
    Neither that forest nor the donors (observed cells) depend on the
    fill, so later passes return pass 1's fills unchanged and the loop
    converges at pass 2 (with max_iters >= 2). The iteration trace and
    fallback cells come back in the result; observed cells are never
    modified.
    """
    fills = _column_fills(ds) if ds.has_missing else None
    first = None  # pass 1's (values, fallbacks)

    def step(current: Dataset, iteration: int):
        nonlocal first
        if first is None:
            forest = _inner_train(current, cfg.forest_config,
                                  held_out=ds.missing)
            first = bc_reimpute(current, ds.missing, forest, fills)
        return first

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
        return young_reimpute(current, ds.missing, forest)

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

"""Labeled/unlabeled data containers and the K-fold cross-fitting plan."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    InvalidParameterError,
    ValidationError,
)
from .rng import RngStream

MIN_FOLD_ROWS = 3  # each test fold needs >= 3 points so both t components have df >= 2
# Unlabeled rows parsed, evaluated or reduced at a time.  On an 80 000 x 50 CSV,
# estimate's peak RSS was 41.0, 43.3 and 48.0 MB at 2048, 4096 and 8192 rows
# (70.0 MB read whole), at the same wall time.
BLOCK_ROWS = 2048


@dataclass(frozen=True)
class Dataset:
    """Labeled outcomes/features plus unlabeled features with a common width.

    The unlabeled features are a matrix, or a CSV opened by ``io.open_csv``.
    """

    outcomes: np.ndarray
    features: np.ndarray
    unlabeled_features: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_unlabeled(self) -> int:
        return self.unlabeled_features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class FoldPlan:
    """Disjoint K-way partitions of labeled and unlabeled row indices.

    train_sets[k] is the labeled complement of labeled_folds[k]; every index
    array is sorted so downstream reductions are order-deterministic.
    """

    n_folds: int
    labeled_folds: list[np.ndarray] = field(repr=False)
    unlabeled_folds: list[np.ndarray] = field(repr=False)
    train_sets: list[np.ndarray] = field(repr=False)


def _partition(count: int, n_folds: int, perm: np.ndarray) -> list[np.ndarray]:
    # Remainder rows go one each to the lowest-numbered folds.
    base, rem = divmod(count, n_folds)
    folds = []
    start = 0
    for k in range(n_folds):
        size = base + (1 if k < rem else 0)
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds


def make_fold_plan(n: int, n_unlabeled: int, n_folds: int, rng: RngStream) -> FoldPlan:
    """Uniformly random K-way split of labeled and unlabeled indices.

    Fold sizes within each side differ by at most one; folds of fewer than
    three rows are rejected because the downstream per-fold posteriors need
    at least two degrees of freedom.
    """
    if n_folds < 2 or int(n_folds) != n_folds:
        raise InvalidParameterError(f"number of folds must be an integer >= 2, got {n_folds}")
    if n // n_folds < MIN_FOLD_ROWS:
        raise InsufficientDataError(
            f"labeled side too small: {n} rows across {n_folds} folds leaves "
            f"fewer than {MIN_FOLD_ROWS} per fold"
        )
    if n_unlabeled // n_folds < MIN_FOLD_ROWS:
        raise InsufficientDataError(
            f"unlabeled side too small: {n_unlabeled} rows across {n_folds} folds "
            f"leaves fewer than {MIN_FOLD_ROWS} per fold"
        )
    gen = rng.generator()
    labeled_folds = _partition(n, n_folds, gen.permutation(n))
    unlabeled_folds = _partition(n_unlabeled, n_folds, gen.permutation(n_unlabeled))
    all_labeled = np.arange(n)
    train_sets = [np.setdiff1d(all_labeled, fold, assume_unique=True) for fold in labeled_folds]
    return FoldPlan(int(n_folds), labeled_folds, unlabeled_folds, train_sets)


def row_blocks(unlabeled) -> Iterator[np.ndarray]:
    """The rows in order, in blocks of at most BLOCK_ROWS: views of a matrix, or a CSV's parse."""
    if isinstance(unlabeled, np.ndarray):
        return (unlabeled[start : start + BLOCK_ROWS]
                for start in range(0, unlabeled.shape[0], BLOCK_ROWS))
    return unlabeled.blocks()


def all_finite(matrix: np.ndarray) -> bool:
    """Whether every entry is finite, with no boolean array of the matrix's size.

    A NaN or an infinity makes the sum NaN or infinite, so a finite sum
    settles it in one pass; only a sum that is not finite, which finite
    entries can also give by overflowing, runs the exact test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(matrix.sum()):
            return True
    return bool(np.isfinite(matrix).all())


def validate_dataset(labeled: np.ndarray, unlabeled: np.ndarray) -> Dataset:
    """Build a checked Dataset from raw matrices.

    The labeled matrix carries the outcome in column 0 and features in the
    remaining columns; the unlabeled matrix carries features only.  The
    Dataset holds the unlabeled matrix, the largest array of a run, through a
    read-only view and does not copy it, unless it is not C-contiguous float64.
    """
    labeled = np.atleast_2d(np.asarray(labeled, dtype=float))
    unlabeled = np.atleast_2d(np.ascontiguousarray(unlabeled, dtype=float))
    if labeled.shape[0] == 0 or labeled.shape[1] < 2:
        raise ValidationError(
            f"labeled matrix must have >= 1 row and >= 2 columns, got shape {labeled.shape}"
        )
    if unlabeled.shape[0] == 0:
        raise ValidationError("unlabeled matrix must have >= 1 row")
    p = labeled.shape[1] - 1
    if unlabeled.shape[1] != p:
        raise DimensionMismatchError(
            f"unlabeled feature width {unlabeled.shape[1]} != labeled feature width {p}"
        )
    for name, matrix in (("labeled", labeled), ("unlabeled", unlabeled)):
        if not all_finite(matrix):
            row, col = np.argwhere(~np.isfinite(matrix))[0]
            raise ValidationError(f"{name} matrix has non-finite entry at (row {row}, col {col})")
    unlabeled = unlabeled.view()
    unlabeled.flags.writeable = False
    return Dataset(
        outcomes=labeled[:, 0].copy(),
        features=labeled[:, 1:].copy(),
        unlabeled_features=unlabeled,
    )

"""Labeled/unlabeled data containers and the K-fold cross-fitting plan."""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def check_folds(n: int, n_unlabeled: int, n_folds: int) -> int:
    """The fold count as an int, checked to be >= 2 and to leave each fold MIN_FOLD_ROWS a side."""
    if n_folds < 2 or int(n_folds) != n_folds:
        raise InvalidParameterError(f"number of folds must be an integer >= 2, got {n_folds}")
    n_folds = int(n_folds)
    for side, count in (("labeled", n), ("unlabeled", n_unlabeled)):
        if count // n_folds < MIN_FOLD_ROWS:
            raise InsufficientDataError(
                f"{side} side too small: {count} rows across {n_folds} folds leaves "
                f"fewer than {MIN_FOLD_ROWS} per fold"
            )
    return n_folds


def _fold_labels(perm: np.ndarray, n_folds: int) -> np.ndarray:
    # consecutive runs of the permutation form the folds; the lowest take one remainder row each
    base, rem = divmod(len(perm), n_folds)
    labels = np.empty(len(perm), dtype=np.min_scalar_type(n_folds - 1))
    labels[perm] = np.repeat(np.arange(n_folds, dtype=labels.dtype),
                             [base + (k < rem) for k in range(n_folds)])
    return labels


def make_fold_plan(n: int, n_unlabeled: int, n_folds: int,
                   rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random K-way split of the labeled and the unlabeled rows.

    Returns each side's fold labels, one byte a row up to 256 folds: row i
    of a side is in fold ``labels[i]``.  Fold sizes within each side differ
    by at most one; ``check_folds`` rejects a count that leaves a fold too
    small.
    """
    n_folds = check_folds(n, n_unlabeled, n_folds)
    gen = rng.generator()
    labeled = _fold_labels(gen.permutation(n), n_folds)
    return labeled, _fold_labels(gen.permutation(n_unlabeled), n_folds)


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

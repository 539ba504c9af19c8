import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmean import RngStream, make_fold_plan, validate_dataset
from ssmean.errors import (
    DimensionMismatchError,
    InsufficientDataError,
    InvalidParameterError,
    ValidationError,
)

RNG = RngStream(31337)


def _sizes(plan):
    return [len(f) for f in plan.labeled_folds], [len(f) for f in plan.unlabeled_folds]


class TestMakeFoldPlan:
    def test_divisible_case_complements(self):
        plan = make_fold_plan(6, 6, 2, RNG)
        assert _sizes(plan) == ([3, 3], [3, 3])
        np.testing.assert_array_equal(plan.train_sets[0], plan.labeled_folds[1])
        np.testing.assert_array_equal(plan.train_sets[1], plan.labeled_folds[0])

    def test_remainder_rule(self):
        plan = make_fold_plan(10, 10000, 3, RNG)
        assert _sizes(plan)[0] == [4, 3, 3]

    def test_paper_scale_sizes(self):
        plan = make_fold_plan(500, 10000, 5, RNG)
        assert _sizes(plan) == ([100] * 5, [2000] * 5)

    def test_labeled_side_too_small(self):
        with pytest.raises(InsufficientDataError, match="labeled"):
            make_fold_plan(8, 100, 3, RNG)

    def test_unlabeled_side_too_small(self):
        with pytest.raises(InsufficientDataError, match="unlabeled"):
            make_fold_plan(100, 8, 3, RNG)

    def test_bad_fold_count(self):
        with pytest.raises(InvalidParameterError):
            make_fold_plan(100, 100, 1, RNG)

    def test_determinism(self):
        a = make_fold_plan(37, 53, 4, RNG.substream(5))
        b = make_fold_plan(37, 53, 4, RNG.substream(5))
        for fa, fb in zip(a.labeled_folds + a.unlabeled_folds, b.labeled_folds + b.unlabeled_folds):
            np.testing.assert_array_equal(fa, fb)

    @given(
        n=st.integers(6, 120),
        n_unlabeled=st.integers(6, 300),
        n_folds=st.integers(2, 8),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=120, deadline=None)
    def test_partition_laws(self, n, n_unlabeled, n_folds, seed):
        if n // n_folds < 3 or n_unlabeled // n_folds < 3:
            with pytest.raises(InsufficientDataError):
                make_fold_plan(n, n_unlabeled, n_folds, RngStream(seed))
            return
        plan = make_fold_plan(n, n_unlabeled, n_folds, RngStream(seed))
        for folds, total in ((plan.labeled_folds, n), (plan.unlabeled_folds, n_unlabeled)):
            combined = np.concatenate(folds)
            assert len(combined) == total
            assert len(np.unique(combined)) == total  # disjoint and exhaustive
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1
        for k in range(n_folds):
            assert np.intersect1d(plan.train_sets[k], plan.labeled_folds[k]).size == 0
            assert len(plan.train_sets[k]) + len(plan.labeled_folds[k]) == n


class TestValidateDataset:
    def test_basic_shapes(self):
        data = validate_dataset(np.ones((3, 3)), np.ones((5, 2)))
        assert (data.n, data.n_unlabeled, data.p) == (3, 5, 2)

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            validate_dataset(np.ones((3, 3)), np.ones((5, 3)))

    def test_nan_cites_row(self):
        labeled = np.ones((4, 3))
        labeled[2, 1] = np.nan
        with pytest.raises(
            ValidationError, match=r"^labeled matrix has non-finite entry at \(row 2, col 1\)$"
        ):
            validate_dataset(labeled, np.ones((5, 2)))

    def test_inf_in_unlabeled(self):
        unlabeled = np.ones((5, 2))
        unlabeled[4, 0] = np.inf
        unlabeled[3, 1] = -np.inf  # the first in row-major order is named
        with pytest.raises(
            ValidationError, match=r"^unlabeled matrix has non-finite entry at \(row 3, col 1\)$"
        ):
            validate_dataset(np.ones((3, 3)), unlabeled)

    @pytest.mark.parametrize("cells, where", [
        ([(0, 1, -np.inf), (1, 1, np.inf)], "row 0, col 1"),
        ([(0, 0, 1e308), (1, 0, 1e308), (3, 1, np.nan)], "row 3, col 1"),
    ], ids=["opposite_infinities", "nan_after_overflowing_sum"])
    def test_non_finite_named_whatever_the_sum(self, cells, where):
        unlabeled = np.ones((5, 2))
        for row, col, value in cells:
            unlabeled[row, col] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"non-finite entry at \({where}\)$"):
                validate_dataset(np.ones((3, 3)), unlabeled)

    def test_finite_entries_whose_sum_overflows_accepted(self):
        unlabeled = np.ones((5, 2))
        unlabeled[:2, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = validate_dataset(np.ones((3, 3)), unlabeled)
        assert data.unlabeled_features[:2, 0].tolist() == [1e308, 1e308]

    def test_zero_rows(self):
        with pytest.raises(ValidationError):
            validate_dataset(np.ones((0, 3)), np.ones((5, 2)))
        with pytest.raises(ValidationError):
            validate_dataset(np.ones((3, 3)), np.ones((0, 2)))

    def test_outcome_only_matrix_rejected(self):
        with pytest.raises(ValidationError):
            validate_dataset(np.ones((3, 1)), np.ones((5, 2)))

    def test_holds_unlabeled_matrix_without_copy(self):
        unlabeled = np.arange(10.0).reshape(5, 2)
        data = validate_dataset(np.ones((3, 3)), unlabeled)
        assert np.shares_memory(data.unlabeled_features, unlabeled)

    def test_unlabeled_view_is_read_only(self):
        unlabeled = np.ones((5, 2))
        data = validate_dataset(np.ones((3, 3)), unlabeled)
        with pytest.raises(ValueError):
            data.unlabeled_features[0, 0] = 2.0
        unlabeled[0, 0] = 3.0  # the caller's array stays writeable
        assert unlabeled.flags.writeable

    @pytest.mark.parametrize(
        "unlabeled",
        [np.asfortranarray(np.arange(10.0).reshape(5, 2)), np.arange(10).reshape(5, 2),
         np.arange(20.0).reshape(5, 4)[:, ::2]],
        ids=["fortran", "integer", "strided"],
    )
    def test_other_layouts_become_c_contiguous_float(self, unlabeled):
        data = validate_dataset(np.ones((3, 3)), unlabeled)
        held = data.unlabeled_features
        assert held.dtype == np.float64 and held.flags.c_contiguous
        assert not np.shares_memory(held, unlabeled)
        np.testing.assert_array_equal(held, unlabeled)

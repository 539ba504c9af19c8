import tracemalloc
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


# make_fold_plan(37, 53, 4, RngStream(31337).substream(5)), row by row: the folds the
# earlier sorted-index-list form of the plan assigned on the same substream
PINNED_LABELED = "0302330101231023321220300211120032113"
PINNED_UNLABELED = "23023210231313303101000021010211113020302222333102132"


def _sizes(plan):
    return [np.bincount(labels).tolist() for labels in plan]


class TestMakeFoldPlan:
    def test_divisible_case_complements(self):
        labeled, unlabeled = make_fold_plan(6, 6, 2, RNG)
        assert _sizes((labeled, unlabeled)) == [[3, 3], [3, 3]]
        # fold k trains on the labeled rows of every other fold, so fold 0's are fold 1's
        np.testing.assert_array_equal(np.flatnonzero(labeled != 0), np.flatnonzero(labeled == 1))
        np.testing.assert_array_equal(np.flatnonzero(labeled != 1), np.flatnonzero(labeled == 0))

    def test_remainder_rule(self):
        plan = make_fold_plan(10, 10000, 3, RNG)
        assert _sizes(plan)[0] == [4, 3, 3]

    def test_paper_scale_sizes(self):
        plan = make_fold_plan(500, 10000, 5, RNG)
        assert _sizes(plan) == [[100] * 5, [2000] * 5]

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
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_pinned_assignment(self):
        # pins the substream's layout: the permutations and the runs that form the folds
        labeled, unlabeled = make_fold_plan(37, 53, 4, RngStream(31337).substream(5))
        assert labeled.dtype == unlabeled.dtype == np.uint8
        assert "".join(map(str, labeled)) == PINNED_LABELED
        assert "".join(map(str, unlabeled)) == PINNED_UNLABELED

    def test_holds_a_byte_an_unlabeled_row(self):
        # the plan is one label a row; index lists and their training complements took 8
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            plan = make_fold_plan(200, 40_000, 5, RNG.substream(9))
            held = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert held < 2 * 40_000, f"the plan holds {held / 40_000:.2f} bytes an unlabeled row"
        assert _sizes(plan)[1] == [8000] * 5

    @staticmethod
    def _plan_peak():
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            make_fold_plan(200, 40_000, 5, RNG.substream(9))
            return tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()

    def test_peaks_below_an_int64_permutation(self):
        # the permutations are shuffled at the smallest dtype; gen.permutation's int64 took 8
        # bytes a row at the peak, before the index copy that fills the labels
        peak = self._plan_peak()
        assert peak < 8 * 40_000, f"the plan peaks at {peak / 40_000:.2f} bytes an unlabeled row"

    def test_peaks_below_an_intp_copy_of_the_permutation(self):
        # the labels are filled a fold's run at a time, so numpy casts N/K indices to
        # intp at once, not all N (5.77 bytes a row when it cast the whole permutation)
        peak = self._plan_peak()
        assert peak < 5 * 40_000, f"the plan peaks at {peak / 40_000:.2f} bytes an unlabeled row"

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
        for labels, total in zip(plan, (n, n_unlabeled)):
            # one label a row: disjoint and exhaustive
            assert labels.shape == (total,) and labels.min() >= 0 and labels.max() < n_folds
            sizes = np.bincount(labels, minlength=n_folds)
            assert max(sizes) - min(sizes) <= 1
            # remainder rows go one each to the lowest-numbered folds
            assert sizes.tolist() == sorted(sizes, reverse=True)
        labeled = plan[0]
        for k in range(n_folds):
            train, test = np.flatnonzero(labeled != k), np.flatnonzero(labeled == k)
            assert np.intersect1d(train, test).size == 0
            assert len(train) + len(test) == n


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

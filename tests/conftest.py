"""Run the suite with BLAS on one thread, as the CLI does.

The fits are small, and a second OpenBLAS thread slows them: the seeded
replication studies take about three times as long at two threads.  A count
set through OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is kept.
"""

import pytest

from ssmean import _blas


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    with _blas.one_thread():
        yield

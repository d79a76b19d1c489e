"""Facade input validation and the ``resilience=`` entry point."""

import numpy as np
import pytest

import repro
from repro.validation import (
    InputValidationError,
    validate_batch,
    validate_matrix,
    validate_vector,
)
from tests.conftest import random_diagonal_matrix


@pytest.fixture()
def problem():
    rng = np.random.default_rng(0)
    coo = random_diagonal_matrix(rng, n=128)
    return coo, rng.standard_normal(coo.ncols)


class TestVectorValidation:
    def test_rejects_wrong_length(self, problem):
        coo, x = problem
        with pytest.raises(InputValidationError, match="length"):
            repro.spmv(coo, x[:-3])

    def test_rejects_wrong_dtype(self, problem):
        coo, x = problem
        with pytest.raises(InputValidationError, match="dtype"):
            repro.spmv(coo, x.astype(complex))
        with pytest.raises(InputValidationError, match="dtype"):
            repro.spmv(coo, np.array(["a"] * coo.ncols))

    def test_rejects_non_contiguous(self, problem):
        coo, x = problem
        reversed_view = np.flip(np.concatenate([x, x[::-1]])[:x.size])
        assert not reversed_view.flags.c_contiguous
        with pytest.raises(InputValidationError, match="contiguous"):
            repro.spmv(coo, reversed_view)

    def test_rejects_nan_and_inf(self, problem):
        coo, x = problem
        for poison in (np.nan, np.inf, -np.inf):
            bad = x.copy()
            bad[7] = poison
            with pytest.raises(InputValidationError, match="non-finite"):
                repro.spmv(coo, bad)

    def test_rejects_2d(self, problem):
        coo, x = problem
        with pytest.raises(InputValidationError, match="1-D"):
            repro.spmv(coo, x.reshape(1, -1))

    def test_accepts_lists_and_int_vectors(self, problem):
        coo, _ = problem
        ones = [1] * coo.ncols
        run = repro.spmv(coo, ones)
        assert np.allclose(run.y, coo.matvec(np.ones(coo.ncols)))

    def test_error_is_a_value_error(self):
        assert issubclass(InputValidationError, ValueError)
        with pytest.raises(ValueError):
            validate_vector(np.zeros(3), 5)


class TestBatchValidation:
    """``validate_batch``: the multi-vector X of the SpMM/serving path."""

    def test_accepts_well_formed(self, problem):
        coo, _ = problem
        X = np.random.default_rng(1).standard_normal((coo.ncols, 3))
        assert validate_batch(X, coo.ncols) is X
        assert validate_batch(X, coo.ncols, nvec=3) is X
        # F-contiguous (column-major) batches are a legal device layout
        validate_batch(np.asfortranarray(X), coo.ncols)

    def test_rejects_wrong_rows(self, problem):
        coo, _ = problem
        with pytest.raises(InputValidationError, match="rows"):
            validate_batch(np.zeros((coo.ncols - 1, 2)), coo.ncols)

    def test_rejects_wrong_nvec(self, problem):
        coo, _ = problem
        with pytest.raises(InputValidationError, match="nvec"):
            validate_batch(np.zeros((coo.ncols, 3)), coo.ncols, nvec=2)

    def test_rejects_1d_and_zero_columns(self, problem):
        coo, _ = problem
        with pytest.raises(InputValidationError, match="2-D"):
            validate_batch(np.zeros(coo.ncols), coo.ncols)
        with pytest.raises(InputValidationError, match="zero columns"):
            validate_batch(np.zeros((coo.ncols, 0)), coo.ncols)

    def test_rejects_bad_dtype_and_non_finite(self, problem):
        coo, _ = problem
        with pytest.raises(InputValidationError, match="dtype"):
            validate_batch(np.zeros((coo.ncols, 2), dtype=complex),
                           coo.ncols)
        bad = np.ones((coo.ncols, 2))
        bad[3, 1] = np.nan
        with pytest.raises(InputValidationError, match="non-finite"):
            validate_batch(bad, coo.ncols)

    def test_rejects_strided_slice(self, problem):
        coo, _ = problem
        wide = np.ones((coo.ncols, 6))
        view = wide[:, ::2]
        assert not (view.flags.c_contiguous or view.flags.f_contiguous)
        with pytest.raises(InputValidationError, match="contiguous"):
            validate_batch(view, coo.ncols)

    def test_spmm_runner_routes_through_it(self, problem):
        from repro.core.crsd import CRSDMatrix
        from repro.gpu_kernels.crsd_runner import CrsdSpMM

        coo, _ = problem
        runner = CrsdSpMM(CRSDMatrix.from_coo(coo, mrows=32), nvec=2)
        with pytest.raises(InputValidationError, match="nvec"):
            runner.run(np.zeros((coo.ncols, 3)))
        bad = np.ones((coo.ncols, 2))
        bad[0, 0] = np.inf
        with pytest.raises(InputValidationError, match="non-finite"):
            runner.run(bad)

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            validate_batch(np.zeros((3, 1)), 5)


class TestMatrixValidation:
    def test_rejects_nan_in_sparse_values(self, problem):
        from repro.formats.coo import COOMatrix

        bad = COOMatrix(np.array([0, 1]), np.array([0, 1]),
                        np.array([1.0, np.nan]), (2, 2))
        with pytest.raises(InputValidationError, match="non-finite"):
            repro.build(bad)
        with pytest.raises(InputValidationError, match="non-finite"):
            repro.spmv(bad, np.ones(2))

    def test_rejects_inf_in_dense(self):
        dense = np.eye(4)
        dense[2, 2] = np.inf
        with pytest.raises(InputValidationError, match="non-finite"):
            repro.build(dense)

    def test_rejects_nan_in_crsd(self, problem):
        from repro.core.crsd import CRSDMatrix
        from repro.formats.coo import COOMatrix

        coo, _ = problem
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        # poison one stored slab value (the carrier's arrays are
        # read-only, so rebuild it around a poisoned copy of its slab)
        dia_val = crsd.dia_val.copy()
        dia_val[0] = np.nan
        crsd = CRSDMatrix(crsd.shape, crsd.params, crsd.regions, dia_val,
                          crsd.scatter_rowno, crsd.scatter_colval,
                          crsd.scatter_val, crsd.scatter_occupancy,
                          crsd.nnz)
        with pytest.raises(InputValidationError, match="non-finite"):
            repro.build(crsd, "crsd")

    def test_healthy_matrix_passes(self, problem):
        coo, _ = problem
        validate_matrix(coo)  # no raise


class TestResilienceKwarg:
    def test_default_path_has_no_resilience_report(self, problem):
        coo, x = problem
        run = repro.spmv(coo, x)
        assert run.resilience is None

    def test_policy_routes_through_ladder(self, problem):
        coo, x = problem
        run = repro.spmv(coo, x, resilience=repro.Policy())
        assert run.resilience is not None
        assert run.resilience.served_rung == "crsd"
        assert run.metrics is not None

    def test_true_means_default_policy(self, problem):
        coo, x = problem
        direct = repro.spmv(coo, x)
        resilient = repro.spmv(coo, x, resilience=True)
        assert np.array_equal(direct.y, resilient.y)

    def test_resilient_path_validates_too(self, problem):
        coo, x = problem
        with pytest.raises(InputValidationError):
            repro.spmv(coo, x[:-1], resilience=True)

    def test_auto_format_resolves_before_ladder(self, problem):
        coo, x = problem
        run = repro.spmv(coo, x, "auto", resilience=repro.Policy())
        assert run.resilience.served_rung in (
            "crsd", "dia", "ell", "csr", "hyb")

    def test_exhausted_is_importable_from_root(self):
        assert issubclass(repro.ResilienceExhausted, RuntimeError)
        assert repro.FaultInjector is not None

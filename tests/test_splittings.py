"""Splitting builders, the triangular decomposition, and omega resolution."""

import numpy as np
import pytest

from gavekit import (
    ConfigurationError,
    DimensionError,
    OmegaSpec,
    ParameterError,
    SparseMatrix,
    SplittingKind,
    build_splitting,
    diag_matrix,
    gen_example41,
    identity,
    resolve_omega,
    sparse_add,
    sparse_sub,
    spmv,
    triangular_parts,
    zeros,
)

from conftest import random_dominant, tridiag, with_explicit_zeros

# M - N == A bitwise; the other kinds round (hss in H + S, for one)
EXACT_KINDS = ["picard", "mn", "nj", "ngs", "drs"]


def _all_kinds():
    return [
        SplittingKind("picard"),
        SplittingKind("mn"),
        SplittingKind("nj"),
        SplittingKind("ngs"),
        SplittingKind("nsor", alpha=0.9),
        SplittingKind("naor", alpha=1.2, beta=0.7),
        SplittingKind("hss"),
        SplittingKind("nmn"),
        SplittingKind("drs", gamma=1.4),
    ]


class TestTriangularParts:
    def test_hand_value(self):
        A = SparseMatrix.from_dense(np.array([[4.0, -1.0], [-1.0, 4.0]]))
        D, L, U = triangular_parts(A)
        np.testing.assert_array_equal(D.to_dense(), [[4.0, 0.0], [0.0, 4.0]])
        np.testing.assert_array_equal(L.to_dense(), [[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(U.to_dense(), [[0.0, 1.0], [0.0, 0.0]])

    def test_diagonal_input(self):
        # the second input stores a zero diagonal entry, which D keeps
        for A in (SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0])),
                  diag_matrix([1.0, 0.0, 3.0])):
            D, L, U = triangular_parts(A)
            np.testing.assert_array_equal(D.to_dense(), A.to_dense())
            np.testing.assert_array_equal(D.values, A.values)
            assert L.nnz == 0 and U.nnz == 0

    def test_reassembly_bit_exact(self, rng):
        for _ in range(10):
            A = random_dominant(rng, 12)
            for X in (A, with_explicit_zeros(rng, A)):
                D, L, U = triangular_parts(X)
                recombined = sparse_sub(sparse_sub(D, L), U)
                np.testing.assert_array_equal(recombined.to_dense(), X.to_dense())


class TestBuildSplitting:
    def test_splitting_identity_all_kinds(self, rng):
        # random_dominant's entries are multiples of 2**-52, on which every
        # (a +- b) / 2 is exact; the 2x2 matrix's entries are not
        general = SparseMatrix.from_dense(np.array([[1.0, 0.1], [0.2, 3.0]]))
        for A in [random_dominant(rng, 20) for _ in range(5)] + [general]:
            for kind in _all_kinds():
                omega = OmegaSpec.scalar(1.0) if kind.name == "nmn" else None
                s = build_splitting(A, kind, omega)
                diff = sparse_sub(s.M, s.N)
                if kind.name in EXACT_KINDS:
                    np.testing.assert_array_equal(diff.to_dense(), A.to_dense())
                else:
                    np.testing.assert_allclose(
                        diff.to_dense(), A.to_dense(), atol=1e-13
                    )
                x = rng.uniform(-1, 1, A.n_rows)
                lhs = spmv(s.M, x) - spmv(s.N, x)
                rhs = spmv(A, x)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_formulas_match_remarks(self, rng):
        A = random_dominant(rng, 10)
        D, L, U = triangular_parts(A)
        nj = build_splitting(A, "nj")
        np.testing.assert_array_equal(nj.M.to_dense(), D.to_dense())
        np.testing.assert_array_equal(nj.N.to_dense(), (L.to_dense() + U.to_dense()))
        ngs = build_splitting(A, "ngs")
        np.testing.assert_array_equal(ngs.M.to_dense(), D.to_dense() - L.to_dense())
        np.testing.assert_array_equal(ngs.N.to_dense(), U.to_dense())
        alpha = 0.8
        nsor = build_splitting(A, SplittingKind("nsor", alpha=alpha))
        np.testing.assert_allclose(
            nsor.M.to_dense(), D.to_dense() / alpha - L.to_dense(), rtol=1e-15
        )
        np.testing.assert_allclose(
            nsor.N.to_dense(),
            (1 / alpha - 1) * D.to_dense() + U.to_dense(),
            atol=1e-13,
        )

    def test_no_stored_zeros_on_example41(self):
        for m, mu in ((6, 4.0), (7, -1.0)):
            _, prob, hat = gen_example41(m, mu)
            for kind in ("nj", "ngs", SplittingKind("nsor", alpha=0.9)):
                N = build_splitting(prob.A, kind).N
                assert np.all(N.values != 0.0)
                assert np.all(sparse_add(hat, N).values != 0.0)

    def test_nsor_alpha_one_is_ngs(self, rng):
        A = random_dominant(rng, 15)
        nsor = build_splitting(A, SplittingKind("nsor", alpha=1.0))
        ngs = build_splitting(A, "ngs")
        np.testing.assert_array_equal(nsor.M.values, ngs.M.values)
        np.testing.assert_array_equal(nsor.M.col_idx, ngs.M.col_idx)
        np.testing.assert_array_equal(nsor.N.values, ngs.N.values)

    def test_naor_beta_alpha_is_nsor(self, rng):
        A = random_dominant(rng, 15)
        alpha = 0.73
        naor = build_splitting(A, SplittingKind("naor", alpha=alpha, beta=alpha))
        nsor = build_splitting(A, SplittingKind("nsor", alpha=alpha))
        np.testing.assert_array_equal(naor.M.values, nsor.M.values)
        np.testing.assert_array_equal(naor.N.values, nsor.N.values)

    def test_hss_parts(self, rng):
        A = random_dominant(rng, 9)
        s = build_splitting(A, "hss")
        np.testing.assert_array_equal(s.M.to_dense(), s.M.to_dense().T)
        # N = -S must be antisymmetric
        np.testing.assert_array_equal(s.N.to_dense(), -s.N.to_dense().T)

    def test_nmn_matrices(self, rng):
        A = random_dominant(rng, 8)
        om = OmegaSpec.scalar(2.0)
        s = build_splitting(A, "nmn", om)
        omega = resolve_omega(om, 8).to_dense()
        np.testing.assert_allclose(s.M.to_dense(), (A.to_dense() - omega) / 2, rtol=1e-15)
        np.testing.assert_allclose(s.N.to_dense(), -(A.to_dense() + omega) / 2, atol=1e-14)
        np.testing.assert_array_equal(s.omega.to_dense(), omega)

    def test_drs_pins_omega(self, rng):
        A = random_dominant(rng, 8)
        gamma = 0.6
        s = build_splitting(A, SplittingKind("drs", gamma=gamma))
        np.testing.assert_allclose(
            s.omega.to_dense(), (2 / gamma - 1) * A.to_dense(), rtol=1e-15
        )
        with pytest.raises(ConfigurationError):
            build_splitting(A, SplittingKind("drs", gamma=gamma), OmegaSpec.scalar(1.0))

    def test_drs_accepts_zero_omega(self, rng):
        A = random_dominant(rng, 8)
        kind = SplittingKind("drs", gamma=0.6)
        s = build_splitting(A, kind, OmegaSpec.zero())
        np.testing.assert_array_equal(
            s.omega.to_dense(), build_splitting(A, kind).omega.to_dense()
        )

    def test_picard_pins_zero_omega(self, rng):
        A = random_dominant(rng, 6)
        s = build_splitting(A, "picard")
        assert s.omega.shape == (6, 6) and s.omega.nnz == 0

    def test_picard_rejects_nonzero_omega(self, rng):
        A = random_dominant(rng, 6)
        build_splitting(A, "picard", OmegaSpec.zero())  # fine
        with pytest.raises(ConfigurationError):
            build_splitting(A, "picard", OmegaSpec.scalar(1.0))

    def test_nmn_needs_omega(self, rng):
        A = random_dominant(rng, 6)
        with pytest.raises(ConfigurationError):
            build_splitting(A, "nmn")

    def test_naor_wide_parameters_warn(self, rng):
        A = random_dominant(rng, 6)
        s = build_splitting(A, SplittingKind("naor", alpha=1.0, beta=1.5))
        assert s.warnings and "outside" in s.warnings[0]

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            SplittingKind("nsor", alpha=2.0)
        with pytest.raises(ParameterError):
            SplittingKind("nsor")
        with pytest.raises(ParameterError):
            SplittingKind("drs", gamma=2.0)
        with pytest.raises(ParameterError):
            SplittingKind("naor", alpha=0.0, beta=0.0)
        with pytest.raises(ParameterError):
            SplittingKind("nope")

    @pytest.mark.parametrize("alpha, beta", [
        (np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5), (1.0, -np.inf),
    ])
    def test_naor_requires_finite_parameters(self, alpha, beta):
        # a NaN alpha used to reach the LU and fail there (exit 3)
        with pytest.raises(ParameterError, match="finite"):
            SplittingKind("naor", alpha=alpha, beta=beta)


class TestResolveOmega:
    def test_zero(self):
        om = resolve_omega(OmegaSpec.zero(), 5)
        assert om.shape == (5, 5) and om.nnz == 0

    def test_scalar_identity(self):
        om = resolve_omega(OmegaSpec.scalar(2.0), 3)
        np.testing.assert_array_equal(om.to_dense(), 2.0 * np.eye(3))

    def test_scaled_matrix(self):
        base = tridiag(-1, 4, -1, 4)
        om = resolve_omega(OmegaSpec.scaled(1.5, base), 4)
        np.testing.assert_array_equal(om.to_dense(), 1.5 * base.to_dense())

    def test_explicit_passthrough(self):
        m = identity(4)
        assert resolve_omega(OmegaSpec.explicit(m), 4) is m

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            resolve_omega(OmegaSpec.scaled(1.0, identity(3)), 4)
        with pytest.raises(DimensionError):
            resolve_omega(OmegaSpec.explicit(zeros(2)), 4)

    def test_none_means_zero(self):
        assert resolve_omega(None, 3).nnz == 0

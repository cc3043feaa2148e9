"""LU factorization, LSQR, and the spectral estimators."""

import functools
import inspect

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import gavekit.linalg
import gavekit.solver
from gavekit import (
    ConvergenceFailure,
    DimensionError,
    NumericsError,
    OmegaSpec,
    ParameterError,
    SingularMatrixError,
    SparseMatrix,
    SplittingKind,
    build_splitting,
    diag_matrix,
    gen_example41,
    hermitian_split,
    identity,
    lsqr,
    lu_factorize,
    min_singular_value,
    nms_solve,
    residual,
    spectral_norm,
    sparse_add,
    sparse_scale,
    sparse_sub,
    spmv,
    symmetric_eig_extremes,
    zeros,
)
from gavekit.certify import _NORM_RTOL
from gavekit.linalg import _check_pivots, _gershgorin, _lanczos_top, _top_ritz_pair
from gavekit.problems import build_hat_m
from gavekit.sparse import _abs_sums

from conftest import (
    count_calls,
    count_products,
    from_dense,
    pinned_splu,
    random_dominant,
    random_sparse,
    tridiag,
    with_explicit_zeros,
    with_int64_indices,
)


class TestLu:
    def test_identity_solve(self):
        f = lu_factorize(identity(4))
        rhs = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(f.solve(rhs), rhs)

    def test_tridiagonal_constructed_solution(self):
        A = tridiag(-1, 4, -1, 30)
        rhs = spmv(A, np.ones(30))
        x = lu_factorize(A).solve(rhs)
        np.testing.assert_allclose(x, np.ones(30), atol=1e-12)

    def test_zero_row_is_singular(self):
        A = SparseMatrix.from_coo(3, 3, [0, 0, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(SingularMatrixError):
            lu_factorize(A)

    def test_tiny_pivot_is_singular(self):
        # exactly singular after rounding
        dense = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrixError):
            lu_factorize(from_dense(dense))
        # pivot below 1e-14 * norm_inf trips the threshold check
        dense = np.array([[1.0, 1.0], [1.0, 1.0 + 5e-15]])
        with pytest.raises(SingularMatrixError, match="pivot"):
            lu_factorize(from_dense(dense))
        # just above the threshold still factors
        dense = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        lu_factorize(from_dense(dense))

    def test_requires_square(self):
        with pytest.raises(DimensionError):
            lu_factorize(zeros(2, 3))

    def test_residual_bound_on_dominant_matrices(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 60))
            A = random_dominant(rng, n)
            b = rng.uniform(-1, 1, n)
            x = lu_factorize(A).solve(b)
            res = np.linalg.norm(spmv(A, x) - b)
            assert res <= 1e-12 * max(1.0, np.linalg.norm(b))

    def test_transpose_solve(self, rng):
        A = random_dominant(rng, 12)
        b = rng.uniform(-1, 1, 12)
        x = lu_factorize(A).solve(b, transpose=True)
        np.testing.assert_allclose(A.to_dense().T @ x, b, atol=1e-11)

    def test_nonsymmetric_solves_match_numpy(self, rng):
        # neither A nor A.T is diagonally dominant, so SuperLU pivots off
        # the diagonal and the pivot test reads U
        for n in (2, 9, 30):
            dense = rng.uniform(-1.0, 1.0, (n, n))
            dense[rng.random((n, n)) >= 0.5] = 0.0
            np.fill_diagonal(dense, rng.uniform(-0.1, 0.1, n))
            dense[0, -1] = dense[-1, 0] + 1.0  # nonsymmetric at n = 2 too
            a = np.abs(dense)
            assert (2 * a.diagonal() < a.sum(axis=0)).any()
            assert (2 * a.diagonal() < a.sum(axis=1)).any()
            f = lu_factorize(from_dense(dense))
            bound = 1e-13 * np.linalg.cond(dense)
            for transpose, X in ((False, dense), (True, dense.T)):
                b = rng.uniform(-1, 1, n)
                want = np.linalg.solve(X, b)
                err = np.abs(f.solve(b, transpose=transpose) - want).max()
                assert err <= bound * np.abs(want).max(), (n, transpose)

    def test_every_caller_hands_superlu_its_matrix_arrays(self, monkeypatch):
        # the solver, sigma_min's two-solve and shifted paths and the
        # eigenvalue estimator: SuperLU reads the factored matrix's own CSR
        # arrays, as the CSC arrays of its transpose, and copies nothing
        factored, handed = [], []
        factorize, splu = gavekit.linalg.lu_factorize, scipy.sparse.linalg.splu

        def recording_factorize(X):
            factored.append(X)
            return factorize(X)

        def recording_splu(csc, **kwargs):
            handed.append(csc)
            return splu(csc, **kwargs)

        for module in (gavekit.linalg, gavekit.solver):
            monkeypatch.setattr(module, "lu_factorize", recording_factorize)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
        _, prob, hat = gen_example41(8, -1.0)
        s = build_splitting(prob.A, "ngs")
        H, _ = hermitian_split(prob.A)
        calls = {
            "nms_solve": lambda: nms_solve(prob, s, OmegaSpec.scaled(1.5, hat)),
            "two-solve sigma_min": lambda: min_singular_value(sparse_add(hat, s.M)),
            "shifted sigma_min": lambda: min_singular_value(sparse_scale(1.5, hat)),
            "symmetric_eig_extremes": lambda: symmetric_eig_extremes(H),
        }
        for name, call in calls.items():
            factored.clear()
            handed.clear()
            call()
            assert factored and len(handed) == len(factored), name
            for X, csc in zip(factored, handed):
                assert csc.format == "csc" and csc.shape == X.shape[::-1], name
                for arr, of_x in ((csc.indptr, X.row_ptr), (csc.indices, X.col_idx),
                                  (csc.data, X.values)):
                    assert np.shares_memory(arr, of_x), name

    def test_pinned_ordering_fill_and_determinism(self, rng):
        # Omega + M for ngs with Omega = hatM on example41, m = 30
        _, prob, hat = gen_example41(30, 4.0)
        OM = sparse_add(hat, build_splitting(prob.A, SplittingKind("ngs")).M)
        f = lu_factorize(OM)
        assert f.ordering == "MMD_AT_PLUS_A"
        colamd = scipy.sparse.linalg.splu(
            OM.to_scipy().tocsc(), permc_spec="COLAMD", diag_pivot_thresh=1.0
        )
        assert 0 < f.nnz <= colamd.nnz
        # one-column panels at threshold 0.1 fill no more than SuperLU's
        # default panels at threshold 1.0
        default = scipy.sparse.linalg.splu(
            OM.to_scipy().tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1.0
        )
        assert f.nnz <= default.nnz
        rhs = rng.uniform(-1, 1, OM.n_rows)
        x = f.solve(rhs)
        np.testing.assert_array_equal(lu_factorize(OM).solve(rhs), x)
        np.testing.assert_allclose(spmv(OM, x), rhs, atol=1e-12)

    def test_pinned_relax_within_panel_size(self):
        # scipy 1.17's SuperLU crashed the interpreter with relax > panel_size
        assert 1 <= gavekit.linalg._RELAX <= gavekit.linalg._PANEL_SIZE

    def test_threshold_pivoting_cuts_fill_of_an_indefinite_matrix(self, rng):
        # B = hatM - 2I (example41, mu = -1) is indefinite; strict partial
        # pivoting fills it 92,300 against 52,909 at threshold 0.1
        _, prob, _ = gen_example41(30, -1.0)
        f = lu_factorize(prob.B)
        strict = scipy.sparse.linalg.splu(
            prob.B.to_scipy().tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1.0
        )
        assert f.nnz <= 0.6 * strict.nnz
        b = rng.uniform(-1, 1, prob.B.n_rows)
        x = f.solve(b)
        norm_b = np.abs(prob.B.to_dense()).sum(axis=1).max()
        backward = np.abs(spmv(prob.B, x) - b).max() / (norm_b * np.abs(x).max() + np.abs(b).max())
        assert backward < 1e-13

    def test_threshold_pivoting_keeps_the_strict_pivots_on_the_paper_family(self):
        # the 0.1 threshold is free on the contract matrices: every pivot it
        # keeps is also the largest entry of its column. example41 m = 30:
        # A, and Omega + M with Omega = hatM and 1.5 hatM
        kinds = [SplittingKind("nj"), SplittingKind("ngs"), SplittingKind("nsor", alpha=1.3),
                 SplittingKind("mn"), SplittingKind("picard")]
        for mu in (4.0, -1.0):
            _, prob, hat = gen_example41(30, mu)
            cases = {"A": prob.A}
            for kind in kinds:
                M = build_splitting(prob.A, kind).M
                for c in (1.0, 1.5):
                    cases[f"{kind.name}/{c:g}hatM"] = sparse_add(sparse_scale(c, hat), M)
            for name, X in cases.items():
                strict = scipy.sparse.linalg.splu(
                    X.to_scipy().tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1.0
                )
                f = lu_factorize(X)
                where = f"mu = {mu:g}, {name}"
                np.testing.assert_array_equal(f._splu.perm_r, strict.perm_r, err_msg=where)
                np.testing.assert_array_equal(f._splu.perm_c, strict.perm_c, err_msg=where)


class _NoU:
    """Stand-in for a SuperLU factor whose U must not be read."""

    @property
    def U(self):
        raise LookupError("U was read")


def _pivot_inputs(X):
    """X's column margins and infinity norm as ``lu_factorize(X.T)`` hands
    them to ``_check_pivots``."""
    rows, cols, diag = _abs_sums(X.transpose())
    return np.abs(diag) - rows, float((cols + np.abs(diag)).max())


def _column_margins(X):
    """``|x_jj| - sum_{i != j} |x_ij|`` for every column j of X."""
    a = abs(X.to_scipy())
    return 2.0 * a.diagonal() - np.asarray(a.sum(axis=0)).ravel()


def _random_column_dominant(rng, n, density, rel_margin):
    """Random nonsymmetric matrix whose every column has the margin
    ``rel_margin * (1 + its off-diagonal mass)``, diagonal signs mixed."""
    dense = rng.uniform(-1.0, 1.0, (n, n))
    dense[rng.random((n, n)) >= density] = 0.0
    np.fill_diagonal(dense, 0.0)
    off = np.abs(dense).sum(axis=0)
    np.fill_diagonal(dense, rng.choice([-1.0, 1.0], n) * (off + rel_margin * (off + 1.0)))
    return from_dense(dense)


def _paper_shifts(m):
    """``c hatM + M`` of nj, ngs and nsor (alpha 0.5, 0.6, ..., 1.9) on
    example41 at both mu and c = 1, 1.5: the matrices the tables factor."""
    kinds = [SplittingKind("nj"), SplittingKind("ngs")] + [
        SplittingKind("nsor", alpha=round(0.5 + 0.1 * i, 10)) for i in range(15)
    ]
    for mu in (4.0, -1.0):
        _, prob, hat = gen_example41(m, mu)
        for kind in kinds:
            M = build_splitting(prob.A, kind).M
            for c in (1.0, 1.5):
                name = f"m = {m}, mu = {mu:g}, {kind}, {c:g} hatM"
                yield name, sparse_add(sparse_scale(c, hat), M)


class TestPivotMargin:
    """lu_factorize reads U only when column margins leave the pivot test open."""

    def test_column_dominant_matrices_never_read_u(self, rng):
        # the paper's shifts are dominant by rows too; the random ones by columns only
        cases = [Y for _, X in _paper_shifts(6) for Y in (X, X.transpose())]
        cases += [_random_column_dominant(rng, n, 0.3, 1e-3) for n in (1, 2, 7, 40)]
        for X in cases:
            _check_pivots(_NoU(), *_pivot_inputs(X))

    def test_indefinite_shift_reads_u_and_keeps_its_message(self):
        X = sparse_sub(build_hat_m(5), diag_matrix(np.full(25, 2.0)))  # singular
        with pytest.raises(LookupError, match="U was read"):
            _check_pivots(_NoU(), *_pivot_inputs(X))
        message = r"^numerically singular: pivot \d\.\d{3}e-\d+ below 1e-14 \* 6\.000e\+00$"
        with pytest.raises(SingularMatrixError, match=message):
            lu_factorize(X)

    def test_margin_below_the_pivot_tolerance_reads_u(self):
        # column 0 has margin 0, column 1 a margin of 3: not proven
        X = from_dense(np.array([[1.0, 0.0], [1.0, 3.0]]))
        with pytest.raises(LookupError):
            _check_pivots(_NoU(), *_pivot_inputs(X))
        lu_factorize(X)

    def test_the_solver_never_reads_u_on_the_paper_shifts(self, monkeypatch):
        splu = scipy.sparse.linalg.splu

        class Guarded:
            def __init__(self, lu):
                self._lu = lu

            U = _NoU.U

            def __getattr__(self, name):
                return getattr(self._lu, name)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda *a, **k: Guarded(splu(*a, **k)))
        for mu, c in ((4.0, 1.0), (-1.0, 1.5)):
            _, prob, hat = gen_example41(12, mu)
            for kind in ("nj", "ngs", SplittingKind("nsor", alpha=1.3)):
                report = nms_solve(prob, build_splitting(prob.A, kind), OmegaSpec.scaled(c, hat))
                assert report.converged

    def test_oracle_on_the_column_dominant_family(self, rng):
        # every pivot is diagonal (perm_r == perm_c) and at least the
        # smallest column margin, up to rounding: the paper's shifted
        # splittings at m = 24 and 100 in both orientations, and random ones
        cases = [case for m in (24, 100) for case in _paper_shifts(m)]
        cases = [(f"{name}{tag}", Y) for name, X in cases
                 for tag, Y in (("", X), (", transposed", X.transpose()))]
        for i in range(15):
            n = int(rng.integers(20, 300))
            X = _random_column_dominant(rng, n, float(rng.uniform(0.02, 0.2)), 10.0 ** -(i % 5))
            cases.append((f"random {i}, n = {n}", X))
        assert len(cases) == 287
        for name, X in cases:
            margin = _column_margins(X).min()
            assert margin > 0.0, name
            lu = lu_factorize(X.transpose())._splu  # SuperLU's factor of X
            np.testing.assert_array_equal(lu.perm_r, lu.perm_c, err_msg=name)
            assert np.abs(lu.U.diagonal()).min() >= margin * (1.0 - 1e-12), name


class TestLsqr:
    def test_identity_one_iteration(self):
        b = np.array([1.0, 2.0, -3.0])
        out = lsqr(identity(3), b, 0.0, 10)
        assert out.iterations == 1
        assert out.stop_reason == "target_met"
        np.testing.assert_allclose(out.x, b, atol=1e-14)

    def test_slack_target_accepts_zero_vector(self):
        b = np.array([3.0, 4.0])
        out = lsqr(identity(2), b, np.linalg.norm(b), 10)
        assert out.iterations == 0
        assert out.stop_reason == "target_met"
        np.testing.assert_array_equal(out.x, np.zeros(2))

    def test_matches_lu_solve(self, rng):
        A = random_dominant(rng, 50)
        b = rng.uniform(-1, 1, 50)
        direct = lu_factorize(A).solve(b)
        out = lsqr(A, b, 1e-10, 500)
        assert out.stop_reason == "target_met"
        np.testing.assert_allclose(out.x, direct, atol=1e-8)

    def test_zero_target_runs_to_stagnation(self, rng):
        A = random_dominant(rng, 40)
        b = rng.uniform(-1, 1, 40)
        out = lsqr(A, b, 0.0, 5 * 40)
        direct = lu_factorize(A).solve(b)
        assert out.stop_reason == "stagnation"
        np.testing.assert_allclose(out.x, direct, atol=1e-8)

    def test_residual_norm_is_recomputed(self, rng):
        A = random_dominant(rng, 25)
        b = rng.uniform(-1, 1, 25)
        out = lsqr(A, b, 1e-8, 200)
        actual = np.linalg.norm(spmv(A, out.x) - b)
        assert out.residual_norm == pytest.approx(actual, rel=1e-12)
        assert out.residual_norm <= 1e-8

    @pytest.mark.parametrize("max_iter", [2, 0], ids=["budget2", "budget0"])
    def test_max_iter_reported_not_raised(self, rng, max_iter):
        A = random_dominant(rng, 30)
        b = rng.uniform(-1, 1, 30)
        out = lsqr(A, b, 1e-14, max_iter)
        assert out.stop_reason == "max_iter"
        assert out.iterations == max_iter
        if max_iter == 0:
            np.testing.assert_array_equal(out.x, np.zeros(30))

    def test_rectangular_least_squares(self, rng):
        # inconsistent 60 x 25 system: the target lies below the least-squares
        # residual, so the solve must end at the minimizer and say it stalled
        A = random_sparse(rng, 60, 25, density=0.4)
        b = rng.uniform(-1, 1, 60)
        ref = np.linalg.lstsq(A.to_dense(), b, rcond=None)[0]
        floor = np.linalg.norm(A.to_dense() @ ref - b)
        out = lsqr(A, b, 0.5 * floor, 500)
        np.testing.assert_allclose(out.x, ref, rtol=0, atol=1e-8)
        assert out.stop_reason == "stagnation"
        assert out.residual_norm == np.linalg.norm(spmv(A, out.x) - b)

    def test_no_warm_start_costs_one_product(self, rng, monkeypatch):
        # a start from zero needs no product; only the true-residual recompute
        # remains beside the loop's one product with A per iteration
        A = random_dominant(rng, 20)
        b = rng.uniform(-1, 1, 20)
        b_before = b.copy()
        calls = count_products(monkeypatch)
        out = lsqr(A, b, 1e-10, 200)
        assert out.iterations > 0
        assert calls.count((A, False)) - out.iterations == 1
        assert not np.shares_memory(out.x, b)
        np.testing.assert_array_equal(b, b_before)

    def test_adjoint_on_cached_transpose_is_bit_identical(self, monkeypatch):
        # products on the cached forms, DIA here, against the CSR matrix and
        # scipy's CSC view of its transpose
        _, prob, hat = gen_example41(24, 4.0)
        s = build_splitting(prob.A, "ngs")
        x0 = np.zeros(prob.n)
        x0[0::2] = 1.0
        rhs = -residual(prob, x0)
        f_norm = np.linalg.norm(rhs)
        cases = [(0.5 * f_norm, 40), (1e-6 * f_norm, 200), (0.0, 60)]
        assert sparse_add(hat, s.M).product_forms()[1].format == "dia"
        assert sparse_add(hat, s.M).to_scipy().T.format == "csc"
        with monkeypatch.context() as mp:
            mp.setattr(SparseMatrix, "product_forms", lambda A: (A.to_scipy(), A.to_scipy().T))
            view = [lsqr(sparse_add(hat, s.M), rhs, t, k) for t, k in cases]
        cached = [lsqr(sparse_add(hat, s.M), rhs, t, k) for t, k in cases]
        for v, c in zip(view, cached):
            assert (c.x == v.x).all()
            assert c.iterations == v.iterations
            assert c.stop_reason == v.stop_reason
            assert c.residual_norm == v.residual_norm
        assert all(c.iterations > 0 for c in cached)  # the adjoint ran

    @staticmethod
    def _scipy_lsqr(A, rhs, target, max_iter):
        # the oracle: scipy's lsqr with lsqr()'s options and its outcome rules
        S, ST = A.to_scipy(), A.transpose().to_scipy()
        op = scipy.sparse.linalg.LinearOperator(
            S.shape, matvec=S.dot, rmatvec=ST.dot, dtype=float
        )
        x, istop, itn, r1norm = scipy.sparse.linalg.lsqr(
            op, rhs, atol=0, btol=target / np.linalg.norm(rhs), conlim=0,
            iter_lim=max_iter,
        )[:4]
        actual = float(np.linalg.norm(spmv(A, x) - rhs))
        reason = ("target_met" if actual <= target
                  else "max_iter" if istop == 7 else "stagnation")
        return x, itn, reason, actual, istop, r1norm

    def _case(self, rng, case):
        # lsqr's arguments for each case of the parity and product-count tests
        if case == "rectangular":  # the system of test_rectangular_least_squares
            A = random_sparse(rng, 60, 25, density=0.4)
            b = rng.uniform(-1, 1, 60)
            ref = np.linalg.lstsq(A.to_dense(), b, rcond=None)[0]
            target = 0.5 * np.linalg.norm(A.to_dense() @ ref - b)
            return (A, b, target, 500)
        if case == "identity":
            return (identity(3), np.array([1.0, 2.0, -3.0]), 0.0, 10)
        if case == "met-at-itn-1":  # that rectangular system, to a loose target
            A = random_sparse(rng, 60, 25, density=0.4)
            b = rng.uniform(-1, 1, 60)
            return (A, b, 0.9 * np.linalg.norm(b), 500)
        if case == "beta-zero":  # A v - alfa u cancels exactly at the second step
            return (diag_matrix([2.0, 3.0]), np.array([3.0, 2.0]), 0.0, 10)
        # example41 m = 24, ngs Omega+M with Omega = hatM, from the alt10 start
        scale, budget = {"half": (0.5, 40), "tight": (1e-6, 200),
                         "zero": (0.0, 60), "budget2": (1e-6, 2),
                         "met-at-budget": (1e-6, 17)}[case]
        _, prob, hat = gen_example41(24, 4.0)
        x0 = np.zeros(prob.n)
        x0[0::2] = 1.0
        rhs = -residual(prob, x0)
        OM = sparse_add(hat, build_splitting(prob.A, "ngs").M)
        return (OM, rhs, scale * np.linalg.norm(rhs), budget)

    CASES = [
        ("half", 1),
        ("tight", 1),
        ("zero", 4),
        ("budget2", 7),
        ("rectangular", 5),
        ("identity", 1),
        ("met-at-itn-1", 1),
        ("beta-zero", 1),
        ("met-at-budget", 1),
    ]

    @pytest.mark.parametrize("case, istop", CASES)
    def test_bitwise_equal_to_scipy_lsqr(self, rng, case, istop):
        args = self._case(rng, case)
        out = lsqr(*args)
        x, itn, reason, actual, scipy_istop, r1norm = self._scipy_lsqr(*args)
        assert (out.x == x).all()
        assert (out.iterations, out.stop_reason, out.residual_norm) == (itn, reason, actual)
        assert out.iterations > 0
        assert scipy_istop == istop  # the stop test each case reaches
        # where each new case ends: "tight" first meets its target at itn 17,
        # and scipy's residual estimate is 0 only after beta = 0
        ends = {"met-at-itn-1": 1, "beta-zero": 2, "met-at-budget": 17}
        if case in ends:
            assert itn == ends[case]
            assert (r1norm == 0.0) == (case == "beta-zero")

    @pytest.mark.parametrize("case, istop", CASES)
    def test_target_met_skips_the_last_adjoint_product(self, rng, monkeypatch, case, istop):
        # scipy's last iteration computes A.T u, which nothing reads once test 1
        # holds; a run that stops on another test makes every product scipy does
        args = self._case(rng, case)
        calls = count_products(monkeypatch)
        out = lsqr(*args)
        A = args[0]
        skipped = 1 if istop == 1 else 0
        assert calls.count((A, True)) == out.iterations + 1 - skipped
        assert calls.count((A, False)) == out.iterations + 1  # the loop's, the recompute
        assert len(calls) == 2 * out.iterations + 2 - skipped

    def test_nan_input_raises(self):
        b = np.array([np.nan, 1.0])
        with pytest.raises(NumericsError):
            lsqr(identity(2), b, 0.0, 5)

    def test_rejects_negative_target(self):
        with pytest.raises(ParameterError):
            lsqr(identity(2), np.ones(2), -1.0, 5)

    def test_rejects_nan_target_and_budget(self):
        # a NaN target used to run the whole budget and report max_iter
        with pytest.raises(ParameterError, match="target_residual"):
            lsqr(identity(2), np.ones(2), np.nan, 5)
        with pytest.raises(ParameterError, match="max_iter"):
            lsqr(identity(2), np.ones(2), 0.0, np.nan)


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(diag_matrix([1.0, -3.0, 2.0])) == pytest.approx(3.0, rel=1e-8)

    def test_identity(self):
        assert spectral_norm(identity(17)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(zeros(5)) == 0.0

    def test_matches_dense_svd(self, rng):
        for _ in range(15):
            A = random_sparse(rng, 30, 30, density=0.6)
            want = np.linalg.svd(A.to_dense(), compute_uv=False)[0]
            assert spectral_norm(A, rel_tol=1e-10) == pytest.approx(want, rel=1e-7)

    def test_dominates_rayleigh_quotients(self, rng):
        A = random_sparse(rng, 25, 25, density=0.5)
        s = spectral_norm(A, rel_tol=1e-10)
        for _ in range(20):
            x = rng.normal(size=25)
            x /= np.linalg.norm(x)
            assert np.linalg.norm(spmv(A, x)) <= s * (1 + 1e-6)

    def test_rank_one_with_null_start(self):
        # the alternating start vector is in the null space of this matrix
        A = from_dense(np.ones((2, 2)))
        assert spectral_norm(A) == pytest.approx(2.0, rel=1e-8)

    def test_single_column_above_cutoff(self):
        # A.T @ A is 1 x 1 here: the recurrence has no second step
        A = from_dense(np.full((600, 1), 0.5))
        assert spectral_norm(A) == pytest.approx(0.5 * np.sqrt(600), rel=1e-12)

    def test_budget_exhaustion_raises(self, monkeypatch):
        # the top pair inside a dense cluster
        A = diag_matrix(np.r_[1.0, np.linspace(0.999999, 0.0, 599)])
        monkeypatch.setattr(gavekit.linalg, "_MAX_STEPS", 20)
        with pytest.raises(ConvergenceFailure, match="in 20 Lanczos steps"):
            spectral_norm(A, rel_tol=1e-15)


def _operator_case(name):
    _, p, hat = gen_example41(24, 4.0)  # n = 576
    if name == "Omega+M":
        s = build_splitting(p.A, "ngs", OmegaSpec.scaled(1.0, hat))
        return sparse_add(s.omega, s.M)
    if name == "rectangular":
        return random_sparse(np.random.default_rng(7), 700, 300, density=0.02)
    return getattr(p, name)


@pytest.mark.parametrize("name", ["A", "B", "Omega+M", "rectangular"])
class TestSpectralNormOperator:
    """The explicit-transpose operator against products on scipy's transposed view."""

    def test_products_bit_identical(self, name):
        X = _operator_case(name)
        S = X.to_scipy()
        ST = S.T.tocsr()
        rng = np.random.default_rng(11)
        for _ in range(5):
            v = rng.standard_normal(X.n_cols)
            np.testing.assert_array_equal(ST @ (S @ v), S.T @ spmv(X, v))

    def test_estimate_bit_identical(self, name):
        X = _operator_case(name)
        S = X.to_scipy()
        want = _lanczos_top(
            lambda v: S.T @ spmv(X, v),
            X.n_cols,
            1e-10,
            "spectral_norm",
            np.sqrt,
        )
        assert spectral_norm(X, rel_tol=1e-10) == want


def _counting(apply):
    """``apply`` and a list whose one entry counts its applications."""
    count = [0]

    def counted(v):
        count[0] += 1
        return apply(v)

    return counted, count


class TestLanczosCadence:
    """Operator applications of the plain Lanczos recurrence, counted."""

    def test_identity_stops_at_the_first_test(self, monkeypatch):
        counts = []

        def counting_top(apply, *args):
            counted, count = _counting(apply)
            counts.append(count)
            return _lanczos_top(counted, *args)

        monkeypatch.setattr(gavekit.linalg, "_lanczos_top", counting_top)
        assert spectral_norm(identity(600)) == pytest.approx(1.0, rel=1e-15, abs=0)
        assert [c[0] for c in counts] == [1]

    def test_three_distinct_values_stop_one_interval_past_step_3(self):
        # a 3-dimensional Krylov space: beta_3 is rounding-sized, not 0, so
        # the recurrence runs on to the next test, at step 5
        d = np.repeat([1.0, 2.0, 3.0], 200)
        apply, count = _counting(lambda v: d * v)
        top = _lanczos_top(apply, d.size, 1e-8, "diagonal", float)
        assert top == pytest.approx(3.0, rel=1e-12)
        assert count[0] <= 6

    @pytest.mark.parametrize("budget", [1, 7, 13])
    def test_one_application_per_step(self, monkeypatch, budget):
        d = np.r_[1.0, np.linspace(0.999999, 0.0, 599)]
        apply, count = _counting(lambda v: d * v)
        monkeypatch.setattr(gavekit.linalg, "_MAX_STEPS", budget)
        with pytest.raises(ConvergenceFailure, match=f"in {budget} Lanczos steps"):
            _lanczos_top(apply, d.size, 1e-15, "diagonal", float)
        assert count[0] == budget

    def test_stops_only_at_a_test_step(self):
        # the test runs at steps 0, 5, 10, ..., after 1, 6, 11, ... applications
        d = np.linspace(1.0, 2.0, 600)
        apply, count = _counting(lambda v: d * v)
        assert _lanczos_top(apply, d.size, 1e-8, "diagonal", float) == pytest.approx(2.0, rel=1e-8)
        assert count[0] > 1
        assert count[0] % 5 == 1


class TestMinSingularValue:
    def test_diagonal(self):
        assert min_singular_value(diag_matrix([1.0, -3.0, 2.0])) == pytest.approx(1.0)

    def test_permutation(self):
        P = SparseMatrix.from_coo(3, 3, [0, 1, 2], [1, 2, 0], [1.0, 1.0, 1.0])
        assert min_singular_value(P) == pytest.approx(1.0)

    def test_dense_and_iterative_paths_agree(self, rng):
        A = random_dominant(rng, 100)
        dense = np.linalg.svd(A.to_dense(), compute_uv=False)[-1]
        assert min_singular_value(A) == pytest.approx(dense, rel=1e-6)

    def test_singular_raises(self):
        A = from_dense(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrixError):
            min_singular_value(A)

    def test_budget_exhaustion_raises(self, monkeypatch):
        # a cyclic shift times a diagonal: not symmetric, so the two-solve
        # path on (A.T A)^-1, with the diagonal's clustered singular values
        n = 600
        d = 1.0 / np.r_[1.0, np.linspace(0.999999, 0.5, n - 1)]
        A = SparseMatrix.from_coo(n, n, np.arange(n), (np.arange(n) + 1) % n, d)
        monkeypatch.setattr(gavekit.linalg, "_MAX_STEPS", 20)
        with pytest.raises(ConvergenceFailure, match="in 20 Lanczos steps"):
            min_singular_value(A, rel_tol=1e-15)

    def test_budget_exhaustion_on_the_shifted_path(self, monkeypatch):
        # symmetric positive definite, with the whole spectrum within the
        # shift's margin (1e-9 here) of lambda_min = lo: (A - s I)^-1 has a
        # dense cluster at its top
        A = diag_matrix(np.r_[1.0, 1.0 + np.linspace(1e-12, 1e-10, 599)])
        monkeypatch.setattr(gavekit.linalg, "_MAX_STEPS", 20)
        with pytest.raises(ConvergenceFailure, match="in 20 Lanczos steps"):
            min_singular_value(A, rel_tol=1e-15)

    def test_singular_symmetric_psd_above_cutoff_raises(self):
        # the path-graph Laplacian: Gershgorin lo = 0, so the shift is 0
        dense = tridiag(-1, 2, -1, 600).to_dense()
        dense[0, 0] = dense[-1, -1] = 1.0
        with pytest.raises(SingularMatrixError):
            min_singular_value(from_dense(dense))

    @pytest.mark.parametrize("d", [
        np.linspace(1.0, 2.0, 600),
        np.r_[3.0, np.linspace(5.0, 7.0, 599)],
        np.geomspace(1e-3, 1e3, 600),
    ])
    def test_lambda_min_at_the_gershgorin_bound(self, d):
        # lo == lambda_min exactly: the shift stays a margin below it, far
        # above the LU's pivot tolerance
        for rel_tol in (_NORM_RTOL, 1e-10):
            got = min_singular_value(diag_matrix(d), rel_tol=rel_tol)
            assert got == pytest.approx(d.min(), rel=rel_tol / 2)
            assert got >= d.min() * (1 - 1e-12)

    def test_consistent_with_lu_inverse_norm(self, rng):
        for _ in range(5):
            n = int(rng.integers(5, 50))
            A = random_dominant(rng, n)
            f = lu_factorize(A)
            inv = np.column_stack([f.solve(col) for col in np.eye(n)])
            inv_norm = spectral_norm(from_dense(inv), rel_tol=1e-10)
            assert min_singular_value(A) * inv_norm == pytest.approx(1.0, rel=1e-6)


def _old_gershgorin(H):
    """``_gershgorin`` with its radius taken from an assembled ``H - diag(H)``."""
    diag = H.diagonal()
    radius = abs(sparse_sub(H, diag_matrix(diag)).to_scipy()) @ np.ones(H.n_rows)
    hi, lo = float(np.max(diag + radius)), float(np.min(diag - radius))
    return lo, hi, 1e-9 * max(hi - lo, abs(hi), abs(lo)) + 1e-300


def test_gershgorin_is_the_assembled_formula_bit_for_bit(rng):
    cases = [X for _, X in _paper_shifts(6)]
    for n in (1, 5, 40, 200):
        X = random_dominant(rng, n)
        cases += [X, hermitian_split(X)[0], with_explicit_zeros(rng, X),
                  with_int64_indices(with_explicit_zeros(rng, X))]
    assert len(cases) == 84
    for X in cases:
        assert [v.hex() for v in _gershgorin(X)] == [v.hex() for v in _old_gershgorin(X)]


class TestSymmetricEigExtremes:
    def test_diagonal(self):
        lo, hi = symmetric_eig_extremes(diag_matrix([1.0, 2.0, 5.0]))
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(5.0))

    def test_identity(self):
        lo, hi = symmetric_eig_extremes(identity(8))
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [12, 40])
    def test_tridiagonal_formula(self, m):
        A = tridiag(-1, 4, -1, m)
        lo, hi = symmetric_eig_extremes(A)
        c = 2 * np.cos(np.pi / (m + 1))
        assert lo == pytest.approx(4 - c, rel=1e-10)
        assert hi == pytest.approx(4 + c, rel=1e-10)

    def test_iterative_path_matches_dense(self, rng):
        r = rng.uniform(-1, 1, (120, 120))
        dense = (r + r.T) / 2 + np.diag(rng.uniform(3, 6, 120))
        eigs = np.linalg.eigvalsh(dense)
        lo_d, hi_d = eigs[0], eigs[-1]
        lo_i, hi_i = symmetric_eig_extremes(from_dense(dense))
        assert lo_i == pytest.approx(lo_d, rel=1e-7)
        assert hi_i == pytest.approx(hi_d, rel=1e-7)

    def test_large_tridiagonal_uses_power_path(self):
        m = 600
        A = tridiag(-1, 4, -1, m)
        lo, hi = symmetric_eig_extremes(A)
        c = 2 * np.cos(np.pi / (m + 1))
        assert lo == pytest.approx(4 - c, rel=1e-6)
        assert hi == pytest.approx(4 + c, rel=1e-6)

    def test_rejects_asymmetric(self, rng):
        A = random_sparse(rng, 6, 6)
        with pytest.raises(ParameterError, match="symmetric"):
            symmetric_eig_extremes(A)

    @pytest.mark.parametrize("m", [600, 602])
    def test_large_tridiagonal_both_parities(self, m):
        A = tridiag(-1, 4, -1, m)
        lo, hi = symmetric_eig_extremes(A)
        c = 2 * np.cos(np.pi / (m + 1))
        assert lo == pytest.approx(4 - c, rel=1e-10)
        assert hi == pytest.approx(4 + c, rel=1e-10)


def test_top_ritz_pair_is_eigh_tridiagonals_bit_for_bit():
    rng = np.random.default_rng(3)
    cases = [(rng.standard_normal(n), rng.standard_normal(n - 1)) for n in range(1, 301)]
    split = rng.standard_normal(40), rng.standard_normal(39)
    split[1][17] = 0.0  # T splits into two blocks
    for alphas, betas in [*cases, split]:
        j = alphas.size - 1
        theta, s = _top_ritz_pair(alphas, betas)
        w, z = scipy.linalg.eigh_tridiagonal(alphas, betas, select="i", select_range=(j, j))
        assert theta == w[0] and s == z[-1, 0]


@functools.lru_cache(maxsize=None)
def _nj_example41(m, mu):
    """The symmetric matrices whose sigma_min certify estimates for nj (A and
    Omega+M with Omega = hatM and 1.5 hatM), each with its dense sigma_min."""
    _, p, hat = gen_example41(m, mu)
    mats = {"A": p.A}
    for scale in (1.0, 1.5):
        s = build_splitting(p.A, "nj", OmegaSpec.scaled(scale, hat))
        mats[f"Omega+M ({scale} hatM)"] = sparse_add(s.omega, s.M)
    return {name: (X, np.linalg.svd(X.to_dense(), compute_uv=False)[-1])
            for name, X in mats.items()}


def _two_solve_min_singular_value(X, rel_tol):
    """Lanczos on (X.T X)^-1 through SuperLU's factor of X, as for a
    nonsymmetric X: X.T's solve, then X's."""
    f = pinned_splu(X)
    return _lanczos_top(lambda v: f.solve(f.solve(v, trans="T")), X.n_rows, rel_tol,
                        "min_singular_value", lambda rho: 1.0 / np.sqrt(rho))


@pytest.mark.parametrize("mu", [4.0, -1.0])
@pytest.mark.parametrize("m", [24, 25])
class TestShiftedMinSingularValue:
    """sigma_min of a symmetric matrix with Gershgorin lo >= 0, at n = m^2."""

    @pytest.mark.parametrize("rel_tol", [_NORM_RTOL, 1e-10])
    def test_against_dense_svd(self, m, mu, rel_tol):
        for X, smin in _nj_example41(m, mu).values():
            got = min_singular_value(X, rel_tol=rel_tol)
            assert got == pytest.approx(smin, rel=rel_tol / 2)
            assert got >= smin * (1 - 1e-12)

    def test_one_solve_per_step(self, m, mu, monkeypatch):
        solves = count_calls(monkeypatch, gavekit.linalg.Factorization, ("solve",))
        applied = []

        def counting_top(apply, *args):
            counted, count = _counting(apply)
            applied.append(count)
            return _lanczos_top(counted, *args)

        monkeypatch.setattr(gavekit.linalg, "_lanczos_top", counting_top)
        for X, _ in _nj_example41(m, mu).values():
            solves.clear()
            applied.clear()
            min_singular_value(X, rel_tol=_NORM_RTOL)
            steps = applied[0][0]
            assert solves == {"solve": steps}
            assert steps <= 20


@pytest.mark.parametrize("m", [24, 25])
def test_indefinite_and_nonsymmetric_keep_the_two_solve_path(m):
    # at mu = -1, B = hatM - 2 I is symmetric with Gershgorin lo = -2, and
    # ngs Omega+M is not symmetric
    _, p, hat = gen_example41(m, -1.0)
    s = build_splitting(p.A, "ngs", OmegaSpec.scaled(1.0, hat))
    for X in (p.B, sparse_add(s.omega, s.M)):
        assert min_singular_value(X, rel_tol=_NORM_RTOL) == _two_solve_min_singular_value(
            X, _NORM_RTOL
        )


@functools.lru_cache(maxsize=None)
def _certified_example41(m, mu):
    """The matrices certify estimates for ngs with Omega = hatM, each with
    its dense singular values: name -> (matrix, singular values)."""
    _, p, hat = gen_example41(m, mu)
    s = build_splitting(p.A, "ngs", OmegaSpec.scaled(1.0, hat))
    mats = {"A": p.A, "B": p.B, "Omega+M": sparse_add(s.omega, s.M),
            "Omega+N": sparse_add(s.omega, s.N)}
    return {name: (X, np.linalg.svd(X.to_dense(), compute_uv=False))
            for name, X in mats.items()}


@pytest.mark.parametrize("mu", [4.0, -1.0])
@pytest.mark.parametrize("m", [24, 25, 30, 31, 40])
class TestEstimatorsOnExample41:
    """The estimators against dense oracles on the paper's matrices.

    At even m the grid Laplacian's smooth lowest mode is orthogonal to any
    alternating-sign vector, so a structured start vector misses it.
    """

    def test_min_singular_value(self, m, mu):
        A, svals = _certified_example41(m, mu)["A"]
        assert min_singular_value(A) == pytest.approx(svals[-1], rel=1e-8)

    def test_symmetric_eig_extremes(self, m, mu):
        H, _ = hermitian_split(gen_example41(m, mu)[1].A)
        eigs = np.linalg.eigvalsh(H.to_dense())
        lo, hi = symmetric_eig_extremes(H)
        assert lo == pytest.approx(eigs[0], rel=1e-8)
        assert hi == pytest.approx(eigs[-1], rel=1e-8)

    def test_spectral_norm(self, m, mu):
        for name in ("A", "B"):
            X, svals = _certified_example41(m, mu)[name]
            assert spectral_norm(X) == pytest.approx(svals[0], rel=1e-10)

    def test_shifted_splitting_at_certify_tolerance(self, m, mu):
        # the non-symmetric Omega+M and Omega+N, at the tolerance certify uses
        mats = _certified_example41(m, mu)
        for name in ("Omega+M", "Omega+N"):
            X, svals = mats[name]
            assert spectral_norm(X, rel_tol=_NORM_RTOL) == pytest.approx(svals[0], rel=1e-6)
        X, svals = mats["Omega+M"]
        assert min_singular_value(X, rel_tol=_NORM_RTOL) == pytest.approx(svals[-1], rel=1e-6)

    def test_errors_only_in_the_documented_direction(self, m, mu):
        # a Ritz value of a PSD operator never exceeds its top eigenvalue by
        # more than rounding: a norm is never above the dense value, and
        # sigma_min, the inverse of a norm, never below it
        for X, svals in _certified_example41(m, mu).values():
            assert spectral_norm(X, rel_tol=_NORM_RTOL) <= svals[0] * (1 + 1e-12)
            assert min_singular_value(X, rel_tol=_NORM_RTOL) >= svals[-1] * (1 - 1e-12)


@functools.lru_cache(maxsize=None)
def _small_order_case(case):
    """The matrices of one small-order oracle case, each with numpy's answers:
    a list of (X, singular values of X, eigenvalues of its symmetric part H,
    singular values of its antisymmetric part S, H, S)."""
    kind, size, *mu = case.split(":")
    if kind == "random":
        mats = [random_dominant(np.random.default_rng(int(size)), int(size))]
    else:
        _, p, hat = gen_example41(int(size), float(mu[0]))
        s = build_splitting(p.A, "ngs", OmegaSpec.scaled(1.0, hat))
        mats = [p.A, p.B, sparse_add(s.omega, s.M), sparse_add(s.omega, s.N)]
    out = []
    for X in mats:
        H, S = hermitian_split(X)
        out.append((X, np.linalg.svd(X.to_dense(), compute_uv=False),
                    np.linalg.eigvalsh(H.to_dense()),
                    np.linalg.svd(S.to_dense(), compute_uv=False), H, S))
    return out


_SMALL_ORDER_CASES = [f"random:{n}" for n in (1, 2, 3, 16, 100, 256, 484)] + [
    f"example41:{m}:{mu}" for m in range(2, 23) for mu in (4.0, -1.0)
]


@pytest.mark.parametrize("rel_tol", [None, _NORM_RTOL], ids=["default", "certify"])
@pytest.mark.parametrize("case", _SMALL_ORDER_CASES)
def test_small_orders_against_numpy(case, rel_tol):
    # orders 1 to 484 run the same Lanczos paths as the paper's sizes: every
    # estimate within rel_tol / 2 of numpy's, each on its documented side
    # (an eigenvalue relative to the largest modulus, as lambda_min may be 0)
    def tol(estimate):
        if rel_tol is not None:
            return {"rel_tol": rel_tol}, rel_tol
        return {}, inspect.signature(estimate).parameters["rel_tol"].default

    for X, svals, eigs, skew, H, S in _small_order_case(case):
        kw, t = tol(spectral_norm)
        got = spectral_norm(X, **kw)
        assert got == pytest.approx(svals[0], rel=t / 2)
        assert got <= svals[0] * (1 + 1e-13)

        kw, t = tol(min_singular_value)
        if svals[-1] <= 1e-14 * svals[0]:  # B = hatM - 2I at mu = -1, 3 | m + 1
            with pytest.raises(SingularMatrixError):
                min_singular_value(X, **kw)
        else:
            got = min_singular_value(X, **kw)
            assert got == pytest.approx(svals[-1], rel=t / 2)
            assert got >= svals[-1] * (1 - 1e-13)

        kw, t = tol(symmetric_eig_extremes)
        lo, hi = symmetric_eig_extremes(H, **kw)
        scale = np.abs(eigs).max()
        assert lo == pytest.approx(eigs[0], rel=0, abs=t / 2 * scale)
        assert hi == pytest.approx(eigs[-1], rel=0, abs=t / 2 * scale)

        # mu_max(S) of the antisymmetric part, the spectral norm certify takes
        kw, t = tol(spectral_norm)
        got = spectral_norm(S, **kw)
        assert got == pytest.approx(skew[0], rel=t / 2)
        assert got <= skew[0] * (1 + 1e-13)


@pytest.mark.parametrize("n", [0, 3])
def test_matrices_without_entries(n):
    # order 0 and an all-zero matrix: a norm of 0, a singular LU
    Z = zeros(n)
    assert spectral_norm(Z) == 0.0
    assert symmetric_eig_extremes(Z) == (0.0, 0.0)
    with pytest.raises(SingularMatrixError, match="singular"):
        min_singular_value(Z)
    with pytest.raises(SingularMatrixError, match="singular"):
        lu_factorize(Z)


@pytest.mark.parametrize("mu", [4.0, -1.0])
def test_estimators_match_closed_form_at_paper_size(mu):
    # A = hatM + (mu+1) I and B = hatM + (mu-1) I, with the spectrum of
    # hatM filling [4 - 4c, 4 + 4c], c = cos(pi / (m+1))
    m = 100
    p = gen_example41(m, mu)[1]
    c = 4.0 * np.cos(np.pi / (m + 1))
    eig_a = np.array([4.0 - c, 4.0 + c]) + mu + 1.0
    eig_b = eig_a - 2.0
    assert spectral_norm(p.A) == pytest.approx(np.abs(eig_a).max(), rel=1e-10)
    assert spectral_norm(p.B) == pytest.approx(np.abs(eig_b).max(), rel=1e-10)
    assert min_singular_value(p.A) == pytest.approx(np.abs(eig_a).min(), rel=1e-10)


def test_estimators_are_deterministic():
    A = gen_example41(30, -1.0)[1].A  # symmetric, n = 900
    for estimate in (
        lambda: spectral_norm(A),
        lambda: min_singular_value(A),
        lambda: symmetric_eig_extremes(A),
    ):
        assert estimate() == estimate()


class TestSkewSpectralRadius:
    """The spectral radius of an antisymmetric matrix, certify's mu_max(S),
    is its spectral norm."""

    def test_zero(self):
        assert spectral_norm(zeros(4)) == 0.0

    def test_rotation_generator(self):
        S = from_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert spectral_norm(S) == pytest.approx(1.0, rel=1e-10)

    def test_matches_dense_eig(self, rng):
        for _ in range(10):
            r = rng.uniform(-1, 1, (30, 30))
            S = from_dense((r - r.T) / 2)
            want = np.abs(np.linalg.eigvals(S.to_dense())).max()
            got = spectral_norm(S, rel_tol=1e-12)
            assert got == pytest.approx(want, rel=1e-8)


# each estimator by name; "skew_spectral_radius" is certify's mu_max(S),
# spectral_norm on an antisymmetric matrix
_ESTIMATORS = {
    "spectral_norm": spectral_norm,
    "min_singular_value": min_singular_value,
    "symmetric_eig_extremes": symmetric_eig_extremes,
    "skew_spectral_radius": spectral_norm,
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
# both sizes run the one estimator path; the ids name the sizes either side
# of the dense LAPACK branch that orders up to 500 once took
@pytest.mark.parametrize("n", [6, 600], ids=["dense", "lanczos"])
@pytest.mark.parametrize("name", [*_ESTIMATORS, "lu_factorize"])
def test_non_finite_entry_raises_numerics_error(name, n, bad):
    # a symmetric matrix with one non-finite diagonal entry; for the skew
    # radius, an antisymmetric one with a non-finite pair
    d = np.linspace(1.0, 2.0, n)
    d[1] = bad
    X = diag_matrix(d)
    if name == "skew_spectral_radius":
        X = SparseMatrix.from_coo(n, n, [0, 1], [1, 0], [bad, -bad])
    with pytest.raises(NumericsError, match="non-finite"):
        _ESTIMATORS.get(name, lu_factorize)(X)


@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["lu_factorize", "min_singular_value",
                                  "symmetric_eig_extremes", "spectral_norm"])
def test_non_finite_entry_on_or_off_the_diagonal_raises_numerics_error(name, bad, where):
    # tridiag(-1, 4, -1) with a non-finite (2, 2) entry or (1, 2), (2, 1)
    # pair; the pair's symmetry defect is 0 or NaN, which the symmetry check
    # passes, so each call reaches the sums and the products
    dense = tridiag(-1, 4, -1, 6).to_dense()
    if where == "diagonal":
        dense[2, 2] = bad
    else:
        dense[1, 2] = dense[2, 1] = bad
    with pytest.raises(NumericsError, match="non-finite"):
        {**_ESTIMATORS, "lu_factorize": lu_factorize}[name](from_dense(dense))


@pytest.mark.parametrize("rel_tol", [np.nan, np.inf, 0.0, -1e-8])
@pytest.mark.parametrize("name", _ESTIMATORS)
def test_rel_tol_must_be_finite_and_positive(name, rel_tol):
    # a NaN rel_tol would run the whole Lanczos step budget
    X = tridiag(-1, 4, -1, 6)
    if name == "skew_spectral_radius":
        X = SparseMatrix.from_coo(6, 6, [0, 1], [1, 0], [1.0, -1.0])
    with pytest.raises(ParameterError, match="^rel_tol must be finite and positive"):
        _ESTIMATORS[name](X, rel_tol=rel_tol)

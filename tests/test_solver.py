"""Outer iterations: residuals, schedules, exact and inexact solves."""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg

import gavekit.linalg
import gavekit.solver
from gavekit import (
    ConfigurationError,
    DivergenceError,
    GaveProblem,
    NumericsError,
    OmegaSpec,
    ParameterError,
    SingularMatrixError,
    SolverConfig,
    SparseMatrix,
    SplittingKind,
    ThetaSchedule,
    build_splitting,
    gen_example41,
    identity,
    inms_solve,
    lsqr,
    lu_factorize,
    nms_solve,
    residual,
    sparse_add,
    sparse_scale,
    spmv,
    theta_at,
    verify_inexact_condition,
    zeros,
)
from gavekit.solver import expand_x0

from conftest import count_products, random_dominant, random_sparse, with_explicit_zeros


def _random_problem(rng, n, b_scale=0.5, with_solution=False):
    """Dominant A, small B: the Picard iteration contracts."""
    A = random_dominant(rng, n, shift=6.0)
    B = sparse_scale(b_scale, random_sparse(rng, n, n))
    if with_solution:
        x_star = rng.uniform(-1, 1, n)
        b = spmv(A, x_star) - spmv(B, np.abs(x_star))
        return GaveProblem(A=A, B=B, b=b, known_solution=x_star)
    return GaveProblem(A=A, B=B, b=rng.uniform(-1, 1, n))


class TestResidual:
    def test_example41_known_solution(self):
        _, prob, _ = gen_example41(8, 4.0)
        r = residual(prob, prob.known_solution)
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(prob.b)

    def test_linear_system_reduction(self, rng):
        A = random_dominant(rng, 20)
        b = rng.uniform(-1, 1, 20)
        prob = GaveProblem(A=A, B=zeros(20), b=b)
        x = lu_factorize(A).solve(b)
        assert np.linalg.norm(residual(prob, x)) <= 1e-10

    def test_constructed_solution(self, rng):
        prob = _random_problem(rng, 15, with_solution=True)
        assert np.linalg.norm(residual(prob, prob.known_solution)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        prob = _random_problem(rng, 5)
        with pytest.raises(Exception):
            residual(prob, np.ones(6))


def _res(problem, x):
    """RES(x) = norm(F(x)) / norm(b), the solvers' stopping quantity."""
    return np.linalg.norm(residual(problem, x)) / np.linalg.norm(problem.b)


class TestRelativeRes:
    def test_solution_is_zero(self):
        _, prob, _ = gen_example41(5, 4.0)
        assert _res(prob, prob.known_solution) <= 1e-12

    def test_origin_gives_one(self, rng):
        prob = _random_problem(rng, 12)
        assert _res(prob, np.zeros(12)) == pytest.approx(1.0, abs=1e-15)

    def test_zero_b_rejected(self, rng):
        # RES is undefined for b = 0, so a solve refuses to start
        A = random_dominant(rng, 4)
        prob = GaveProblem(A=A, B=zeros(4), b=np.zeros(4))
        with pytest.raises(ParameterError, match="b is zero"):
            nms_solve(prob, build_splitting(A, "picard"))


class TestThetaSchedule:
    def test_paper_plateau(self):
        assert theta_at(ThetaSchedule.paper(10), 5) == 0.5

    def test_paper_decay(self):
        assert theta_at(ThetaSchedule.paper(10), 13) == pytest.approx(1.0 / 3.0)

    def test_constant_zero(self):
        sched = ThetaSchedule.constant(0.0)
        assert all(theta_at(sched, k) == 0.0 for k in range(20))

    def test_validation(self):
        with pytest.raises(ParameterError):
            ThetaSchedule.constant(1.0)
        with pytest.raises(ParameterError):
            theta_at(ThetaSchedule.paper(), -1)


class TestExpandX0:
    def test_alt10(self):
        np.testing.assert_array_equal(expand_x0("alt10", 5), [1.0, 0.0, 1.0, 0.0, 1.0])

    def test_unknown_token(self):
        with pytest.raises(ConfigurationError):
            expand_x0("nope", 4)


class TestNmsSolve:
    def test_fixed_point_start(self):
        _, prob, hat = gen_example41(6, 4.0)
        s = build_splitting(prob.A, "nj")
        config = SolverConfig(x0=prob.known_solution)
        report = nms_solve(prob, s, OmegaSpec.scaled(1.0, hat), config)
        assert report.converged and report.iterations == 0

    def test_one_step_keeps_fixed_point(self, rng):
        # F(x) = 0 implies the exact step maps x to itself
        prob = _random_problem(rng, 20, with_solution=True)
        for kind in ("picard", "nj", "ngs"):
            s = build_splitting(prob.A, kind)
            config = SolverConfig(x0=prob.known_solution, k_max=1, tol=1e-300)
            report = nms_solve(prob, s, None, config)
            assert np.linalg.norm(report.x - prob.known_solution) <= 1e-10

    def test_report_invariants(self, rng):
        prob = _random_problem(rng, 30)
        s = build_splitting(prob.A, "ngs")
        report = nms_solve(prob, s)
        assert report.converged
        assert report.final_res <= 1e-6
        assert len(report.res_history) == report.iterations + 1
        assert report.final_res == pytest.approx(_res(prob, report.x), rel=1e-12)
        assert report.res_history[0] == pytest.approx(
            _res(prob, expand_x0("alt10", 30)), rel=1e-12
        )

    def test_non_convergence_flagged_not_raised(self, rng):
        # B with norm just above 1 stalls Picard but does not blow it up
        A = identity(8)
        B = sparse_scale(1.05, identity(8))
        prob = GaveProblem(A=A, B=B, b=np.full(8, -1.0))
        s = build_splitting(A, "picard")
        report = nms_solve(prob, s, None, SolverConfig(k_max=40))
        assert not report.converged and report.iterations == 40

    def test_divergence_guard(self):
        A = identity(6)
        B = sparse_scale(3.0, identity(6))
        prob = GaveProblem(A=A, B=B, b=np.ones(6))
        s = build_splitting(A, "picard")
        with pytest.raises(DivergenceError):
            nms_solve(prob, s)

    def test_non_finite_start_raises(self, rng):
        prob = _random_problem(rng, 10)
        s = build_splitting(prob.A, "nj")
        x0 = np.ones(10)
        x0[3] = np.nan
        with pytest.raises(NumericsError):
            nms_solve(prob, s, None, SolverConfig(x0=x0))

    def test_singular_shifted_matrix(self):
        A = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        prob = GaveProblem(A=A, B=zeros(2), b=np.ones(2))
        s = build_splitting(A, "nj")  # M = diag(A) has no entries
        with pytest.raises(SingularMatrixError):
            nms_solve(prob, s)

    def test_requires_direct_inner(self, rng):
        prob = _random_problem(rng, 6)
        s = build_splitting(prob.A, "nj")
        with pytest.raises(ConfigurationError):
            nms_solve(prob, s, None, SolverConfig(inner="lsqr"))


@pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan])
def test_tol_must_be_positive(tol):
    # tol <= 0 let NaN through; the solve then stopped at IT 0, unconverged
    with pytest.raises(ParameterError, match="tol"):
        SolverConfig(tol=tol)


@pytest.mark.parametrize("key", ["k_max", "max_inner"])
def test_nan_budget_rejected(key):
    # k_max < 1 and max_inner < 1 let NaN through
    with pytest.raises(ParameterError, match=key):
        SolverConfig(inner="lsqr", **{key: np.nan})


def test_theta_at_rejects_nan_step():
    with pytest.raises(ParameterError, match="step index"):
        theta_at(ThetaSchedule.paper(), np.nan)


@pytest.mark.parametrize("max_inner", [0, -1])
def test_max_inner_below_one_rejected(max_inner):
    # 0 used to run every outer step without progress; -1 failed only in lsqr
    with pytest.raises(ParameterError, match="max_inner"):
        SolverConfig(inner="lsqr", max_inner=max_inner)


class TestInmsSolve:
    def test_matches_exact_with_zero_theta(self, rng):
        for _ in range(5):
            prob = _random_problem(rng, 40)
            s = build_splitting(prob.A, "nj")
            n = prob.n
            exact = nms_solve(prob, s)
            inexact = inms_solve(
                prob,
                s,
                None,
                SolverConfig(
                    inner="lsqr", theta=ThetaSchedule.constant(0.0), max_inner=5 * n
                ),
            )
            assert abs(exact.iterations - inexact.iterations) <= 1
            assert np.linalg.norm(exact.x - inexact.x) <= 1e-6

    def test_fixed_point_start(self):
        _, prob, hat = gen_example41(6, 4.0)
        s = build_splitting(prob.A, "nj")
        config = SolverConfig(inner="lsqr", x0=prob.known_solution)
        report = inms_solve(prob, s, OmegaSpec.scaled(1.0, hat), config)
        assert report.converged and report.iterations == 0

    def test_inner_iteration_bookkeeping(self, rng):
        prob = _random_problem(rng, 25)
        s = build_splitting(prob.A, "ngs")
        report = inms_solve(prob, s, None, SolverConfig(inner="lsqr"))
        assert report.converged
        assert report.inner_iters.shape == (report.iterations,)
        assert np.all(report.inner_iters >= 0)

    def test_max_inner_exhaustion_warns(self, rng):
        prob = _random_problem(rng, 30)
        s = build_splitting(prob.A, "nj")
        config = SolverConfig(
            inner="lsqr", theta=ThetaSchedule.constant(0.0), max_inner=1, k_max=3
        )
        report = inms_solve(prob, s, None, config)
        assert any("max_iter" in w for w in report.warnings)

    def test_non_finite_start_raises(self, rng):
        prob = _random_problem(rng, 10)
        s = build_splitting(prob.A, "nj")
        x0 = np.ones(10)
        x0[3] = np.nan
        with pytest.raises(NumericsError):
            inms_solve(prob, s, None, SolverConfig(inner="lsqr", x0=x0))

    def test_requires_lsqr_inner(self, rng):
        prob = _random_problem(rng, 6)
        s = build_splitting(prob.A, "nj")
        with pytest.raises(ConfigurationError):
            inms_solve(prob, s, None, SolverConfig(inner="direct"))

    @pytest.mark.parametrize(
        "method, inner",
        [
            (
                "nj",
                [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1],
            ),
            ("ngs", [1, 1, 2, 1, 1, 1, 2, 2, 1, 1, 2, 1, 1, 2, 2, 3, 2]),
        ],
    )
    def test_inner_iterations_pinned(self, method, inner):
        # per-step LSQR counts on example41 m = 30, mu = 4, Omega = hatM
        _, prob, hat = gen_example41(30, 4.0)
        s = build_splitting(prob.A, method)
        report = inms_solve(
            prob, s, OmegaSpec.scaled(1.0, hat), SolverConfig(inner="lsqr")
        )
        assert report.converged
        assert report.iterations == len(inner)
        assert report.inner_iters.tolist() == inner


@pytest.mark.parametrize("solve, inner", [(nms_solve, "direct"), (inms_solve, "lsqr")])
def test_picard_rejects_nonzero_omega(rng, solve, inner):
    prob = _random_problem(rng, 6)
    s = build_splitting(prob.A, "picard")
    with pytest.raises(ConfigurationError):
        solve(prob, s, OmegaSpec.scalar(1.0), SolverConfig(inner=inner))


@pytest.mark.parametrize("solve, inner", [(nms_solve, "direct"), (inms_solve, "lsqr")])
@pytest.mark.parametrize("kind", ["picard", SplittingKind("drs", gamma=1.2)], ids=["picard", "drs"])
def test_zero_shift_is_the_pinned_shift(rng, solve, inner, kind):
    # the solvers and build_splitting share one rule: zero is allowed
    prob = _random_problem(rng, 8)
    s = build_splitting(prob.A, kind)
    want = solve(prob, s, None, SolverConfig(inner=inner))
    for zero in (OmegaSpec.zero(), OmegaSpec.scalar(0.0), zeros(8)):
        got = solve(prob, s, zero, SolverConfig(inner=inner))
        assert got.iterations == want.iterations
        assert got.final_res == want.final_res
        np.testing.assert_array_equal(got.x, want.x)


@pytest.mark.parametrize("solve, inner", [(nms_solve, "direct"), (inms_solve, "lsqr")])
def test_nmn_rejects_any_supplied_shift(rng, solve, inner):
    prob = _random_problem(rng, 6)
    s = build_splitting(prob.A, "nmn", OmegaSpec.scalar(1.0))
    with pytest.raises(ConfigurationError):
        solve(prob, s, OmegaSpec.zero(), SolverConfig(inner=inner))


def test_splitting_runs_with_the_shift_it_was_built_with():
    # a shift given to build_splitting and the same shift given to the solver
    # are one iteration
    _, prob, hat = gen_example41(8, 4.0)
    om = OmegaSpec.scaled(1.0, hat)
    built = build_splitting(prob.A, "ngs", om)
    plain = build_splitting(prob.A, "ngs")
    for solve, inner in ((nms_solve, "direct"), (inms_solve, "lsqr")):
        got = solve(prob, built, config=SolverConfig(inner=inner))
        want = solve(prob, plain, om, SolverConfig(inner=inner))
        assert got.iterations == want.iterations
        assert got.final_res == want.final_res
        np.testing.assert_array_equal(got.x, want.x)
    # one inexact step has ||(Omega+M) x_1 - c_0|| / ||F(x_0)|| = 0.379 with
    # Omega = hatM (0.310 with Omega = 0): thetas on both sides of it
    x_prev = expand_x0("alt10", prob.n)
    config = SolverConfig(
        inner="lsqr", theta=ThetaSchedule.constant(0.5), x0=x_prev, k_max=1, tol=1e-300
    )
    x_next = inms_solve(prob, plain, om, config).x
    f_norm = np.linalg.norm(residual(prob, x_prev))
    thetas = (0.3, 0.35, 0.4)
    got = [verify_inexact_condition(prob, built, None, x_prev, x_next, t, f_norm)
           for t in thetas]
    want = [verify_inexact_condition(prob, plain, om, x_prev, x_next, t, f_norm)
            for t in thetas]
    assert got == want == [False, False, True]


def _paper_step_cases(rng):
    """(problem, splitting, omega, x0) for every kind, on two problems."""
    rand = _random_problem(rng, 12)
    _, ex41, hat = gen_example41(6, 4.0)
    x_alt = expand_x0("alt10", ex41.n)
    cases = []
    for prob, om, x0 in (
        (rand, OmegaSpec.scalar(2.0), rng.uniform(-1, 1, rand.n)),
        (ex41, OmegaSpec.scaled(1.0, hat), x_alt),
    ):
        for kind in (
            SplittingKind("picard"),
            SplittingKind("mn"),
            SplittingKind("nj"),
            SplittingKind("ngs"),
            SplittingKind("nsor", alpha=0.9),
            SplittingKind("naor", alpha=1.1, beta=0.7),
            SplittingKind("hss"),
            SplittingKind("nmn"),
            SplittingKind("drs", gamma=1.0),
        ):
            if kind.name in ("picard", "drs"):
                cases.append((prob, build_splitting(prob.A, kind), None, x0))
            elif kind.name == "nmn":
                cases.append((prob, build_splitting(prob.A, kind, om), None, x0))
            else:
                cases.append((prob, build_splitting(prob.A, kind), om, x0))
    return cases


class TestCorrectionForm:
    """The solvers' step x - (Omega+M)^-1 F(x) is the paper's step."""

    @pytest.mark.parametrize("inner", ["direct", "lsqr"])
    def test_one_step_is_the_papers_step(self, rng, inner):
        cases = _paper_step_cases(rng)
        assert len({c[1].kind.name for c in cases}) == 9
        for prob, s, om, x0 in cases:
            omega = s.shift(om).to_dense()
            OM = omega + s.M.to_dense()
            ON = omega + s.N.to_dense()
            c = ON @ x0 + prob.B.to_dense() @ np.abs(x0) + prob.b
            want = np.linalg.solve(OM, c)
            config = SolverConfig(
                inner=inner,
                theta=ThetaSchedule.constant(0.0),
                max_inner=prob.n,
                x0=x0,
                k_max=1,
                tol=1e-300,
            )
            solve = nms_solve if inner == "direct" else inms_solve
            got = solve(prob, s, om, config).x
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-12, (s.kind, prob.n, err)

    def test_assembles_only_omega_plus_m(self, monkeypatch):
        _, prob, hat = gen_example41(6, 4.0)
        s = build_splitting(prob.A, "ngs")
        calls = []

        def counting_add(X, Y):
            calls.append((X, Y))
            return sparse_add(X, Y)

        monkeypatch.setattr(gavekit.solver, "sparse_add", counting_add)
        om = OmegaSpec.scaled(1.0, hat)
        for solve, inner in ((nms_solve, "direct"), (inms_solve, "lsqr")):
            calls.clear()
            assert solve(prob, s, om, SolverConfig(inner=inner)).converged
            assert len(calls) == 1  # Omega+M; no Omega+N
            assert calls[0][1] is s.M

    def test_exact_step_costs_two_products(self, monkeypatch):
        # only F(x_k) = A x_k - B|x_k| - b, once per step and once at x_0,
        # counted on the product forms and on spmv alike
        _, prob, hat = gen_example41(8, 4.0)
        s = build_splitting(prob.A, "ngs")
        calls = count_products(monkeypatch)

        def counting_spmv(A, x):
            calls.append(A)
            return spmv(A, x)

        monkeypatch.setattr(gavekit.solver, "spmv", counting_spmv)
        report = nms_solve(prob, s, OmegaSpec.scaled(1.0, hat))
        assert report.converged and report.iterations > 1
        assert len(calls) == 2 * (report.iterations + 1)

    def test_inexact_step_products(self, monkeypatch):
        # F(x_k) costs one product with A and one with B per step and at x_0;
        # a step of i_k LSQR iterations that meets its target costs Omega+M
        # i_k + 1 products (i_k in the loop, one residual recompute) and its
        # transpose i_k (one to start, i_k - 1 in the loop)
        _, prob, hat = gen_example41(8, 4.0)
        s = build_splitting(prob.A, "ngs")
        calls = count_products(monkeypatch)

        def counting_spmv(A, x):
            calls.append(A)
            return spmv(A, x)

        monkeypatch.setattr(gavekit.solver, "spmv", counting_spmv)
        report = inms_solve(prob, s, OmegaSpec.scaled(1.0, hat))
        assert report.converged and report.iterations > 1
        assert not report.warnings  # every inner solve met its target
        inner = report.inner_iters
        assert len(inner) == report.iterations and inner.min() > 0
        steps = Counter(calls)
        it = report.iterations
        assert steps.pop((prob.A, False)) == steps.pop((prob.B, False)) == it + 1
        (om,) = {matrix for matrix, _ in steps}  # Omega+M alone is left; no spmv
        assert steps == {(om, False): int(inner.sum()) + it, (om, True): int(inner.sum())}


def _bits(y):
    return y.view(np.uint64)


class TestTransposedFactor:
    def test_factors_the_transpose_and_every_step_solves_with_it(self, monkeypatch):
        _, prob, hat = gen_example41(8, -1.0)
        s = build_splitting(prob.A, "ngs")
        om = OmegaSpec.scaled(1.5, hat)
        factored, solves = [], []

        class Spy:
            def __init__(self, factor):
                self.factor = factor

            def solve(self, rhs, transpose=False):
                solves.append(transpose)
                return self.factor.solve(rhs, transpose=transpose)

        def spy_factorize(X, **kwargs):
            factored.append((X, kwargs))
            return Spy(lu_factorize(X, **kwargs))

        monkeypatch.setattr(gavekit.solver, "lu_factorize", spy_factorize)
        report = nms_solve(prob, s, om)
        assert report.converged and report.iterations > 1
        # Omega + M itself, factored as its transpose from its own arrays
        [(X, kwargs)] = factored
        np.testing.assert_array_equal(X.to_dense(), sparse_add(s.shift(om), s.M).to_dense())
        assert kwargs == {"_transpose": True}
        assert solves == [True] * report.iterations

    def test_factor_of_the_csc_view_is_the_factor_of_the_transpose(self, monkeypatch):
        # a built transpose against the CSC view of OM's own arrays: the
        # same norm, the same margins and the same factor, bit for bit
        _, prob, hat = gen_example41(12, -1.0)
        seen = []

        def recording(lu, abs_a, norm_inf):
            n = abs_a.shape[0]
            seen.append((norm_inf, 2.0 * abs_a.diagonal() - abs_a.T @ np.ones(n)))
            return check(lu, abs_a, norm_inf)

        def recording_splu(csc, **kwargs):
            handed.append(csc)
            return splu(csc, **kwargs)

        check, splu, handed = gavekit.linalg._check_pivots, scipy.sparse.linalg.splu, []
        monkeypatch.setattr(gavekit.linalg, "_check_pivots", recording)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
        rng = np.random.default_rng(5)
        for OM in (sparse_add(sparse_scale(1.5, hat), build_splitting(prob.A, "ngs").M),
                   random_dominant(rng, 40), with_explicit_zeros(rng, random_dominant(rng, 40))):
            seen.clear()
            old = lu_factorize(OM.transpose())
            new = lu_factorize(OM, _transpose=True)
            (norm_old, margins_old), (norm_new, margins_new) = seen
            # SuperLU read OM's own arrays: no transpose was built
            view = handed.pop()
            assert view.format == "csc"
            for arr, of_om in ((view.indptr, OM.row_ptr), (view.indices, OM.col_idx),
                               (view.data, OM.values)):
                assert np.shares_memory(arr, of_om)
            # the reference: the norm and margins as computed on a CSR |OM.T|
            abs_t, ones = abs(OM.transpose().to_scipy()), np.ones(OM.n_rows)
            assert norm_old == norm_new == (abs_t @ ones).max()
            np.testing.assert_array_equal(_bits(margins_new), _bits(margins_old))
            want = 2.0 * abs_t.diagonal() - abs_t.T @ ones
            np.testing.assert_array_equal(_bits(margins_new), _bits(want))
            assert old.nnz == new.nnz
            rhs = rng.uniform(-1, 1, OM.n_rows)
            for transpose in (False, True):
                np.testing.assert_array_equal(
                    _bits(new.solve(rhs, transpose)), _bits(old.solve(rhs, transpose))
                )


def _old_residual(problem, x):
    """F(x) as one expression, with its temporaries."""
    return problem.A.product_forms()[0] @ x - problem.B.product_forms()[0] @ np.abs(x) - problem.b


def _bitwise_cases(rng):
    """(problem, splitting, omega): example41 m = 24 at both mu, and a random problem."""
    cases = []
    for mu, c in ((4.0, 1.0), (-1.0, 1.5)):
        _, prob, hat = gen_example41(24, mu)
        cases.append((prob, build_splitting(prob.A, "ngs"), OmegaSpec.scaled(c, hat)))
    rand = _random_problem(rng, 40)
    cases.append((rand, build_splitting(rand.A, "nj"), OmegaSpec.scalar(2.0)))
    return cases


class TestInPlaceArithmetic:
    """F(x) and the steps update in place, bit for bit the old expressions."""

    def test_residual_is_the_old_expression(self, rng):
        for prob, _, _ in _bitwise_cases(rng):
            for x in (expand_x0("alt10", prob.n), rng.uniform(-1, 1, prob.n)):
                assert np.array_equal(residual(prob, x), _old_residual(prob, x))

    @pytest.mark.parametrize("inner", ["direct", "lsqr"])
    def test_steps_are_the_old_expressions(self, rng, inner):
        for prob, s, om in _bitwise_cases(rng):
            config = SolverConfig(inner=inner, k_max=6, tol=1e-300)
            report = (nms_solve if inner == "direct" else inms_solve)(prob, s, om, config)
            OM = sparse_add(s.shift(om), s.M)
            factor = lu_factorize(OM.transpose())
            max_inner = int(np.ceil(10.0 * np.sqrt(prob.n)))
            x = expand_x0("alt10", prob.n)
            F = _old_residual(prob, x)
            history = [np.linalg.norm(F) / np.linalg.norm(prob.b)]
            for k in range(6):
                if inner == "direct":
                    x = x - factor.solve(F, transpose=True)
                else:
                    target = theta_at(config.theta, k) * float(np.linalg.norm(F))
                    x = x + lsqr(OM, -F, target, max_inner).x
                F = _old_residual(prob, x)
                history.append(np.linalg.norm(F) / np.linalg.norm(prob.b))
            assert report.iterations == 6
            assert np.array_equal(report.x, x)
            assert np.array_equal(report.res_history, history)


class TestVerifyInexactCondition:
    def test_exact_step_passes_for_positive_theta(self, rng):
        # the LU residual is far below theta * ||F||, down to tiny theta
        prob = _random_problem(rng, 20)
        s = build_splitting(prob.A, "ngs")
        x_prev = expand_x0("alt10", 20)
        report = nms_solve(prob, s, None, SolverConfig(x0=x_prev, k_max=1, tol=1e-300))
        f_norm = np.linalg.norm(residual(prob, x_prev))
        for theta in (1e-12, 0.1, 0.5):
            assert verify_inexact_condition(
                prob, s, None, x_prev, report.x, theta, f_norm
            )

    def test_accepted_steps_pass_and_theta_is_monotone(self, rng):
        prob = _random_problem(rng, 30)
        s = build_splitting(prob.A, "nj")
        theta = 0.3
        x_prev = expand_x0("alt10", 30)
        for _ in range(6):
            f_norm = np.linalg.norm(residual(prob, x_prev))
            if f_norm / np.linalg.norm(prob.b) <= 1e-6:
                break
            config = SolverConfig(
                inner="lsqr",
                theta=ThetaSchedule.constant(theta),
                x0=x_prev,
                k_max=1,
                tol=1e-300,
            )
            report = inms_solve(prob, s, None, config)
            assert verify_inexact_condition(
                prob, s, None, x_prev, report.x, theta, f_norm
            )
            # slackening theta never invalidates an accepted step
            assert verify_inexact_condition(
                prob, s, None, x_prev, report.x, 0.9, f_norm
            )
            x_prev = report.x

    def test_perturbed_step_fails(self, rng):
        prob = _random_problem(rng, 15)
        s = build_splitting(prob.A, "nj")
        x_prev = expand_x0("alt10", 15)
        f_norm = np.linalg.norm(residual(prob, x_prev))
        bogus = x_prev + 100.0
        assert not verify_inexact_condition(
            prob, s, None, x_prev, bogus, 0.5, f_norm
        )


class TestSingleStepEquivalences:
    """One exact step against the dense closed forms of the special cases."""

    def _setup(self, rng, n):
        A = random_dominant(rng, n, shift=5.0)
        B = sparse_scale(0.4, random_sparse(rng, n, n))
        b = rng.uniform(-1, 1, n)
        x0 = rng.uniform(-1, 1, n)
        prob = GaveProblem(A=A, B=B, b=b)
        return prob, A.to_dense(), B.to_dense(), b, x0

    def _one_step(self, prob, splitting, omega, x0):
        config = SolverConfig(x0=x0, k_max=1, tol=1e-300)
        return nms_solve(prob, splitting, omega, config).x

    def test_picard_form(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 16))
            prob, Ad, Bd, b, x0 = self._setup(rng, n)
            got = self._one_step(prob, build_splitting(prob.A, "picard"), None, x0)
            want = np.linalg.solve(Ad, Bd @ np.abs(x0) + b)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_mn_form(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 16))
            prob, Ad, Bd, b, x0 = self._setup(rng, n)
            w = float(rng.uniform(0.5, 3.0))
            got = self._one_step(
                prob, build_splitting(prob.A, "mn"), OmegaSpec.scalar(w), x0
            )
            want = np.linalg.solve(
                w * np.eye(n) + Ad, w * x0 + Bd @ np.abs(x0) + b
            )
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_nmn_form(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 16))
            prob, Ad, Bd, b, x0 = self._setup(rng, n)
            w = float(rng.uniform(0.5, 3.0))
            om = OmegaSpec.scalar(w)
            got = self._one_step(prob, build_splitting(prob.A, "nmn", om), None, x0)
            omega = w * np.eye(n)
            want = np.linalg.solve(
                omega + Ad, (omega - Ad) @ x0 + 2.0 * (Bd @ np.abs(x0) + b)
            )
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_drs_form(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 16))
            A = random_dominant(rng, n, shift=5.0)
            b = rng.uniform(-1, 1, n)
            x0 = rng.uniform(-1, 1, n)
            prob = GaveProblem(A=A, B=identity(n), b=b)
            gamma = float(rng.uniform(0.1, 1.9))
            got = self._one_step(
                prob, build_splitting(A, SplittingKind("drs", gamma=gamma)), None, x0
            )
            want = (1 - gamma / 2) * x0 + (gamma / 2) * np.linalg.solve(
                A.to_dense(), np.abs(x0) + b
            )
            np.testing.assert_allclose(got, want, atol=1e-10)

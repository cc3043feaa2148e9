"""Problem generators, the LCP reduction, and directory serialization."""

import pathlib

import numpy as np
import pytest

import gavekit.problems
from gavekit import (
    Condition,
    GaveProblem,
    LcpInstance,
    NumericsError,
    ParameterError,
    SparseMatrix,
    build_splitting,
    evaluate,
    gen_certified,
    gen_example41,
    identity,
    load_problem,
    min_singular_value,
    nms_solve,
    residual,
    save_problem,
    spectral_norm,
    spmv,
    zeros,
)
from gavekit.problems import build_hat_m, check_grid_size, lcp_to_gave

from conftest import from_dense


def _dense_hat_m(m):
    """hatM from its definition: tridiag(-1, 4, -1) diagonal blocks, -I off the diagonal."""
    T = 4.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    return np.kron(np.eye(m), T) - np.kron(np.eye(m, k=1) + np.eye(m, k=-1), np.eye(m))


class TestBlockMatrix:
    def test_m2_hand_assembly(self):
        _, _, hat = gen_example41(2, 0.0)
        want = np.array(
            [
                [4.0, -1.0, -1.0, 0.0],
                [-1.0, 4.0, 0.0, -1.0],
                [-1.0, 0.0, 4.0, -1.0],
                [0.0, -1.0, -1.0, 4.0],
            ]
        )
        np.testing.assert_array_equal(hat.to_dense(), want)

    def test_structure(self):
        m = 7
        _, _, hat = gen_example41(m, 4.0)
        dense = hat.to_dense()
        np.testing.assert_array_equal(dense, dense.T)
        assert dense.sum(axis=1).min() >= 0.0
        rows, cols, _ = hat.coo_arrays()
        offsets = np.unique(np.abs(rows - cols))
        np.testing.assert_array_equal(offsets, [0, 1, m])

    def test_interior_row_dominance_margin(self):
        m, mu = 6, 4.0
        lcp, _, _ = gen_example41(m, mu)
        dense = lcp.M.to_dense()
        interior = m * (m // 2) + m // 2  # a row with all four neighbors
        row = dense[interior]
        assert row[interior] - np.abs(np.delete(row, interior)).sum() == pytest.approx(mu)

    def test_m_too_small(self):
        with pytest.raises(ParameterError):
            gen_example41(1, 4.0)

    @pytest.mark.parametrize("m", [2, 3, 7, 24])
    def test_csr_arrays_match_the_dense_definition(self, m):
        got = build_hat_m(m).to_scipy()
        want = from_dense(_dense_hat_m(m)).to_scipy()
        assert got.has_canonical_format
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestExample41:
    @pytest.mark.parametrize("m,mu", [(2, 4.0), (5, 4.0), (9, -1.0), (4, 0.5)])
    def test_known_solution_residual(self, m, mu):
        _, prob, _ = gen_example41(m, mu)
        np.testing.assert_array_equal(prob.known_solution, np.full(m * m, -0.6))
        defect = np.linalg.norm(residual(prob, prob.known_solution))
        assert defect <= 1e-12 * np.linalg.norm(prob.b)

    def test_reduction_matrices(self):
        lcp, prob, hat = gen_example41(3, 4.0)
        n = 9
        np.testing.assert_array_equal(
            prob.A.to_dense(), lcp.M.to_dense() + np.eye(n)
        )
        np.testing.assert_array_equal(
            prob.B.to_dense(), lcp.M.to_dense() - np.eye(n)
        )
        np.testing.assert_array_equal(prob.b, lcp.q)

    def test_lcp_solution_is_valid(self):
        lcp, _, _ = gen_example41(6, 4.0)
        z = lcp.known_solution
        w = spmv(lcp.M, z) + lcp.q
        assert z.min() >= 0.0
        assert w.min() >= -1e-10
        assert abs(z @ w) <= 1e-10 * z.size

    def test_nan_grid_size_rejected(self):
        with pytest.raises(ParameterError, match="m must be at least 2"):
            check_grid_size(np.nan)

    def test_one_gave_problem_is_built(self, monkeypatch):
        built = []
        post_init = GaveProblem.__post_init__

        def spy(problem):
            built.append(problem)
            post_init(problem)

        monkeypatch.setattr(GaveProblem, "__post_init__", spy)
        _, prob, _ = gen_example41(4, 4.0)
        assert len(built) == 1 and built[0] is prob

    def test_golden_directory_is_reproduced_byte_for_byte(self, tmp_path):
        golden = pathlib.Path(__file__).parent / "data" / "example41_m5_mu-1"
        save_problem(gen_example41(5, -1.0)[1], tmp_path / "p")
        for name in ["A.mtx", "B.mtx", "b.txt", "xstar.txt", "meta"]:
            assert (tmp_path / "p" / name).read_bytes() == (golden / name).read_bytes(), name

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_non_finite_mu_rejected(self, mu):
        # a NaN mu used to give an A whose entries were NaN
        with pytest.raises(ParameterError, match="mu"):
            gen_example41(4, mu)


class TestLcpReduction:
    def test_example_mapping(self):
        lcp, _, _ = gen_example41(4, 4.0)
        prob = lcp_to_gave(lcp)
        np.testing.assert_allclose(prob.known_solution, np.full(16, -0.6), atol=1e-12)

    def test_identity_lcp(self):
        n = 5
        lcp = LcpInstance(
            M=identity(n), q=np.full(n, -1.0), known_solution=np.ones(n)
        )
        prob = lcp_to_gave(lcp)
        np.testing.assert_allclose(prob.known_solution, np.full(n, -0.5), atol=1e-14)
        assert np.linalg.norm(residual(prob, prob.known_solution)) <= 1e-12


class TestGenCertified:
    def test_deterministic(self):
        a = gen_certified(30, seed=7)
        b = gen_certified(30, seed=7)
        np.testing.assert_array_equal(a.A.values, b.A.values)
        np.testing.assert_array_equal(a.B.values, b.B.values)
        np.testing.assert_array_equal(a.b, b.b)
        np.testing.assert_array_equal(a.known_solution, b.known_solution)

    def test_exact_certificate_holds(self):
        prob = gen_certified(40, seed=3, b_norm_scale=1.0, dominance=10.0)
        n = prob.n
        cert = evaluate(
            [Condition.EXACT], A=prob.A, B=prob.B, M=prob.A, N=zeros(n), omega=zeros(n),
        )[0]
        assert cert.holds and not cert.marginal

    def test_norm_construction(self):
        prob = gen_certified(50, seed=11, b_norm_scale=0.7, dominance=8.0)
        assert spectral_norm(prob.B, rel_tol=1e-10) == pytest.approx(0.7, rel=1e-6)
        assert min_singular_value(prob.A) >= 7.0

    def test_solver_reaches_known_solution(self):
        prob = gen_certified(60, seed=5)
        report = nms_solve(prob, build_splitting(prob.A, "picard"))
        assert report.converged
        assert np.linalg.norm(report.x - prob.known_solution) <= 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_scale_of_r_is_its_largest_row_or_column_sum(self, monkeypatch, seed):
        # R is scaled by 1 / max(row sums of |R|, row sums of a built |R.T|),
        # bit for bit: each a product with ones, summed left to right
        scaled, scale = [], gavekit.problems.sparse_scale
        monkeypatch.setattr(gavekit.problems, "sparse_scale",
                            lambda c, M: scaled.append((c, M)) or scale(c, M))
        gen_certified(300, seed)
        c, R = scaled[0]
        r, col, _ = R.coo_arrays()
        assert not np.any(r == col)  # strictly off-diagonal
        ones = np.ones(300)
        radius = max((abs(R.to_scipy()) @ ones).max(), (abs(R.transpose().to_scipy()) @ ones).max())
        assert radius > 1.0
        assert c.hex() == (1.0 / radius).hex()

    def test_nan_size_and_seed_rejected(self):
        # n < 2 and seed < 0 let NaN through to numpy
        with pytest.raises(ParameterError, match="n must be at least 2"):
            gen_certified(np.nan, seed=0)
        with pytest.raises(ParameterError, match="seed must be nonnegative"):
            gen_certified(20, seed=np.nan)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            gen_certified(20, seed=0, dominance=1.0)
        with pytest.raises(ParameterError):
            gen_certified(20, seed=0, b_norm_scale=50.0, dominance=2.0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(dominance=np.nan), "dominance"),
        (dict(dominance=np.inf), "dominance"),
        (dict(b_norm_scale=np.nan), "b_norm_scale"),
        (dict(b_norm_scale=np.inf), "b_norm_scale"),
        (dict(seed=-1), "seed"),
    ])
    def test_non_finite_or_negative_parameters(self, kwargs, match):
        # these ended in numpy tracebacks, or (b_norm_scale = inf) in inf entries
        with pytest.raises(ParameterError, match=match):
            gen_certified(20, **{"seed": 0, **kwargs})


class TestProblemValidation:
    def test_known_solution_checked(self, rng):
        A = identity(4)
        with pytest.raises(ParameterError, match="residual"):
            GaveProblem(A=A, B=zeros(4), b=np.ones(4), known_solution=np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_with_known_solution(self, bad):
        # defect > bound is False for a NaN defect, which let such data through
        _, prob, _ = gen_example41(4, 4.0)
        dense = prob.A.to_dense()
        dense[0, 0] = bad
        A = from_dense(dense)
        with pytest.raises(NumericsError, match="^non-finite known_solution residual"):
            GaveProblem(A=A, B=prob.B, b=prob.b, known_solution=prob.known_solution)
        with pytest.raises(NumericsError, match="^non-finite known_solution residual"):
            GaveProblem(A=prob.A, B=prob.B, b=prob.b,
                        known_solution=np.where(prob.known_solution < 0, bad, 0.0))

    def test_load_rejects_non_finite_data_with_known_solution(self, tmp_path):
        _, prob, _ = gen_example41(4, 4.0)
        save_problem(prob, tmp_path / "p")
        path = tmp_path / "p" / "b.txt"
        lines = path.read_text().splitlines()
        lines[-1] = "nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NumericsError, match="non-finite"):
            load_problem(tmp_path / "p")

    def test_lcp_validation(self):
        with pytest.raises(ParameterError):
            LcpInstance(
                M=identity(3), q=np.ones(3), known_solution=-np.ones(3)
            )

    def test_lcp_rejects_nan_known_solution(self):
        # each check compared NaN in the direction that passes it
        with pytest.raises(ParameterError, match="nonnegative"):
            LcpInstance(M=identity(3), q=np.ones(3), known_solution=[np.nan, 0.0, 0.0])

    def test_shape_checks(self):
        with pytest.raises(Exception):
            GaveProblem(A=identity(3), B=identity(4), b=np.ones(3))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        prob = gen_certified(12, seed=9)
        save_problem(prob, tmp_path / "p", extra={"seed": 9})
        loaded = load_problem(tmp_path / "p")
        np.testing.assert_array_equal(loaded.A.values, prob.A.values)
        np.testing.assert_array_equal(loaded.B.values, prob.B.values)
        np.testing.assert_array_equal(loaded.b, prob.b)
        np.testing.assert_array_equal(loaded.known_solution, prob.known_solution)
        assert loaded.provenance == prob.provenance
        meta = (tmp_path / "p" / "meta").read_text()
        assert "seed = 9" in meta

    def test_round_trip_without_solution(self, tmp_path, rng):
        from conftest import random_dominant

        A = random_dominant(rng, 6)
        prob = GaveProblem(A=A, B=zeros(6), b=rng.uniform(-1, 1, 6))
        save_problem(prob, tmp_path / "q")
        loaded = load_problem(tmp_path / "q")
        assert loaded.known_solution is None

    def test_golden_problem_matches_generator(self):
        # committed golden files anchor the generator output across releases
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "certified_n8_seed42"
        loaded = load_problem(golden)
        fresh = gen_certified(8, seed=42)
        np.testing.assert_array_equal(loaded.A.values, fresh.A.values)
        np.testing.assert_array_equal(loaded.A.col_idx, fresh.A.col_idx)
        np.testing.assert_array_equal(loaded.B.values, fresh.B.values)
        np.testing.assert_array_equal(loaded.b, fresh.b)
        np.testing.assert_array_equal(loaded.known_solution, fresh.known_solution)

    def test_set_up_builds_no_product_form(self, tmp_path, monkeypatch):
        # product forms are for the loops that repeat products; generating,
        # saving, loading and the known-solution check make one-off products
        built = []
        monkeypatch.setattr(SparseMatrix, "product_forms", lambda A: built.append(A))
        _, prob, _ = gen_example41(24, -1.0)
        save_problem(prob, tmp_path / "p")
        loaded = load_problem(tmp_path / "p")
        GaveProblem(A=loaded.A, B=loaded.B, b=loaded.b, known_solution=loaded.known_solution)
        assert loaded.known_solution is not None
        assert built == []

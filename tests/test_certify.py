"""Certificates against dense oracles and the closed-form identities."""

import functools

import numpy as np
import pytest

import gavekit.certify
import gavekit.linalg
from gavekit import (
    Condition,
    NumericsError,
    OmegaSpec,
    ParameterError,
    SparseMatrix,
    build_splitting,
    check_corollary,
    check_inexact,
    diag_matrix,
    evaluate,
    gen_certified,
    gen_example41,
    hermitian_split,
    identity,
    min_singular_value,
    sparse_add,
    sparse_scale,
    spectral_norm,
    zeros,
)

from conftest import count_calls, random_dominant, random_sparse, scaled_identity, tridiag


def _dense_norm(X):
    return np.linalg.svd(X.to_dense(), compute_uv=False)[0]


def _pd_with_skew(rng, n, margin=1.0):
    """Matrix with positive definite symmetric part and nonzero skew part."""
    r = rng.uniform(-1, 1, (n, n))
    H0 = (r + r.T) / 2
    shift = abs(np.linalg.eigvalsh(H0)[0]) + margin
    H = H0 + np.diag(np.full(n, shift))
    s = rng.uniform(-1, 1, (n, n))
    S = (s - s.T) / 2
    return SparseMatrix.from_dense(H + S)


class TestCheckExact:
    def test_trivial_linear_system(self):
        n = 4
        cert = evaluate(
            [Condition.EXACT], A=identity(n), B=zeros(n), M=identity(n), N=zeros(n),
            omega=zeros(n),
        )[0]
        assert cert.lhs == pytest.approx(0.0, abs=1e-12)
        assert cert.holds and not cert.marginal
        assert cert.condition is Condition.EXACT

    def test_diagonal_halved(self):
        n = 4
        cert = evaluate(
            [Condition.EXACT], A=identity(n), B=scaled_identity(n, 0.5), M=identity(n),
            N=zeros(n), omega=zeros(n),
        )[0]
        assert cert.lhs == pytest.approx(0.5, rel=1e-9)
        assert cert.holds

    def test_overweight_b_fails(self):
        n = 4
        cert = evaluate(
            [Condition.EXACT], A=identity(n), B=scaled_identity(n, 2.0), M=identity(n),
            N=zeros(n), omega=zeros(n),
        )[0]
        assert cert.lhs == pytest.approx(2.0, rel=1e-9)
        assert not cert.holds

    def test_contraction_factor_equals_lhs(self, rng):
        A = random_dominant(rng, 12)
        B = sparse_scale(0.5, random_sparse(rng, 12))
        s = build_splitting(A, "ngs")
        cert = evaluate([Condition.EXACT], A=A, B=B, M=s.M, N=s.N, omega=zeros(12))[0]
        assert cert.contraction_factor == cert.lhs


class TestCheckInexact:
    def test_theta_zero_matches_exact_decision(self, rng):
        for _ in range(10):
            A = random_dominant(rng, 10)
            B = sparse_scale(float(rng.uniform(0.1, 2.0)), random_sparse(rng, 10))
            s = build_splitting(A, "nj")
            om = diag_matrix(rng.uniform(0.0, 1.0, 10))
            exact = evaluate([Condition.EXACT], A=A, B=B, M=s.M, N=s.N, omega=om)[0]
            inexact = check_inexact(A, B, s.M, s.N, om, 0.0)
            if not (exact.marginal or inexact.marginal):
                assert exact.holds == inexact.holds

    def test_diagonal_hand_value(self):
        n = 5
        A = scaled_identity(n, 10.0)
        cert = check_inexact(A, identity(n), A, zeros(n), zeros(n), 0.5)
        assert cert.lhs == pytest.approx(0.1, rel=1e-9)
        assert cert.rhs == pytest.approx(1.0 / 6.5, rel=1e-9)
        assert cert.holds

    def test_diagonal_high_theta_fails(self):
        n = 5
        A = scaled_identity(n, 10.0)
        cert = check_inexact(A, identity(n), A, zeros(n), zeros(n), 0.95)
        assert cert.rhs == pytest.approx(1.0 / (0.95 * 11.0 + 1.0), rel=1e-9)
        assert not cert.holds

    def test_rhs_monotone_in_theta(self, rng):
        A = random_dominant(rng, 8)
        B = sparse_scale(0.5, random_sparse(rng, 8))
        s = build_splitting(A, "ngs")
        om = scaled_identity(8, 0.7)
        thetas = [0.0, 0.1, 0.3, 0.6, 0.9]
        rhs = [check_inexact(A, B, s.M, s.N, om, t).rhs for t in thetas]
        assert all(a >= b for a, b in zip(rhs, rhs[1:]))

    def test_contraction_factor_below_one_when_holds(self, rng):
        A = random_dominant(rng, 10, shift=8.0)
        B = sparse_scale(0.3, random_sparse(rng, 10))
        cert = check_inexact(A, B, A, zeros(10), zeros(10), 0.2)
        assert cert.holds
        assert cert.contraction_factor is not None
        assert cert.contraction_factor < 1.0

    def test_theta_validation(self, rng):
        A = random_dominant(rng, 5)
        with pytest.raises(ParameterError):
            check_inexact(A, zeros(5), A, zeros(5), zeros(5), 1.0)

    def test_assembles_each_shifted_sum_once(self, monkeypatch):
        _, p, hat = gen_example41(6, 4.0)
        s = build_splitting(p.A, "ngs")
        calls = []

        def counting_add(X, Y):
            calls.append((X, Y))
            return sparse_add(X, Y)

        monkeypatch.setattr(gavekit.certify, "sparse_add", counting_add)
        check_inexact(p.A, p.B, s.M, s.N, hat, 0.5)
        assert len(calls) == 2  # Omega+M and Omega+N


class TestEvaluate:
    def test_estimates_and_sums_shared_across_conditions(self, monkeypatch):
        _, p, hat = gen_example41(6, 4.0)
        s = build_splitting(p.A, "ngs", OmegaSpec.scaled(1.0, hat))
        calls = count_calls(monkeypatch, gavekit.certify, (
            "spectral_norm", "min_singular_value", "symmetric_eig_extremes",
            "sparse_add", "sparse_sub",
        ))
        certs = evaluate(list(Condition), A=p.A, B=p.B, M=s.M, N=s.N, omega=s.omega,
                         theta=0.3, gamma=1.0, omega_scalar=2.0)
        assert [c.condition for c in certs] == list(Condition)
        # norms of A, B, Omega, Omega+M, Omega+N, Omega+A, Omega-A and of S,
        # A's antisymmetric part; inverse norms of A, M, Omega+M, Omega+A;
        # sums Omega+M, Omega+N, Omega+A, Omega-A
        assert calls == {
            "spectral_norm": 8,
            "min_singular_value": 4,
            "symmetric_eig_extremes": 1,
            "sparse_add": 3,
            "sparse_sub": 1,
        }

    def test_shared_estimates_match_separate_calls(self):
        _, p, hat = gen_example41(6, 4.0)
        s = build_splitting(p.A, "ngs", OmegaSpec.scaled(1.0, hat))
        inputs = dict(A=p.A, B=p.B, M=s.M, N=s.N, omega=s.omega, theta=0.3, gamma=1.0,
                      omega_scalar=2.0)
        together = evaluate(list(Condition), **inputs)
        apart = [evaluate([c], **inputs)[0] for c in Condition]
        assert together == apart

    def test_zero_shift_estimates_each_distinct_matrix_once(self, monkeypatch):
        _, p, _ = gen_example41(6, 4.0)
        s = build_splitting(p.A, "ngs")
        inputs = dict(A=p.A, B=p.B, M=s.M, N=s.N, theta=0.3, gamma=1.0, omega_scalar=2.0)
        # an Omega storing one zero is not aliased: each Omega+X is assembled
        stored_zero = SparseMatrix.from_coo(p.n, p.n, [0], [0], [0.0])
        reference = evaluate(list(Condition), omega=stored_zero, **inputs)
        calls = count_calls(monkeypatch, gavekit.certify, (
            "spectral_norm", "min_singular_value", "sparse_add", "sparse_sub",
        ))
        certs = evaluate(list(Condition), omega=zeros(p.n), **inputs)
        # norms of A, B, Omega, M, N, Omega-A and S (mu_max); inverse norms of
        # A and M: Omega+X is X, so norm((Omega+M)^-1) is norm(M^-1), and so on
        assert calls == {"spectral_norm": 7, "min_singular_value": 2, "sparse_sub": 1}
        assert certs == reference  # lhs, rhs, holds and every norm_details value

    def test_a_stored_zero_keeps_the_sum(self, monkeypatch):
        # sparse_add drops a stored zero of X, so Omega+X is then not X
        A = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 1, 1], [2.0, 0.0, 3.0])
        calls = count_calls(monkeypatch, gavekit.certify, ("sparse_add",))
        cert = evaluate([Condition.COR31], A=A, B=scaled_identity(2, 0.1), omega=zeros(2))[0]
        assert calls == {"sparse_add": 1}
        assert cert.rhs == pytest.approx(10.0) and cert.lhs == pytest.approx(0.5)

    def test_inputs_checked_before_any_estimate(self, monkeypatch):
        def no_estimate(*args, **kwargs):
            raise AssertionError("estimated before the inputs were checked")

        monkeypatch.setattr(gavekit.certify, "spectral_norm", no_estimate)
        monkeypatch.setattr(gavekit.certify, "min_singular_value", no_estimate)
        A = random_dominant(np.random.default_rng(0), 4)
        with pytest.raises(ParameterError, match="Cor36a requires arguments: gamma"):
            evaluate([Condition.COR34, Condition.COR36A], A=A, B=zeros(4))
        with pytest.raises(ParameterError, match="theta"):
            evaluate([Condition.COR34], A=A, B=zeros(4), theta=1.0)


class TestCheckMInverse:
    def test_zero_omega_matches_inexact_decision(self, rng):
        for _ in range(10):
            A = random_dominant(rng, 9)
            B = sparse_scale(float(rng.uniform(0.1, 1.5)), random_sparse(rng, 9))
            s = build_splitting(A, "ngs")
            a = check_inexact(A, B, s.M, s.N, zeros(9), 0.2)
            m = evaluate(
                [Condition.M_INVERSE], A=A, B=B, M=s.M, N=s.N, omega=zeros(9), theta=0.2,
            )[0]
            if not (a.marginal or m.marginal):
                assert a.holds == m.holds

    def test_diagonal_hand_value(self):
        n = 4
        M = scaled_identity(n, 10.0)
        cert = evaluate(
            [Condition.M_INVERSE], A=M, B=identity(n), M=M, N=zeros(n), omega=identity(n),
            theta=0.0,
        )[0]
        assert cert.lhs == pytest.approx(0.1, rel=1e-9)
        assert cert.rhs == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert cert.holds

    def test_implies_inexact_on_random_instances(self, rng):
        # Banach-perturbation consequence, checked statistically
        counterexamples = 0
        for _ in range(40):
            A = random_dominant(rng, 8, shift=float(rng.uniform(4, 10)))
            B = sparse_scale(float(rng.uniform(0.1, 1.0)), random_sparse(rng, 8))
            s = build_splitting(A, "nj")
            om = scaled_identity(8, float(rng.uniform(0.0, 1.0)))
            theta = float(rng.uniform(0.0, 0.5))
            m = evaluate(
                [Condition.M_INVERSE], A=A, B=B, M=s.M, N=s.N, omega=om, theta=theta,
            )[0]
            ix = check_inexact(A, B, s.M, s.N, om, theta)
            if m.holds and not m.marginal and not ix.marginal and not ix.holds:
                counterexamples += 1
        assert counterexamples == 0


class TestCheckScalarOmega:
    def test_symmetric_reduces_to_eigen_gap(self, rng):
        # with S = 0 and theta = 0 the condition is lambda_min > tau
        A = tridiag(-1, 4, -1, 6)
        lam_min = 4 - 2 * np.cos(np.pi / 7)
        below = evaluate(
            [Condition.SCALAR_OMEGA], A=A, B=scaled_identity(6, lam_min * 0.9),
            omega_scalar=1.0, theta=0.0,
        )[0]
        above = evaluate(
            [Condition.SCALAR_OMEGA], A=A, B=scaled_identity(6, lam_min * 1.1),
            omega_scalar=1.0, theta=0.0,
        )[0]
        assert below.holds and not above.holds

    def test_tridiagonal_hand_value(self):
        A = tridiag(-1, 4, -1, 4)
        cert = evaluate(
            [Condition.SCALAR_OMEGA], A=A, B=identity(4), omega_scalar=1.0, theta=0.0,
        )[0]
        lam_min = 4 - 2 * np.cos(np.pi / 5)
        assert cert.rhs == pytest.approx(1.0 + lam_min - 1.0, rel=1e-9)
        assert cert.lhs == pytest.approx(1.0, rel=1e-9)  # sqrt(w^2 + 0)
        assert cert.holds

    def test_large_tau_fails(self):
        A = tridiag(-1, 4, -1, 4)
        cert = evaluate(
            [Condition.SCALAR_OMEGA], A=A, B=scaled_identity(4, 10.0), omega_scalar=1.0,
            theta=0.0,
        )[0]
        assert not cert.holds

    def test_requires_positive_definite_symmetric_part(self, rng):
        A = SparseMatrix.from_dense(np.diag([-1.0, 2.0, 3.0]))
        with pytest.raises(ParameterError, match="positive definite"):
            evaluate(
                [Condition.SCALAR_OMEGA], A=A, B=identity(3), omega_scalar=1.0, theta=0.0,
            )[0]

    def test_requires_positive_omega(self, rng):
        A = tridiag(-1, 4, -1, 4)
        with pytest.raises(ParameterError, match="positive"):
            evaluate(
                [Condition.SCALAR_OMEGA], A=A, B=identity(4), omega_scalar=0.0, theta=0.0,
            )[0]

    def test_closed_form_identities(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 30))
            A = _pd_with_skew(rng, n)
            H, S = hermitian_split(A)
            w = float(rng.uniform(0.2, 4.0))
            lam = np.linalg.eigvalsh(H.to_dense())
            mu_max = np.abs(np.linalg.eigvals(S.to_dense())).max()
            shifted = SparseMatrix.from_dense(w * np.eye(n) + H.to_dense())
            assert 1.0 / min_singular_value(shifted) == pytest.approx(
                1.0 / (w + lam[0]), rel=1e-10
            )
            wIS = SparseMatrix.from_dense(w * np.eye(n) - S.to_dense())
            assert spectral_norm(wIS, rel_tol=1e-12) == pytest.approx(
                np.sqrt(w * w + mu_max * mu_max), rel=1e-9
            )

    def test_agrees_with_generic_inexact(self, rng):
        disagreements = 0
        for _ in range(20):
            n = int(rng.integers(4, 25))
            A = _pd_with_skew(rng, n, margin=float(rng.uniform(0.5, 2.0)))
            B = sparse_scale(float(rng.uniform(0.2, 3.0)), random_sparse(rng, n))
            w = float(rng.uniform(0.2, 3.0))
            theta = float(rng.uniform(0.0, 0.6))
            scalar = evaluate(
                [Condition.SCALAR_OMEGA], A=A, B=B, omega_scalar=w, theta=theta,
            )[0]
            H, S = hermitian_split(A)
            generic = check_inexact(
                A, B, H, sparse_scale(-1.0, S), scaled_identity(n, w), theta
            )
            if scalar.marginal or generic.marginal:
                continue
            if scalar.holds != generic.holds:
                disagreements += 1
        assert disagreements == 0


class TestCorollaries:
    def test_cor34_hand_value(self):
        n = 3
        cert = check_corollary(
            Condition.COR34, A=scaled_identity(n, 3.0), B=identity(n), theta=0.0
        )
        assert cert.lhs == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert cert.rhs == pytest.approx(1.0, rel=1e-9)
        assert cert.holds

    def test_cor36a_gamma_limit(self, rng):
        A = random_dominant(rng, 6)
        cert = check_corollary(Condition.COR36A, A=A, gamma=2.0 - 1e-9, theta=0.0)
        assert cert.rhs == pytest.approx(1.0, rel=1e-6)

    def test_cor36_gamma_validation(self, rng):
        A = random_dominant(rng, 4)
        with pytest.raises(ParameterError):
            check_corollary(Condition.COR36A, A=A, gamma=2.0)

    def test_cor31_theta_zero_matches_exact_mn(self, rng):
        for _ in range(10):
            A = random_dominant(rng, 8)
            B = sparse_scale(float(rng.uniform(0.2, 1.5)), random_sparse(rng, 8))
            om = scaled_identity(8, float(rng.uniform(0.0, 1.0)))
            cor = check_corollary(Condition.COR31, A=A, B=B, omega=om, theta=0.0)
            ex = evaluate([Condition.EXACT], A=A, B=B, M=A, N=zeros(8), omega=om)[0]
            if not (cor.marginal or ex.marginal):
                assert cor.holds == ex.holds

    def test_cor35_equals_inexact_with_unit_b(self, rng):
        A = random_dominant(rng, 10)
        s = build_splitting(A, "ngs")
        om = scaled_identity(10, 0.5)
        theta = 0.25
        a = check_corollary(Condition.COR35A, M=s.M, N=s.N, omega=om, theta=theta)
        generic = check_inexact(A, identity(10), s.M, s.N, om, theta)
        assert a.lhs == pytest.approx(generic.lhs, rel=1e-10)
        assert a.rhs == pytest.approx(generic.rhs, rel=1e-10)
        b = check_corollary(Condition.COR35B, M=s.M, N=s.N, omega=om, theta=theta)
        generic_m = evaluate(
            [Condition.M_INVERSE], A=A, B=identity(10), M=s.M, N=s.N, omega=om, theta=theta,
        )[0]
        assert b.lhs == pytest.approx(generic_m.lhs, rel=1e-10)
        assert b.rhs == pytest.approx(generic_m.rhs, rel=1e-10)

    def test_cor32_cor33_shapes(self, rng):
        A = random_dominant(rng, 7)
        B = sparse_scale(0.3, random_sparse(rng, 7))
        om = scaled_identity(7, 0.4)
        for kind in (Condition.COR32, Condition.COR33A, Condition.COR33B):
            cert = check_corollary(kind, A=A, B=B, omega=om, theta=0.1)
            assert cert.holds == (cert.lhs < cert.rhs)
            assert cert.norm_details

    def test_missing_arguments(self, rng):
        with pytest.raises(ParameterError, match="requires"):
            check_corollary(Condition.COR31, A=random_dominant(rng, 4))

    def test_non_corollary_kind_rejected(self, rng):
        A = random_dominant(rng, 4)
        with pytest.raises(ParameterError):
            check_corollary(Condition.EXACT, A=A, B=zeros(4))


class TestVerdicts:
    def test_marginal_band(self):
        n = 3
        near = evaluate(
            [Condition.EXACT], A=identity(n), B=scaled_identity(n, 1.0 - 1e-5),
            M=identity(n), N=zeros(n), omega=zeros(n),
        )[0]
        assert near.marginal and near.verdict == "marginal"
        clear = evaluate(
            [Condition.EXACT], A=identity(n), B=scaled_identity(n, 0.5), M=identity(n),
            N=zeros(n), omega=zeros(n),
        )[0]
        assert not clear.marginal and clear.verdict == "true"

    def test_holds_is_strict_comparison(self, rng):
        A = random_dominant(rng, 6)
        B = sparse_scale(0.4, random_sparse(rng, 6))
        s = build_splitting(A, "nj")
        cert = check_inexact(A, B, s.M, s.N, zeros(6), 0.3)
        assert cert.holds == (cert.lhs < cert.rhs)

    def test_zero_denominator_holds_with_infinite_rhs(self):
        # B = 0 and theta = 0 zero the denominators of Cor34, Cor31 at a zero
        # shift and picard's eq. (15) (Omega + N = 0): each bound holds for
        # any finite lhs, clear of the band, and eq. (15)'s factor is 0
        p = gen_certified(50, seed=1, b_norm_scale=0.0)
        s = build_splitting(p.A, "picard")
        assert p.B.max_abs() == 0.0 and s.N.max_abs() == 0.0
        certs = evaluate([Condition.COR34, Condition.COR31, Condition.INEXACT], A=p.A,
                         B=p.B, M=s.M, N=s.N, omega=s.omega, theta=0.0)
        for cert in certs:
            assert 0.0 < cert.lhs < np.inf and cert.rhs == np.inf
            assert cert.holds and not cert.marginal and cert.verdict == "true"
            assert cert.format_line().endswith(" rhs=inf holds=true")
        assert [c.contraction_factor for c in certs] == [None, None, 0.0]

    def test_format_line(self):
        n = 2
        cert = evaluate(
            [Condition.EXACT], A=identity(n), B=zeros(n), M=identity(n), N=zeros(n),
            omega=zeros(n),
        )[0]
        line = cert.format_line()
        assert line.startswith("ExactEq6 lhs=")
        assert "holds=true" in line


@pytest.mark.parametrize("m", [10, 24])  # n = 100 and 576: one label at every size
class TestNormDetailMethods:
    """Every norm_details method names the estimator that actually ran."""

    def test_scalar_omega(self, m):
        p = gen_example41(m, 4.0)[1]
        cert = evaluate(
            [Condition.SCALAR_OMEGA], A=p.A, B=p.B, omega_scalar=2.0, theta=0.1,
        )[0]
        methods = {d[0]: d[2] for d in cert.norm_details}
        assert methods["lambda_min(H)"] == "lu_shift_invert_lanczos"
        assert methods["lambda_max(H)"] == "lu_shift_invert_lanczos"
        assert methods["mu_max(S)"] == "lanczos"
        assert methods["norm(B)"] == "lanczos"

    def test_inexact(self, m):
        _, p, hat = gen_example41(m, 4.0)
        s = build_splitting(p.A, "ngs")
        cert = check_inexact(p.A, p.B, s.M, s.N, hat, 0.5)
        methods = {d[0]: d[2] for d in cert.norm_details}
        assert methods == {
            "norm((Omega+M)^-1)": "lu_shift_invert_lanczos",
            "norm(Omega+M)": "lanczos",
            "norm(Omega+N)": "lanczos",
            "norm(B)": "lanczos",
            "theta": "input",
        }


def _dense_sides(condition, A, B, M, N, Om, t, g, w):
    """lhs and rhs of each condition recomputed from dense SVDs and eigvalsh."""

    def n(X):
        return np.linalg.svd(X, compute_uv=False)[0]

    def inv(X):
        return 1.0 / np.linalg.svd(X, compute_uv=False)[-1]

    a, b, o, om, on = n(A), n(B), n(Om), n(Om + M), n(Om + N)
    oa, oma = n(Om + A), n(Om - A)
    if condition is Condition.EXACT:
        return inv(Om + M) * (on + b), 1.0
    if condition is Condition.SCALAR_OMEGA:
        lam = np.linalg.eigvalsh((A + A.T) / 2)
        root = np.hypot(w, n((A - A.T) / 2))
        return root + t * (w + lam[-1] + b + root), w + lam[0] - b
    X, den = {
        Condition.INEXACT: (Om + M, t * (om + on + b) + on + b),
        Condition.M_INVERSE: (M, t * (om + on + b) + on + b + o),
        Condition.COR31: (Om + A, b + o + t * (oa + b + o)),
        Condition.COR32: (A, b + 2 * o + t * (oa + b + o)),
        Condition.COR33A: (Om + A, 2 * b + oma + t * (oa + 2 * b + oma)),
        Condition.COR33B: (A, 2 * b + o + oma + t * (oa + 2 * b + oma)),
        Condition.COR34: (A, b + t * (a + b)),
        Condition.COR35A: (Om + M, t * (om + on + 1) + on + 1),
        Condition.COR35B: (M, t * (om + on + 1) + on + o + 1),
        Condition.COR36A: (A, t * ((2 - g / 2) * a + 1) + 2 * (1 - g / 2) * a + 1),
        Condition.COR36B: (A, t * ((4 / g - 1) * a + 1) + 2 * (2 / g - 1) * a + 1),
    }[condition]
    return inv(X), 1.0 / den


class TestNormOracles:
    @pytest.mark.parametrize("condition", list(Condition), ids=lambda c: c.value)
    def test_every_formula_matches_dense(self, condition):
        rng = np.random.default_rng(11)
        n = 24
        A = random_dominant(rng, n, shift=8.0)
        B = sparse_scale(0.5, random_sparse(rng, n))
        s = build_splitting(A, "ngs")
        om = diag_matrix(rng.uniform(0.0, 1.0, n))
        cert = evaluate([condition], A=A, B=B, M=s.M, N=s.N, omega=om, theta=0.3,
                        gamma=1.2, omega_scalar=1.5)[0]
        lhs, rhs = _dense_sides(
            condition, *(X.to_dense() for X in (A, B, s.M, s.N, om)), 0.3, 1.2, 1.5
        )
        assert cert.lhs == pytest.approx(lhs, rel=1e-9)
        assert cert.rhs == pytest.approx(rhs, rel=1e-9)
        assert cert.holds == (cert.lhs < cert.rhs)

    def test_certificate_norms_match_dense(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 40))
            A = random_dominant(rng, n)
            B = sparse_scale(float(rng.uniform(0.2, 2.0)), random_sparse(rng, n))
            s = build_splitting(A, "ngs")
            om = scaled_identity(n, float(rng.uniform(0.0, 1.0)))
            cert = check_inexact(A, B, s.M, s.N, om, 0.3)
            dense_lhs = 1.0 / np.linalg.svd(
                (om.to_dense() + s.M.to_dense()), compute_uv=False
            ).min()
            assert cert.lhs == pytest.approx(dense_lhs, rel=1e-6)
            labels = {d[0]: d[1] for d in cert.norm_details}
            assert labels["norm(B)"] == pytest.approx(_dense_norm(B), rel=1e-6)

    def test_holds_matches_dense_oracle_decision(self, rng):
        # outside the marginal band, the verdict must agree with a fully
        # dense recomputation of both sides
        checked = 0
        for _ in range(30):
            n = int(rng.integers(4, 30))
            A = random_dominant(rng, n, shift=float(rng.uniform(2.0, 8.0)))
            B = sparse_scale(float(rng.uniform(0.2, 3.0)), random_sparse(rng, n))
            s = build_splitting(A, "nj")
            om = scaled_identity(n, float(rng.uniform(0.0, 1.0)))
            theta = float(rng.uniform(0.0, 0.7))
            cert = check_inexact(A, B, s.M, s.N, om, theta)
            om_d = om.to_dense()
            n_om = np.linalg.svd(om_d + s.M.to_dense(), compute_uv=False)[0]
            n_on = np.linalg.svd(om_d + s.N.to_dense(), compute_uv=False)[0]
            n_b = _dense_norm(B)
            lhs = 1.0 / np.linalg.svd(om_d + s.M.to_dense(), compute_uv=False)[-1]
            rhs = 1.0 / (theta * (n_om + n_on + n_b) + n_on + n_b)
            if abs(lhs - rhs) > 1e-4 * (abs(lhs) + abs(rhs)):
                assert cert.holds == (lhs < rhs)
                checked += 1
        assert checked > 0


_LANCZOS = ("lanczos", "lu_shift_invert_lanczos")


@functools.lru_cache(maxsize=None)
def _example41_case(m, mu, scale):
    """ngs on example41 with Omega = scale * hatM, and the dense singular
    values of every matrix InexactEq15 and Cor34 read, computed once."""
    _, p, hat = gen_example41(m, mu)
    s = build_splitting(p.A, "ngs")
    om = sparse_scale(scale, hat)
    svals = {
        label: np.linalg.svd(X.to_dense(), compute_uv=False)
        for label, X in (("Omega+M", sparse_add(om, s.M)), ("Omega+N", sparse_add(om, s.N)),
                         ("A", p.A), ("B", p.B))
    }
    return p, s, om, svals


class TestLanczosAgainstDenseOnExample41:
    """On the paper's family at n = 576 and 625, every certificate quantity is
    within _NORM_RTOL / 2 of the dense SVD and every verdict is the dense one."""

    @pytest.mark.parametrize("m", [24, 25], ids=["even-m", "odd-m"])
    @pytest.mark.parametrize("mu, scale", [(4.0, 1.0), (-1.0, 1.5)],
                             ids=["mu4-hatM", "mu-1-1.5hatM"])
    def test_quantities_and_verdicts(self, m, mu, scale):
        p, s, om, sv = _example41_case(m, mu, scale)
        theta = 0.3
        inexact, cor34 = evaluate([Condition.INEXACT, Condition.COR34], A=p.A, B=p.B,
                                  M=s.M, N=s.N, omega=om, theta=theta)
        oracle = {f"norm({name})": v[0] for name, v in sv.items()}
        oracle["norm((Omega+M)^-1)"] = 1.0 / sv["Omega+M"][-1]
        oracle["norm(A^-1)"] = 1.0 / sv["A"][-1]
        checked = set()
        for cert in (inexact, cor34):
            for label, value, method in cert.norm_details:
                if method in _LANCZOS:
                    assert value == pytest.approx(
                        oracle[label], rel=gavekit.certify._NORM_RTOL / 2
                    ), label
                    checked.add(label)
        assert checked == set(oracle)
        b = oracle["norm(B)"]
        on = oracle["norm(Omega+N)"]
        dense = {
            inexact: (oracle["norm((Omega+M)^-1)"],
                      1.0 / (theta * (oracle["norm(Omega+M)"] + on + b) + on + b)),
            cor34: (oracle["norm(A^-1)"], 1.0 / (b + theta * (oracle["norm(A)"] + b))),
        }
        for cert, (lhs, rhs) in dense.items():
            assert abs(lhs - rhs) > 1e-4 * (lhs + rhs)  # a verdict outside the band
            assert cert.holds == (lhs < rhs)

    @pytest.mark.parametrize("kind", ["nj", "ngs", "mn"])
    def test_gen_certified_holds_clear_of_the_band(self, kind):
        p = gen_certified(600, seed=1)
        s = build_splitting(p.A, kind)
        cert = check_inexact(p.A, p.B, s.M, s.N, zeros(600), 0.3)
        assert cert.holds and not cert.marginal

    def test_every_estimate_runs_at_the_certificate_tolerance(self, monkeypatch):
        seen = []
        for name in ("spectral_norm", "min_singular_value"):
            fn = getattr(gavekit.certify, name)

            def spy(X, *args, _name=name, _fn=fn, **kwargs):
                seen.append((_name, kwargs.get("rel_tol")))
                return _fn(X, *args, **kwargs)

            monkeypatch.setattr(gavekit.certify, name, spy)
        _, p, hat = gen_example41(6, 4.0)
        s = build_splitting(p.A, "ngs")
        evaluate(list(Condition), A=p.A, B=p.B, M=s.M, N=s.N, omega=hat, theta=0.3,
                 gamma=1.0, omega_scalar=2.0)
        assert {name for name, _ in seen} == {"spectral_norm", "min_singular_value"}
        assert all(tol == gavekit.certify._NORM_RTOL for _, tol in seen), seen


@pytest.mark.parametrize("condition", list(gavekit.certify._BOUNDS), ids=lambda c: c.value)
def test_theta_only_norms_are_exactly_those_only_theta_reads(condition):
    # at theta = 0 den ignores a theta-only norm and reads every other one;
    # at theta > 0 it reads them all. Listing a norm the bound needs as
    # theta-only, or leaving a theta-only norm off the list, fails here
    _, _, norms, theta_only, den = gavekit.certify._BOUNDS[condition]
    names = norms.split()
    assert set(theta_only.split()) <= set(names)
    base = [1.0 + k for k in range(len(names))]
    for theta in (0.0, 0.3):
        d = den(theta, 1.0, *base)
        for k, name in enumerate(names):
            moved = den(theta, 1.0, *base[:k], 1e6, *base[k + 1:])
            if theta == 0.0 and name in theta_only.split():
                assert moved == d, name
                assert den(theta, 1.0, *base[:k], 0.0, *base[k + 1:]) == d, name
            else:
                assert moved != d, name


def _all_conditions(p, method, hat=None):
    s = build_splitting(p.A, method, OmegaSpec.scaled(1.0, hat) if hat else None)
    return dict(A=p.A, B=p.B, M=s.M, N=s.N, omega=s.omega, gamma=1.0, omega_scalar=2.0)


class TestThetaOnlyNorms:
    """At theta = 0 a bound estimates no norm only its theta term reads."""

    @pytest.mark.parametrize("theta, calls", [(0.0, 1), (0.3, 2)])
    def test_cor34_estimates_norm_a_only_under_theta(self, monkeypatch, theta, calls):
        p = gen_example41(6, 4.0)[1]
        counted = count_calls(monkeypatch, gavekit.certify, ("spectral_norm",))
        cert = evaluate([Condition.COR34], A=p.A, B=p.B, theta=theta)[0]
        assert counted == {"spectral_norm": calls}
        assert ("norm(A)" in {d[0] for d in cert.norm_details}) == (theta > 0)

    @pytest.mark.parametrize("case", [
        "example41:6:ngs", "example41:6:nj", "example41:24:ngs", "example41:24:nj",
        "certified:300:ngs", "certified:300:picard",
    ])
    def test_bitwise_the_certificates_with_every_norm_estimated(self, monkeypatch, case):
        kind, size, method = case.split(":")
        if kind == "example41":
            _, p, hat = gen_example41(int(size), 4.0)
            inputs = _all_conditions(p, method, hat)
        else:
            inputs = _all_conditions(gen_certified(int(size), seed=1), method)
        certs = evaluate(list(Condition), theta=0.0, **inputs)
        bounds = gavekit.certify._BOUNDS
        dropped = {c: {f"norm({name})" for name in row[3].split()} for c, row in bounds.items()}
        # the reference: the same call with no norm theta-only
        monkeypatch.setattr(gavekit.certify, "_BOUNDS",
                            {c: (*row[:3], "", row[4]) for c, row in bounds.items()})
        reference = evaluate(list(Condition), theta=0.0, **inputs)
        for cert, ref in zip(certs, reference):
            assert cert.condition is ref.condition
            assert (cert.lhs, cert.rhs, cert.holds, cert.marginal, cert.contraction_factor) \
                == (ref.lhs, ref.rhs, ref.holds, ref.marginal, ref.contraction_factor)
            kept = tuple(d for d in ref.norm_details
                         if d[0] not in dropped.get(cert.condition, ()))
            assert cert.norm_details == kept
        assert any(len(c.norm_details) < len(r.norm_details)
                   for c, r in zip(certs, reference))

    def test_non_finite_input_still_fails(self):
        # Cor31 no longer estimates norm(Omega+A), nor Cor34 norm(A)
        def with_nan(X):
            rows, cols, values = X.coo_arrays()
            values = values.copy()
            values[0] = np.nan
            return SparseMatrix.from_coo(X.n_rows, X.n_cols, rows, cols, values)

        _, p, hat = gen_example41(6, 4.0)
        with pytest.raises(NumericsError, match="non-finite"):
            evaluate([Condition.COR31], A=p.A, B=p.B, omega=with_nan(hat), theta=0.0)
        with pytest.raises(NumericsError, match="non-finite"):
            evaluate([Condition.COR34], A=with_nan(p.A), B=p.B, theta=0.0)

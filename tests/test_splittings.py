"""Splitting builders, the triangular decomposition, and omega resolution."""

import numpy as np
import pytest
import scipy.sparse

from gavekit import (
    ConfigurationError,
    DimensionError,
    GavekitError,
    OmegaSpec,
    ParameterError,
    SolverConfig,
    SparseMatrix,
    SplittingKind,
    build_splitting,
    diag_matrix,
    gen_example41,
    identity,
    nms_solve,
    resolve_omega,
    sparse_add,
    sparse_scale,
    sparse_sub,
    spmv,
    zeros,
)
from gavekit.splittings import KINDS

from conftest import (
    dense,
    from_dense,
    random_dominant,
    tridiag,
    with_explicit_zeros,
    with_int64_indices,
)

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


def _mask_parts(A):
    """The reference D, L, U: boolean masks over A's entries, int64 row counts."""
    n = A.n_rows
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.row_ptr))
    cols = A.col_idx

    def part(mask, sign):
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[mask], minlength=n), out=row_ptr[1:])
        csr = (sign * A.values[mask], cols[mask], row_ptr)
        return SparseMatrix._wrap(scipy.sparse.csr_matrix(csr, shape=(n, n)))

    return part(rows == cols, 1.0), part(rows > cols, -1.0), part(rows < cols, -1.0)


class TestTriangularParts:
    def test_hand_value(self):
        A = from_dense(np.array([[4.0, -1.0], [-1.0, 4.0]]))
        D, L, U = _mask_parts(A)
        np.testing.assert_array_equal(dense(D), [[4.0, 0.0], [0.0, 4.0]])
        np.testing.assert_array_equal(dense(L), [[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(dense(U), [[0.0, 1.0], [0.0, 0.0]])

    def test_diagonal_input(self):
        # the second input stores a zero diagonal entry, which D keeps
        for A in (from_dense(np.diag([1.0, 2.0, 3.0])),
                  diag_matrix([1.0, 0.0, 3.0])):
            D, L, U = _mask_parts(A)
            np.testing.assert_array_equal(dense(D), dense(A))
            np.testing.assert_array_equal(D.values, A.values)
            assert L.nnz == 0 and U.nnz == 0

    def test_reassembly_bit_exact(self, rng):
        for _ in range(10):
            A = random_dominant(rng, 12)
            for X in (A, with_explicit_zeros(rng, A)):
                D, L, U = _mask_parts(X)
                recombined = sparse_sub(sparse_sub(D, L), U)
                np.testing.assert_array_equal(dense(recombined), dense(X))


def _part_cases(rng):
    dense = rng.uniform(-1, 1, (9, 9))
    dense[rng.random((9, 9)) < 0.5] = 0.0
    dense[[1, 4, 7], [1, 4, 7]] = 0.0  # missing diagonal entries
    dense[[2, 5]] = 0.0  # empty rows
    A = from_dense(dense)
    example = gen_example41(5, -1.0)[1].A
    cases = {
        "missing diagonal, empty rows": A,
        "stored zeros": with_explicit_zeros(rng, random_dominant(rng, 12), frac=0.5),
        "n = 1": from_dense([[2.0]]),
        "n = 1, no entry": zeros(1),
        "order 0": zeros(0),
        "example41": example,
        "int64 indices": with_int64_indices(A),
        "int64 example41": with_int64_indices(example),
    }
    assert cases["int64 indices"].col_idx.dtype == np.int64
    return cases


def _assert_same_matrix(got, want, what):
    assert got.shape == want.shape, what
    assert got.values.dtype == want.values.dtype == np.float64, what
    assert got.row_ptr.dtype == want.row_ptr.dtype, what
    assert got.col_idx.dtype == want.col_idx.dtype, what
    for arr in ("row_ptr", "col_idx", "values"):
        np.testing.assert_array_equal(getattr(got, arr), getattr(want, arr),
                                      err_msg=f"{what}: {arr}")


class TestPartsAgainstMasks:
    """The one-pass triangular builder against formulas on the mask parts."""

    def test_splittings_unchanged(self, rng):
        # M and N of each triangular kind against the formulas on the mask parts
        kinds = [SplittingKind("nj"), SplittingKind("ngs"), SplittingKind("nsor", alpha=0.3),
                 SplittingKind("naor", alpha=1.2, beta=0.7),
                 SplittingKind("naor", alpha=2.5, beta=3.0)]
        for name, A in _part_cases(rng).items():
            D, L, _ = _mask_parts(A)
            for kind in kinds:
                a = kind.alpha
                M = {
                    "nj": lambda: sparse_sub(D, zeros(A.n_rows)),  # D less its stored zeros
                    "ngs": lambda: sparse_sub(D, L),
                    "nsor": lambda: sparse_sub(sparse_scale(1.0 / a, D), L),
                    "naor": lambda: sparse_sub(sparse_scale(1.0 / a, D),
                                               sparse_scale(kind.beta / a, L)),
                }[kind.name]()
                s = build_splitting(A, kind)
                _assert_same_matrix(s.M, M, f"{name} {kind.name} M")
                _assert_same_matrix(s.N, sparse_sub(M, A), f"{name} {kind.name} N")

    def test_triangular_parts_store_no_zero(self, rng):
        kinds = ["nj", "ngs", SplittingKind("nsor", alpha=0.3),
                 SplittingKind("naor", alpha=1.2, beta=0.7)]
        for name, A in _part_cases(rng).items():
            for kind in kinds:
                s = build_splitting(A, kind)
                for part in ("M", "N"):
                    assert np.all(getattr(s, part).values != 0.0), f"{name} {kind} {part}"


class TestBuildSplitting:
    def test_splitting_identity_all_kinds(self, rng):
        # random_dominant's entries are multiples of 2**-52, on which every
        # (a +- b) / 2 is exact; the 2x2 matrix's entries are not
        general = from_dense(np.array([[1.0, 0.1], [0.2, 3.0]]))
        for A in [random_dominant(rng, 20) for _ in range(5)] + [general]:
            for kind in _all_kinds():
                omega = diag_matrix(np.full(A.n_rows, 1.0)) if kind.name == "nmn" else None
                s = build_splitting(A, kind, omega)
                diff = sparse_sub(s.M, s.N)
                if kind.name in EXACT_KINDS:
                    np.testing.assert_array_equal(dense(diff), dense(A))
                else:
                    np.testing.assert_allclose(
                        dense(diff), dense(A), atol=1e-13
                    )
                x = rng.uniform(-1, 1, A.n_rows)
                lhs = spmv(s.M, x) - spmv(s.N, x)
                rhs = spmv(A, x)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_formulas_match_remarks(self, rng):
        A = random_dominant(rng, 10)
        D, L, U = _mask_parts(A)
        nj = build_splitting(A, "nj")
        np.testing.assert_array_equal(dense(nj.M), dense(D))
        np.testing.assert_array_equal(dense(nj.N), (dense(L) + dense(U)))
        ngs = build_splitting(A, "ngs")
        np.testing.assert_array_equal(dense(ngs.M), dense(D) - dense(L))
        np.testing.assert_array_equal(dense(ngs.N), dense(U))
        alpha = 0.8
        nsor = build_splitting(A, SplittingKind("nsor", alpha=alpha))
        np.testing.assert_allclose(
            dense(nsor.M), dense(D) / alpha - dense(L), rtol=1e-15
        )
        np.testing.assert_allclose(
            dense(nsor.N),
            (1 / alpha - 1) * dense(D) + dense(U),
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
        np.testing.assert_array_equal(dense(s.M), dense(s.M).T)
        # N = -S must be antisymmetric
        np.testing.assert_array_equal(dense(s.N), -dense(s.N).T)

    def test_nmn_matrices(self, rng):
        A = random_dominant(rng, 8)
        om = diag_matrix(np.full(8, 2.0))
        s = build_splitting(A, "nmn", om)
        omega = dense(resolve_omega(om, 8))
        np.testing.assert_allclose(dense(s.M), (dense(A) - omega) / 2, rtol=1e-15)
        np.testing.assert_allclose(dense(s.N), -(dense(A) + omega) / 2, atol=1e-14)
        np.testing.assert_array_equal(dense(s.omega), omega)

    def test_drs_pins_omega(self, rng):
        A = random_dominant(rng, 8)
        gamma = 0.6
        s = build_splitting(A, SplittingKind("drs", gamma=gamma))
        np.testing.assert_allclose(
            dense(s.omega), (2 / gamma - 1) * dense(A), rtol=1e-15
        )
        with pytest.raises(ConfigurationError):
            build_splitting(A, SplittingKind("drs", gamma=gamma), diag_matrix(np.full(8, 1.0)))

    def test_drs_accepts_zero_omega(self, rng):
        A = random_dominant(rng, 8)
        kind = SplittingKind("drs", gamma=0.6)
        s = build_splitting(A, kind, zeros(8))
        np.testing.assert_array_equal(
            dense(s.omega), dense(build_splitting(A, kind).omega)
        )

    def test_picard_pins_zero_omega(self, rng):
        A = random_dominant(rng, 6)
        s = build_splitting(A, "picard")
        assert s.omega.shape == (6, 6) and s.omega.nnz == 0

    def test_picard_rejects_nonzero_omega(self, rng):
        A = random_dominant(rng, 6)
        build_splitting(A, "picard", zeros(6))  # fine
        with pytest.raises(ConfigurationError):
            build_splitting(A, "picard", diag_matrix(np.full(6, 1.0)))

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

    @pytest.mark.parametrize("name", [k for k in KINDS if k not in ("nsor", "naor")])
    def test_only_nsor_and_naor_take_alpha(self, name):
        # an ngs with alpha=1.7 used to run plain ngs under the name ngs(1.7)
        gamma = 1.0 if name == "drs" else None
        with pytest.raises(ParameterError, match=f"^{name} takes no alpha$"):
            SplittingKind(name, alpha=1.7, gamma=gamma)

    @pytest.mark.parametrize("name", [k for k in KINDS if k != "naor"])
    def test_only_naor_takes_beta(self, name):
        alpha = 0.9 if name == "nsor" else None
        gamma = 1.0 if name == "drs" else None
        with pytest.raises(ParameterError, match=f"^{name} takes no beta$"):
            SplittingKind(name, alpha=alpha, beta=0.5, gamma=gamma)

    @pytest.mark.parametrize("kind", _all_kinds(), ids=lambda kind: kind.name)
    def test_every_kind_may_carry_gamma(self, kind):
        # certify reads the Cor36 gamma from the method's kind, whatever it is
        assert SplittingKind(kind.name, kind.alpha, kind.beta, gamma=1.0).gamma == 1.0

    @pytest.mark.parametrize("alpha, beta", [
        (np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5), (1.0, -np.inf),
    ])
    def test_naor_requires_finite_parameters(self, alpha, beta):
        # a NaN alpha used to reach the LU and fail there (exit 3)
        with pytest.raises(ParameterError, match="finite"):
            SplittingKind("naor", alpha=alpha, beta=beta)


class TestResolveOmega:
    def test_zero(self):
        om = resolve_omega(zeros(5), 5)
        assert om.shape == (5, 5) and om.nnz == 0

    def test_scalar_identity(self):
        om = resolve_omega(diag_matrix(np.full(3, 2.0)), 3)
        np.testing.assert_array_equal(dense(om), 2.0 * np.eye(3))

    def test_scaled_matrix(self):
        base = tridiag(-1, 4, -1, 4)
        om = resolve_omega(OmegaSpec.scaled(1.5, base), 4)
        np.testing.assert_array_equal(dense(om), 1.5 * dense(base))

    def test_explicit_passthrough(self):
        m = identity(4)
        assert resolve_omega(m, 4) is m

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            resolve_omega(OmegaSpec.scaled(1.0, identity(3)), 4)
        with pytest.raises(DimensionError):
            resolve_omega(zeros(2), 4)

    def test_none_means_zero(self):
        assert resolve_omega(None, 3).nnz == 0

    def test_scaled_without_base_is_a_configuration_error(self):
        # refused when the recipe is made, before anything resolves it
        with pytest.raises(ConfigurationError, match="no base matrix"):
            resolve_omega(OmegaSpec.scaled(1.5, None), 4)
        with pytest.raises(ConfigurationError, match="no base matrix"):
            build_splitting(tridiag(-1, 4, -1, 4), "nj", OmegaSpec.scaled(1.5, None))


# the shift spellings a caller may pass, as (hatM, n) -> shift
SHIFT_SPELLINGS = {
    "none": lambda hat, n: None,
    "zero": lambda hat, n: zeros(n),
    "scalar0": lambda hat, n: diag_matrix(np.full(n, 0.0)),
    "scalar1.5": lambda hat, n: diag_matrix(np.full(n, 1.5)),
    "hatM": lambda hat, n: OmegaSpec.scaled(1.0, hat),
    "0hatM": lambda hat, n: OmegaSpec.scaled(0.0, hat),
    "matrix": lambda hat, n: sparse_scale(0.5, hat),
    "wrong-shape": lambda hat, n: identity(n + 1),
}


def _outcome(run, summary):
    """``summary(run())``, or the type and message of the library error it raises."""
    try:
        return summary(run())
    except GavekitError as exc:
        return type(exc), str(exc)


def _matrix(X):
    return X.shape, X.row_ptr.tobytes(), X.col_idx.tobytes(), X.values.tobytes()


def _solve(report):
    return report.iterations, repr(report.final_res), report.x.tobytes()


class TestOneShiftRule:
    """A shift given to build_splitting and one given to a solver obey one rule."""

    config = SolverConfig(k_max=30)

    @pytest.mark.parametrize("spelling", list(SHIFT_SPELLINGS))
    @pytest.mark.parametrize(
        "kind", [k for k in _all_kinds() if k.name != "nmn"], ids=lambda kind: kind.name
    )
    def test_build_and_override_agree(self, kind, spelling):
        _, problem, hat = gen_example41(6, 4.0)
        omega = SHIFT_SPELLINGS[spelling](hat, problem.n)
        A = problem.A
        built = _outcome(lambda: build_splitting(A, kind, omega).omega, _matrix)
        assert built == _outcome(lambda: build_splitting(A, kind).shift(omega), _matrix)
        via_build = _outcome(
            lambda: nms_solve(problem, build_splitting(A, kind, omega), config=self.config),
            _solve,
        )
        via_override = _outcome(
            lambda: nms_solve(problem, build_splitting(A, kind), omega, self.config), _solve
        )
        assert via_build == via_override

    @pytest.mark.parametrize("spelling", list(SHIFT_SPELLINGS))
    def test_nmn_build_requires_a_shift_and_override_refuses_one(self, spelling):
        # nmn differs by design: its shift is the one it is built from
        _, problem, hat = gen_example41(6, 4.0)
        omega = SHIFT_SPELLINGS[spelling](hat, problem.n)
        refused = (ConfigurationError,
                   "splitting 'nmn' pins its own shift matrix; do not supply one")
        if omega is None:
            with pytest.raises(ConfigurationError, match="^nmn requires an explicit shift"):
                build_splitting(problem.A, "nmn")
            return
        if spelling == "wrong-shape":
            with pytest.raises(DimensionError, match="^omega matrix has shape"):
                build_splitting(problem.A, "nmn", omega)
        else:
            assert build_splitting(problem.A, "nmn", omega).omega.shape == (problem.n, problem.n)
        splitting = build_splitting(problem.A, "nmn", OmegaSpec.scaled(1.0, hat))
        assert _outcome(lambda: splitting.shift(omega), _matrix) == refused
        assert _outcome(lambda: nms_solve(problem, splitting, omega, self.config),
                        _solve) == refused

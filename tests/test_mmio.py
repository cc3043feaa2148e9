"""Matrix Market and vector file round trips."""

import hashlib
import pathlib
import re

import numpy as np
import pytest

from gavekit import (
    DimensionError,
    FormatError,
    ParameterError,
    SparseMatrix,
    read_matrix_market,
    read_vector,
    write_matrix_market,
    write_vector,
)
from gavekit.mmio import _CHUNK
from gavekit.problems import gen_certified, gen_example41, load_problem, save_problem

from conftest import random_sparse

_HEAD = "%%MatrixMarket matrix coordinate real general\n"
_MM = _HEAD + "2 2 1\n"


def test_matrix_round_trip_bit_exact(tmp_path, rng):
    A = random_sparse(rng, 11, 7)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, A)
    B = read_matrix_market(path)
    assert B.shape == A.shape
    np.testing.assert_array_equal(B.row_ptr, A.row_ptr)
    np.testing.assert_array_equal(B.col_idx, A.col_idx)
    np.testing.assert_array_equal(B.values, A.values)


def test_explicit_zero_survives_round_trip(tmp_path):
    A = SparseMatrix.from_coo(2, 2, [0, 1], [1, 0], [0.0, 3.5])
    path = tmp_path / "z.mtx"
    write_matrix_market(path, A)
    B = read_matrix_market(path)
    assert B.nnz == 2
    np.testing.assert_array_equal(B.values, [0.0, 3.5])


def test_file_layout_one_based(tmp_path):
    A = SparseMatrix.from_coo(2, 3, [0, 1], [2, 0], [1.5, -2.0])
    path = tmp_path / "layout.mtx"
    write_matrix_market(path, A)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "2 3 2"
    assert lines[2].split()[:2] == ["1", "3"]
    assert lines[3].split()[:2] == ["2", "1"]
    # 17 significant digits
    assert lines[2].split()[2] == f"{1.5:.16e}"


def test_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
    with pytest.raises(FormatError, match="unsupported"):
        read_matrix_market(path)
    path.write_text("1 1 0\n")
    with pytest.raises(FormatError, match="header"):
        read_matrix_market(path)


def test_rejects_wrong_entry_count(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
    )
    with pytest.raises(FormatError, match="expected 2 entries"):
        read_matrix_market(path)


def test_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n"
    )
    with pytest.raises(FormatError, match="duplicate"):
        read_matrix_market(path)


def test_reads_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "2 2 1\n"
        "\n"
        "% another\n"
        "2 1 -4.0\n"
    )
    A = read_matrix_market(path)
    assert A.to_dense()[1, 0] == -4.0


def test_vector_round_trip_bit_exact(tmp_path, rng):
    x = rng.uniform(-1e3, 1e3, 57)
    path = tmp_path / "v.txt"
    write_vector(path, x)
    np.testing.assert_array_equal(read_vector(path), x)
    first = path.read_text().splitlines()[0]
    assert first == f"{x[0]:.16e}"


def test_vector_bad_value(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(FormatError):
        read_vector(path)


@pytest.mark.filterwarnings("error")
def test_empty_bodies_round_trip_without_warnings(tmp_path):
    Z = SparseMatrix.from_coo(3, 3, [], [], [])
    write_matrix_market(tmp_path / "z.mtx", Z)
    B = read_matrix_market(tmp_path / "z.mtx")
    assert B.shape == (3, 3) and B.nnz == 0
    write_vector(tmp_path / "e.txt", np.array([]))
    assert read_vector(tmp_path / "e.txt").shape == (0,)
    # a body of only blank and comment lines is empty too
    path = tmp_path / "c.mtx"
    path.write_text(_HEAD + "2 2 0\n\n% c\n")
    assert read_matrix_market(path).nnz == 0


@pytest.mark.parametrize(
    "reader, text",
    [
        pytest.param(read_matrix_market, _MM + "1 1 2.0 7\n", id="four-columns"),
        pytest.param(read_matrix_market, _MM + "1 1 abc\n", id="non-numeric"),
        pytest.param(read_matrix_market, _MM + "1.5 1 2.0\n", id="non-integer"),
        pytest.param(read_matrix_market, _MM + "1 1 2.0\n2 2 3.0\n", id="too-many"),
        pytest.param(read_vector, "1.0\nnot-a-number\n", id="vector-bad-line"),
        pytest.param(read_vector, "1.0 2.0\n", id="vector-two-values"),
    ],
)
def test_rejections_name_the_path(tmp_path, reader, text):
    path = tmp_path / "bad"
    path.write_text(text)
    with pytest.raises(FormatError, match=re.escape(str(path))):
        reader(path)


def test_output_matches_per_line_reference_across_chunks(tmp_path, rng):
    n = 2 * _CHUNK + 37
    rows = rng.permutation(n)
    cols = rng.integers(0, 50, n)
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    vals[:3] = [0.0, -0.0, 5e-324]
    A = SparseMatrix.from_coo(n, 50, rows, cols, vals)
    write_matrix_market(tmp_path / "a.mtx", A)
    r, c, v = A.coo_arrays()
    expected = "".join(f"{i + 1} {j + 1} {x:.16e}\n" for i, j, x in zip(r, c, v))
    text = (tmp_path / "a.mtx").read_text()
    assert text == _HEAD + f"{n} 50 {n}\n" + expected
    B = read_matrix_market(tmp_path / "a.mtx")
    np.testing.assert_array_equal(B.row_ptr, A.row_ptr)
    np.testing.assert_array_equal(B.col_idx, A.col_idx)
    np.testing.assert_array_equal(B.values, A.values)
    write_vector(tmp_path / "v.txt", vals)
    assert (tmp_path / "v.txt").read_text() == "".join(f"{x:.16e}\n" for x in vals)
    np.testing.assert_array_equal(read_vector(tmp_path / "v.txt"), vals)


def test_resave_of_golden_problem_is_byte_identical(tmp_path):
    golden = pathlib.Path(__file__).parent / "data" / "certified_n8_seed42"
    save_problem(load_problem(golden), tmp_path / "p")
    for name in ["A.mtx", "B.mtx", "b.txt", "xstar.txt"]:
        assert (tmp_path / "p" / name).read_bytes() == (golden / name).read_bytes()


def test_repeated_values_across_chunks_keep_their_bits(tmp_path, rng):
    # each distinct bit pattern is formatted once per chunk: -0.0 is not 0.0
    n = 2 * _CHUNK + 37
    pool = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1.0, 4.0])
    vals = rng.choice(pool, n)
    A = SparseMatrix.from_coo(n, 50, rng.permutation(n), rng.integers(0, 50, n), vals)
    write_matrix_market(tmp_path / "a.mtx", A)
    r, c, v = A.coo_arrays()
    expected = "".join(f"{i + 1} {j + 1} {x:.16e}\n" for i, j, x in zip(r, c, v))
    assert (tmp_path / "a.mtx").read_text() == _HEAD + f"{n} 50 {n}\n" + expected
    B = read_matrix_market(tmp_path / "a.mtx")
    np.testing.assert_array_equal(B.col_idx, A.col_idx)
    np.testing.assert_array_equal(B.values.view(np.uint64), A.values.view(np.uint64))
    write_vector(tmp_path / "v.txt", vals)
    assert (tmp_path / "v.txt").read_text() == "".join(f"{x:.16e}\n" for x in vals)
    np.testing.assert_array_equal(read_vector(tmp_path / "v.txt").view(np.uint64),
                                  vals.view(np.uint64))


_EX41_XSTAR = "6b68486bd3883979e28f1d7915b2928261d9188db796e4626289b466d37e2c52"


@pytest.mark.parametrize(
    "problem, digests",
    [
        pytest.param(lambda: gen_example41(30, 4)[1], {
            "A.mtx": "c898407e93e1ac0f78fe935e2c6808d97a0a928fa2c9fd3420ae8add8a684a35",
            "B.mtx": "bbcb49038d490d55a1b808d82c428462b3b587283aa79f9bc3125db339bfb5e0",
            "b.txt": "fcf17b7c801b3265f11bc7eac66c904ba39baa70108797989383c6b8df336675",
            "xstar.txt": _EX41_XSTAR,
        }, id="example41-m30-mu4"),
        pytest.param(lambda: gen_example41(30, -1)[1], {
            "A.mtx": "f56ef9ec4f38117a9203b987590c3f2723b3230ed6d966fb5e926146be00957f",
            "B.mtx": "a75b13f294e133d74602393ec17739c7bbe4d5143854a2503a5ae9a10abb56f5",
            "b.txt": "db5ce78567667c018f587032f941e6e1e89b201019fd0530f0421d8724aad268",
            "xstar.txt": _EX41_XSTAR,
        }, id="example41-m30-mu-1"),
        pytest.param(lambda: gen_certified(600, 3), {  # every value distinct
            "A.mtx": "947b777ace7ff181620aef484ecc01b01117ca3b96f379c79b9a7e1597e9bcd7",
            "b.txt": "8e443a43f12ed9607cd0514660e9eb8041d667c03eb4aaf4ffb910a567da5398",
        }, id="certified-n600-seed3"),
    ],
)
def test_saved_problem_files_keep_their_bytes(tmp_path, problem, digests):
    save_problem(problem(), tmp_path)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize(
    "value, error",
    [
        pytest.param(np.ones((3, 2)), DimensionError, id="2-D"),
        pytest.param(np.float64(1.0), DimensionError, id="0-d"),
        pytest.param(np.array([1.0, 2.0j]), ParameterError, id="complex"),
    ],
)
def test_write_vector_refuses_before_opening_the_path(tmp_path, value, error):
    path = tmp_path / "keep.txt"
    path.write_bytes(b"1.0\n")
    with pytest.raises(error, match=re.escape(str(path))):
        write_vector(path, value)
    assert path.read_bytes() == b"1.0\n"

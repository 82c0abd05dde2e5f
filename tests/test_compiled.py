"""The compiled routines bound by ``wavemotil._compiled`` against scipy's
public wrappers of the same routines, bit for bit."""

import importlib.machinery
from importlib.metadata import version

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.linalg import blas, lapack

import wavemotil.pde as pde
from wavemotil import _compiled


def _spd_tridiagonal(rng, n):
    """Diagonal and off-diagonal of a random diagonally dominant SPD
    tridiagonal matrix."""
    e = rng.uniform(-1.0, 1.0, n - 1)
    d = 2.0 + rng.random(n)
    return d, e


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("overwrite", [0, 1])
def test_pttrf_and_pttrs_match_scipy(seed, overwrite):
    rng = np.random.default_rng(seed)
    d, e = _spd_tridiagonal(rng, 50 + 7 * seed)
    b = rng.standard_normal(d.size)
    mine, public = (d.copy(), e.copy()), (d.copy(), e.copy())
    df, ef, info = _compiled.dpttrf(*mine, overwrite_d=overwrite, overwrite_e=overwrite)
    ref = lapack.dpttrf(*public, overwrite_d=overwrite, overwrite_e=overwrite)
    assert info == ref[2] == 0
    assert np.array_equal(df, ref[0]) and np.array_equal(ef, ref[1])
    assert np.shares_memory(df, mine[0]) == bool(overwrite)
    assert np.array_equal(mine[0], public[0]) and np.array_equal(mine[1], public[1])
    rhs_mine, rhs_public = b.copy(), b.copy()
    x, info = _compiled.dpttrs(df, ef, rhs_mine, overwrite_b=overwrite)
    x_ref, info_ref = lapack.dpttrs(ref[0], ref[1], rhs_public, overwrite_b=overwrite)
    assert info == info_ref == 0
    assert np.array_equal(x, x_ref)
    assert np.array_equal(rhs_mine, rhs_public)


def test_pttrf_info_matches_scipy_on_an_indefinite_matrix():
    d, e = np.array([1.0, -1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5])
    info = _compiled.dpttrf(d.copy(), e.copy())[2]
    assert info == lapack.dpttrf(d.copy(), e.copy())[2] == 2


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("overwrite", [0, 1])
def test_gtsv_matches_scipy(seed, overwrite):
    rng = np.random.default_rng(10 + seed)
    n = 40 + 5 * seed
    dl, du = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
    d = 2.5 + rng.random(n)
    b = rng.standard_normal(n)
    flags = {f"overwrite_{k}": overwrite for k in ("dl", "d", "du", "b")}
    mine = _compiled.dgtsv(dl.copy(), d.copy(), du.copy(), b.copy(), **flags)
    public = lapack.dgtsv(dl.copy(), d.copy(), du.copy(), b.copy(), **flags)
    assert mine[-1] == public[-1] == 0
    for got, want in zip(mine[:-1], public[:-1]):
        assert np.array_equal(got, want)


def test_gtsv_info_matches_scipy_on_a_singular_matrix():
    dl, du = np.zeros(2), np.zeros(2)
    d, b = np.array([1.0, 0.0, 1.0]), np.ones(3)
    info = _compiled.dgtsv(dl.copy(), d.copy(), du.copy(), b.copy())[-1]
    assert info == lapack.dgtsv(dl.copy(), d.copy(), du.copy(), b.copy())[-1] == 2


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lower", [0, 1])
@pytest.mark.parametrize("overwrite", [0, 1])
def test_tbtrs_matches_scipy_lapack_and_blas_on_unit_banded_systems(seed, lower, overwrite):
    # As solve_v calls it: the (3, m + 2) leading columns of one Fortran
    # band array, two off-diagonal bands and a unit diagonal.  With
    # diag="U" dtbtrs runs BLAS dtbsv on the same operands, bit for bit.
    rng = np.random.default_rng(20 + seed)
    m = 30 + 3 * seed
    band = np.asfortranarray(rng.uniform(-0.5, 0.5, (3, m + 7)))[:, : m + 2]
    x = rng.standard_normal(m + 2)
    mine, public, blas_in = x.copy(), x.copy(), x.copy()
    uplo = "L" if lower else "U"
    got, info = _compiled.dtbtrs(band, mine, uplo=uplo, diag="U", overwrite_b=overwrite)
    want, info_ref = lapack.dtbtrs(band, public, uplo=uplo, diag="U", overwrite_b=overwrite)
    via_blas = blas.dtbsv(2, band, blas_in, lower=lower, diag=1, overwrite_x=overwrite)
    assert info == info_ref == 0
    assert got.shape == want.shape == (m + 2,)
    assert np.array_equal(got, want) and np.array_equal(got, via_blas)
    assert np.shares_memory(got, mine) == bool(overwrite)
    assert np.array_equal(mine, public) and np.array_equal(mine, blas_in)
    assert np.array_equal(mine, got) == bool(overwrite)


@pytest.fixture(scope="module")
def fig4_systems():
    """The red-black pattern of the fig4 grid and a u and a v system on it."""
    f = pde.make_field(2, ((-10.0, 10.0), (-10.0, 10.0)), 0.1, u0=0.0, v0=0.0, disk_mask=True)
    st = pde._stepper_of(f)
    gamma = 0.2 + np.random.default_rng(0).random(f.u.shape)
    return st.pattern, st.u_system(gamma, 0.1), st.v_system(0.1)


def _reference(m):
    return sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def test_products_match_scipy_sparse_on_the_fig4_pattern(fig4_systems):
    pat, u_sys, v_sys = fig4_systems
    rng = np.random.default_rng(1)
    for m in (pat.coupling, pat.refill, u_sys.schur, v_sys.schur):
        ref = _reference(m)
        x = rng.standard_normal(m.shape[1])
        y = rng.standard_normal(m.shape[0])
        assert np.array_equal(m.matvec(x), ref @ x)
        assert np.array_equal(m.rmatvec(y), ref.T @ y)
        # A reused output gives the same bits: it is zeroed first.
        out = rng.standard_normal(m.shape[0])
        assert m.matvec(x, out=out) is out
        assert np.array_equal(out, ref @ x)


def test_missing_extension_file_is_an_import_error(monkeypatch, tmp_path):
    # A scipy directory without the LAPACK extension: the error names the
    # file that is missing and the scipy version.
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(_compiled.importlib.util, "find_spec", lambda name: spec)
    missing = tmp_path / "linalg" / "_flapack"
    with pytest.raises(ImportError, match=f"scipy {version('scipy')} has no {missing}"):
        _compiled._extension("linalg._flapack")
    monkeypatch.setattr(_compiled.importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy, which is not installed"):
        _compiled._extension("linalg._flapack")

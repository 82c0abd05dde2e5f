"""The CSV float formatter against its oracle, Python's ``repr``.

``oracle_rows`` is the ``%r`` formatter the kernel replaced; every test
asserts byte equality with it, on edge values, random bit patterns, table
shapes, the fig2 and fig3 snapshots and the profiles the package writes.
"""

from __future__ import annotations

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavemotil import _floattext
from wavemotil._floattext import csv_blocks
from wavemotil.cli import PRESETS, _sim_config, resolve_config
from wavemotil.pde import simulate
from wavemotil.waveode import WaveProfile


def oracle_rows(columns) -> str:
    """Newline-ended CSV rows of float columns, each float as its ``repr``."""
    table = np.asarray(np.column_stack(columns), dtype=float)
    row = ",".join(["%r"] * table.shape[1]) + "\n"
    return (row * table.shape[0]) % tuple(table.ravel().tolist())


def csv_text(columns) -> str:
    """The streamed blocks of ``csv_blocks`` joined into one string."""
    return b"".join(csv_blocks(columns)).decode("ascii")


def assert_matches_repr(values, widths=(1, 5)) -> None:
    """Rows of ``values`` in tables of each of ``widths`` columns match."""
    values = np.asarray(values, dtype=float).ravel()
    for cols in widths:
        usable = values[: values.size // cols * cols].reshape(-1, cols)
        columns = list(usable.T)
        assert csv_text(columns) == oracle_rows(columns)


def with_neighbours(values) -> np.ndarray:
    """``values``, their ±1-ulp neighbours and all of their negatives."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # the neighbour of the largest float is inf
        near = np.concatenate(
            [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
        )
    return np.concatenate([near, -near])


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 40), st.integers(1, 6)),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
)
def test_any_table_of_floats_matches_repr(table):
    columns = list(table.T)
    assert csv_text(columns) == oracle_rows(columns)


def test_random_bit_patterns_match_repr():
    rng = np.random.default_rng(20201)
    for _ in range(8):
        bits = rng.integers(0, 2**64 - 1, size=131_072, dtype=np.uint64, endpoint=True)
        assert_matches_repr(bits.view(np.float64), widths=(5,))


def test_powers_of_two_and_ten_and_their_neighbours_match_repr():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_matches_repr(with_neighbours(np.concatenate([twos, tens])))


@pytest.mark.parametrize(
    "values",
    [
        # integers around 2^53, where the spacing of floats passes 1
        [2.0**53 + j for j in range(-40, 41)],
        # the switch between exponent and positional layout at 1e-4
        [1e-5, 1e-4, 9.999999999999999e-05, 0.00010000000000000002, 1.2345e-4],
        # and at 1e16, integral values below it written with ".0"
        [1e16, 9999999999999998.0, 1e15, 123456789012345.0, 1.5e16, 1e17],
        # three-digit exponents
        [1e100, 1.5e-100, 1e308, 1.7976931348623157e308, 2.2250738585072014e-308],
        # zeros, subnormals, infinities and NaN, which take repr itself
        [0.0, 5e-324, 2.225073858507201e-308, math.inf, math.nan, 1e-320],
        # an exact tie between the two nearest candidates, which takes repr
        [987947971728212.25, 0.5, 0.1, 0.3, 1 / 3, 2 / 3],
    ],
    ids=["near-2^53", "1e-4", "1e16", "three-digit-exponent", "special", "ties"],
)
def test_edge_values_match_repr(values):
    assert_matches_repr(with_neighbours(values))


def test_an_exact_tie_and_the_special_classes_are_left_to_repr():
    x = np.array([987947971728212.25, 5e-324, math.inf, math.nan, 0.1, 0.0, -0.0])
    undecided = _floattext._shortest(x)[3]
    assert undecided.tolist() == [True, True, True, True, False, False, False]


@pytest.mark.parametrize("rows, cols", [(0, 3), (1, 1), (7, 1), (3, 5), (2000, 5)])
def test_table_shapes_match_repr(rows, cols):
    # 2000 x 5 cells span several blocks and end in a partial one.
    rng = np.random.default_rng(rows * 10 + cols)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 20, (rows, cols))
    columns = list(table.T)
    assert csv_text(columns) == oracle_rows(columns)


@pytest.mark.parametrize("cols", [1, 3, 5, 7])
def test_streamed_blocks_are_whole_rows_of_the_oracle_table(cols):
    # rows for three full blocks and one row more; seven columns do not
    # divide a block, so its blocks hold fewer cells than _CHUNK
    step = _floattext._CHUNK // cols
    shape = (3 * step + 1, cols)
    rng = np.random.default_rng(cols)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, shape)
    columns = list(table.T)
    blocks = list(csv_blocks(columns))
    assert [block.count(b"\n") for block in blocks] == [step, step, step, 1]
    assert all(block.endswith(b"\n") for block in blocks)
    assert b"".join(blocks) == oracle_rows(columns).encode()


def _profile(rows: int, seed: int = 0) -> types.SimpleNamespace:
    """The five columns of a WaveProfile, as random floats."""
    rng = np.random.default_rng(seed)
    names = ("grid", "U", "V", "Uprime", "Vprime")
    return types.SimpleNamespace(**{name: rng.standard_normal(rows) for name in names})


def test_write_csv_streams_the_oracle_rows(tmp_path):
    profile = _profile(3 * _floattext._CHUNK // 5 + 2)
    WaveProfile.write_csv(profile, tmp_path / "wave.csv")
    columns = (profile.grid, profile.U, profile.V, profile.Uprime, profile.Vprime)
    expected = b"z,U,V,Uprime,Vprime\n" + oracle_rows(columns).encode()
    assert (tmp_path / "wave.csv").read_bytes() == expected


def test_write_csv_working_set_does_not_grow_with_the_table(tmp_path):
    # 90,071 rows (a 9 MB file) are the largest frame grid of the speed
    # window sweep; the writer holds one block of cells at a time.
    WaveProfile.write_csv(_profile(10), tmp_path / "warm.csv")
    profile = _profile(90_071)
    tracemalloc.start()
    try:
        WaveProfile.write_csv(profile, tmp_path / "wave.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_power_table_brackets_each_power_of_ten():
    # (g - 1) 2^r <= 10^-k < g 2^r with 2^125 <= g - 1 < 2^126.
    table = _floattext._powers()
    for index, k in enumerate(range(_floattext._K_MIN, _floattext._K_MAX + 1)):
        g = int(table[0, index]) | int(table[1, index]) << 64
        r = _floattext._flog2pow10(-k) - 125
        assert 2**125 <= g - 1 < 2**126
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        if r < 0:
            num <<= -r
        else:
            den <<= r
        assert (g - 1) * den <= num < g * den, k


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_first_and_last_preset_snapshots_match_repr(preset):
    first = []
    traj = simulate(
        _sim_config(resolve_config("simulate", PRESETS[preset])),
        on_snapshot=lambda k, f: first.append(f) if k == 0 else None,
    )
    for name, f in (("first", first[0]), ("last", traj.snapshots[-1])):
        assert csv_text((f.x, f.u, f.v)) == oracle_rows((f.x, f.u, f.v)), name

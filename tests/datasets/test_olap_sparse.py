"""The OLAP cube is sparse: memory follows the non-empty cells, and the
sparse roll-up agrees cell by cell with a direct aggregation."""

import tracemalloc

import numpy as np
import pytest

from repro.datasets import OLAPCube, generate_fact_table


@pytest.fixture(scope="module")
def table():
    return generate_fact_table(20_000, seed=9)


def test_build_and_rollup_peak_memory_is_bounded(table):
    """A dense grid would need 3.5 GB per measure; the sparse cube and
    its roll-up stay within a few MiB for 20,000 rows."""
    tracemalloc.start()
    try:
        cube = OLAPCube.from_fact_table(table)
        rolled = cube.roll_up_orderdate(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert int(rolled.counts.sum()) == 20_000


def test_rollup_matches_direct_aggregation(table):
    coords = table.coordinates().astype(np.int64)
    rolled = OLAPCube.from_fact_table(table).roll_up_orderdate(3)
    coords[:, 0] //= 3
    cells, counts = np.unique(coords, axis=0, return_counts=True)
    for cell, n in zip(cells[::997], counts[::997]):
        cell = tuple(int(v) for v in cell)
        assert rolled.counts[cell] == n
        rows = (coords == cell).all(axis=1)
        assert rolled.profit[cell] == pytest.approx(table.profit[rows].sum())
    assert rolled.occupancy() == pytest.approx(
        len(cells) / rolled.counts.size
    )


def test_empty_cells_read_as_zero(table):
    cube = OLAPCube.from_fact_table(table)
    filled = {tuple(int(v) for v in row) for row in table.coordinates()}
    empty = next(c for c in ((d, 0, 0, 0) for d in range(cube.dims[0]))
                 if c not in filled)
    assert cube.counts[empty] == 0
    assert cube.profit[empty] == 0.0

"""The 4-D OLAP cube of §5.5 and its five queries.

From the TPC-H fact table the paper forms a cube over (OrderDate, Product
type, Nation, Quantity) of size (2361, 150, 25, 50).  Individual cells are
too sparse to fill a disk block, so OrderDate is **rolled up by 2**
("combine two cells into one cell along OrderDate"), giving
(1182, 150, 25, 50); chunking for one disk yields (591, 75, 25, 25) —
each cell then holds the sales of one product/quantity/nation combination
over two days.

Queries (paper wording, §5.5):

* **Q1** "profit of product P with quantity Q to country C over all
  dates" — beam along OrderDate (the major order);
* **Q2** "… on a specific date over all countries" — beam along Nation;
* **Q3** "product P, all quantities, country C, one year" — 2-D range
  (183 rolled days x 25 quantities);
* **Q4** "product P over all countries, quantities in one year" — 3-D
  range (183 x 25 x 25);
* **Q5** "10 products, 10 quantities, 10 countries, 20 days" — 4-D range
  (10 x 10 x 10 x 10 after roll-up).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.tpch import FactTable
from repro.errors import DatasetError, QueryError
from repro.query.workload import BeamQuery, RangeQuery

__all__ = [
    "OLAP_RAW_DIMS",
    "OLAP_ROLLED_DIMS",
    "OLAP_CHUNK_DIMS",
    "CellValues",
    "OLAPCube",
    "paper_olap_queries",
]

#: (OrderDate, ProductType, Nation, Quantity)
OLAP_RAW_DIMS = (2361, 150, 25, 50)
OLAP_ROLLED_DIMS = (1182, 150, 25, 50)
OLAP_CHUNK_DIMS = (591, 75, 25, 25)

AXIS_ORDERDATE, AXIS_PRODUCT, AXIS_NATION, AXIS_QUANTITY = range(4)


@dataclass(frozen=True)
class CellValues:
    """A read-only, array-like view of one per-cell measure of a sparse
    cube: only non-empty cells are stored, as sorted flat (C-order) cell
    keys plus values, so memory follows the data present, not the
    nominal grid.  Empty cells read as zero."""

    dims: tuple[int, ...]
    keys: np.ndarray
    values: np.ndarray

    @property
    def size(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))

    def sum(self):
        return self.values.sum()

    def mean(self) -> float:
        return float(self.values.sum() / self.size)

    def __getitem__(self, index):
        flat = np.ravel_multi_index(tuple(int(i) for i in index), self.dims)
        i = int(np.searchsorted(self.keys, flat))
        if i < len(self.keys) and self.keys[i] == flat:
            return self.values[i]
        return self.values.dtype.type(0)


@dataclass
class OLAPCube:
    """A sparse aggregate cube (counts + profit sums per non-empty
    cell), after the sparse-cube argument of "On the Scalability of
    Multidimensional Databases": the paper's grid has 4.4e8 cells, a
    fact table fills a few tens of thousands of them."""

    dims: tuple[int, ...]
    counts: CellValues
    profit: CellValues
    rollup: int = 1

    @classmethod
    def _reduce(cls, dims, flat, counts, profit, rollup) -> "OLAPCube":
        """Sum ``counts``/``profit`` over equal flat cell keys."""
        keys, inverse = np.unique(flat, return_inverse=True)
        summed = np.bincount(inverse, weights=counts, minlength=len(keys))
        return cls(
            dims,
            CellValues(dims, keys, summed.astype(np.int64)),
            CellValues(dims, keys, np.bincount(
                inverse, weights=profit, minlength=len(keys)
            )),
            rollup,
        )

    @classmethod
    def from_fact_table(cls, table: FactTable) -> "OLAPCube":
        """Aggregate the fact table on the four dimensions."""
        dims = OLAP_RAW_DIMS
        coords = table.coordinates()
        flat = np.ravel_multi_index(
            [coords[:, d] for d in range(4)], dims
        )
        return cls._reduce(dims, flat, np.ones(len(flat)), table.profit, 1)

    def roll_up_orderdate(self, factor: int = 2) -> "OLAPCube":
        """Combine ``factor`` consecutive OrderDate cells into one (§5.5:
        "roll up along OrderDate to increase the number of points per
        combination") — integer division of each non-empty cell's
        OrderDate coordinate, then a reduce-by-key."""
        if factor < 1:
            raise DatasetError("factor must be >= 1")
        coords = list(np.unravel_index(self.counts.keys, self.dims))
        coords[0] = coords[0] // factor
        new_dims = (-(-self.dims[0] // factor),) + self.dims[1:]
        return OLAPCube._reduce(
            new_dims, np.ravel_multi_index(coords, new_dims),
            self.counts.values, self.profit.values, self.rollup * factor,
        )

    @property
    def mean_points_per_cell(self) -> float:
        return self.counts.mean()

    def occupancy(self) -> float:
        """Fraction of cells holding at least one point."""
        return len(self.counts.keys) / self.counts.size


def paper_olap_queries(
    chunk_dims=OLAP_CHUNK_DIMS, rng: np.random.Generator | None = None
) -> dict[str, BeamQuery | RangeQuery]:
    """The five §5.5 queries against one per-disk chunk.

    Random coordinates (product P, quantity Q, country C, year) are drawn
    with ``rng``; pass a seeded generator for reproducibility.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    dims = tuple(int(s) for s in chunk_dims)
    if len(dims) != 4:
        raise QueryError("OLAP chunk must be 4-D")
    year_cells = min(183, dims[AXIS_ORDERDATE])  # 365 days / roll-up 2

    def pick(axis):
        return int(rng.integers(0, dims[axis]))

    def anchored(shape):
        lo = tuple(
            int(rng.integers(0, dims[d] - shape[d] + 1)) for d in range(4)
        )
        hi = tuple(a + w for a, w in zip(lo, shape))
        return RangeQuery(lo=lo, hi=hi)

    q1 = BeamQuery(
        axis=AXIS_ORDERDATE,
        fixed=(0, pick(AXIS_PRODUCT), pick(AXIS_NATION), pick(AXIS_QUANTITY)),
    )
    q2 = BeamQuery(
        axis=AXIS_NATION,
        fixed=(pick(AXIS_ORDERDATE), pick(AXIS_PRODUCT), 0,
               pick(AXIS_QUANTITY)),
    )
    q3 = anchored((year_cells, 1, 1, dims[AXIS_QUANTITY]))
    q4 = anchored((year_cells, 1, dims[AXIS_NATION], dims[AXIS_QUANTITY]))
    q5 = anchored(
        (
            min(10, dims[0]),
            min(10, dims[1]),
            min(10, dims[2]),
            min(10, dims[3]),
        )
    )
    return {"Q1": q1, "Q2": q2, "Q3": q3, "Q4": q4, "Q5": q5}

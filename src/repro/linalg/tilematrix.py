"""Tile-matrix descriptor with optional NumPy backing.

Chameleon divides an ``N x N`` dense matrix into equal ``Nt x Nt`` tiles
(Table II of the paper); each tile is one runtime data handle.  For numeric
verification a :class:`TileMatrix` can be *materialised*: it then carries a
real ndarray, and ``tile(i, j)`` returns the corresponding view.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.kernels.model import dtype_bytes
from repro.runtime.data import DataHandle

_NP_DTYPE = {"single": np.float32, "double": np.float64}


class TileMatrix:
    """A square matrix of ``nt x nt`` equal tiles of edge ``nb``."""

    def __init__(
        self,
        n: int,
        nb: int,
        precision: str,
        label: str = "A",
        symmetric: bool = False,
    ) -> None:
        if n <= 0 or nb <= 0:
            raise ValueError("matrix and tile sizes must be positive")
        if n % nb != 0:
            raise ValueError(
                f"matrix size {n} must be a multiple of the tile size {nb} "
                "(Chameleon uses equal tiles)"
            )
        self.n = n
        self.nb = nb
        self.nt = n // nb
        self.precision = precision
        self.label = label
        self.symmetric = symmetric
        self._tile_bytes = nb * nb * dtype_bytes(precision)
        self._handles: dict[tuple[int, int], DataHandle] = {}
        self.array: Optional[np.ndarray] = None

    # ----------------------------------------------------------------- handles

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.nt and 0 <= j < self.nt):
            raise IndexError(f"tile ({i},{j}) outside {self.nt}x{self.nt}")
        if self.symmetric and j > i:
            raise IndexError(
                f"tile ({i},{j}) is in the strict upper triangle of a "
                "symmetric (lower-stored) matrix"
            )

    def handle(self, i: int, j: int) -> DataHandle:
        """The data handle of tile (i, j), created on first use."""
        key = (i, j)
        h = self._handles.get(key)
        if h is None:
            # Only checked indices are ever stored, so a hit needs no check.
            self._check_index(i, j)
            h = DataHandle(self._tile_bytes, label=f"{self.label}[{i},{j}]")
            self._handles[key] = h
        return h

    def handles(self) -> Iterator[DataHandle]:
        return iter(self._handles.values())

    @property
    def n_handles(self) -> int:
        return len(self._handles)

    @property
    def total_bytes(self) -> int:
        """Bytes of the full (dense or lower-stored) matrix."""
        if self.symmetric:
            return self._tile_bytes * self.nt * (self.nt + 1) // 2
        return self._tile_bytes * self.nt * self.nt

    # ----------------------------------------------------------------- numeric

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(_NP_DTYPE[self.precision])

    def materialize(self, array: Optional[np.ndarray] = None, rng=None) -> np.ndarray:
        """Attach NumPy storage (for numeric DAG verification)."""
        if array is not None:
            array = np.asarray(array, dtype=self.dtype)
            if array.shape != (self.n, self.n):
                raise ValueError(f"expected shape ({self.n},{self.n})")
            self.array = array.copy()
        else:
            gen = rng if rng is not None else np.random.default_rng(0)
            self.array = gen.standard_normal((self.n, self.n)).astype(self.dtype)
        return self.array

    def materialize_spd(self, rng=None) -> np.ndarray:
        """Attach a symmetric positive-definite matrix (for POTRF)."""
        gen = rng if rng is not None else np.random.default_rng(0)
        b = gen.standard_normal((self.n, self.n))
        a = b @ b.T + self.n * np.eye(self.n)
        return self.materialize(a)

    def tile(self, i: int, j: int) -> np.ndarray:
        """NumPy view of tile (i, j); requires materialisation."""
        if self.array is None:
            raise RuntimeError(f"{self.label} is not materialised")
        self._check_index(i, j)
        nb = self.nb
        return self.array[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb]

    def __repr__(self) -> str:  # pragma: no cover
        sym = " sym" if self.symmetric else ""
        return f"<TileMatrix {self.label} {self.n}x{self.n} nb={self.nb}{sym}>"

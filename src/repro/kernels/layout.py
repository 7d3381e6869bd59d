"""Grid memory layout for the stencil kernels.

Input and output grids are row-major ``(z, y, x)`` float64 arrays with a
halo of ``radius`` cells on every face.  ``x`` is the contiguous (unit
stride) dimension; kernels unroll along it.  The layout object knows every
byte stride and address the code generators and golden-comparison code
need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

DOUBLE = 8


@dataclass(frozen=True)
class Grid3d:
    """Interior extents plus halo bookkeeping for one stencil grid."""

    nz: int
    ny: int
    nx: int
    radius: int = 1

    def __post_init__(self):
        if min(self.nz, self.ny, self.nx) < 1:
            raise ValueError(f"empty interior {self.shape_interior}")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")

    # -- shapes ---------------------------------------------------------------

    @property
    def shape_interior(self) -> tuple[int, int, int]:
        return self.nz, self.ny, self.nx

    @property
    def shape_padded(self) -> tuple[int, int, int]:
        r2 = 2 * self.radius
        return self.nz + r2, self.ny + r2, self.nx + r2

    @property
    def points(self) -> int:
        return self.nz * self.ny * self.nx

    # -- byte strides -----------------------------------------------------------

    @property
    def row_bytes(self) -> int:
        return self.shape_padded[2] * DOUBLE

    @property
    def plane_bytes(self) -> int:
        return self.shape_padded[1] * self.row_bytes

    @property
    def total_bytes(self) -> int:
        return self.shape_padded[0] * self.plane_bytes

    # -- addresses ---------------------------------------------------------------

    def element_offset(self, z: int, y: int, x: int) -> int:
        """Byte offset of padded-coordinate ``(z, y, x)`` from the base."""
        _, py, px = self.shape_padded
        return ((z * py + y) * px + x) * DOUBLE

    def interior_offset(self, z: int = 0, y: int = 0, x: int = 0) -> int:
        """Byte offset of interior point ``(z, y, x)``."""
        r = self.radius
        return self.element_offset(z + r, y + r, x + r)

    def linear_index(self, z: int, y: int, x: int) -> int:
        """Element (not byte) index of a padded coordinate."""
        _, py, px = self.shape_padded
        return (z * py + y) * px + x

    # -- data -------------------------------------------------------------------

    def make_input(self, seed: int = 1) -> np.ndarray:
        """Deterministic random input over the padded shape."""
        import numpy as np

        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, self.shape_padded)

    def extract_interior(self, padded: np.ndarray) -> np.ndarray:
        r = self.radius
        return padded[r:r + self.nz, r:r + self.ny, r:r + self.nx]

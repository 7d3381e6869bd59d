"""The kernel build product consumed by the evaluation runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Region marker ids used by every generated kernel: the measured region
#: spans from after the setup/prologue to after the FP-subsystem sync
#: barrier at the end of the compute loops.
MARK_START = 1
MARK_END = 2


@dataclass
class KernelBuild:
    """Everything needed to run one generated kernel and check it."""

    name: str
    asm: str
    symbols: dict[str, int]
    #: ``(address, array)`` pairs to place in TCDM before the run.
    arrays: list[tuple[int, np.ndarray]]
    #: Where the kernel writes its result and its shape.
    output_addr: int
    output_shape: tuple[int, ...]
    #: Bit-exact expected output.
    golden: np.ndarray
    #: Free-form metadata (variant, unroll, expected op counts, ...).
    meta: dict = field(default_factory=dict)

    def load_into(self, cluster) -> None:
        """Place all input arrays into the cluster's memory."""
        import numpy as np

        for addr, array in self.arrays:
            if array.dtype == np.float64:
                cluster.load_f64(addr, array)
            elif array.dtype == np.uint32:
                cluster.load_u32(addr, array)
            else:
                raise TypeError(f"unsupported array dtype {array.dtype}")

    def read_output(self, cluster) -> np.ndarray:
        return cluster.read_f64(self.output_addr, self.output_shape)

    def check(self, cluster) -> bool:
        """Bit-exact comparison of the kernel output against the golden."""
        import numpy as np

        return np.array_equal(self.read_output(cluster), self.golden)

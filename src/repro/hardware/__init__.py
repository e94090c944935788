"""Hardware substrate: specs, latency model, streams.

The paper evaluates on two real machines (A800-80GB "cloud" and RTX 4060
Laptop 8GB "edge", Table 2). This package substitutes an analytic timing
model plus a discrete-event multi-stream simulator. The simulator is what
makes the system-level claims reproducible: CUDA-stream overlap (Sec. 5),
PCIe-bound KV transfer (Fig. 6a), and the HBM-capacity cliff (Fig. 2a) are
all properties of the *schedule*, which the simulator models explicitly.
"""

from repro.hardware.spec import CLOUD_A800, EDGE_RTX4060, EDGE_RTX4060_4GB, HardwareSpec
from repro.hardware.streams import StreamOp, StreamSimulator
from repro.hardware.timing import LatencyModel, OpCost

__all__ = [
    "HardwareSpec",
    "CLOUD_A800",
    "EDGE_RTX4060",
    "EDGE_RTX4060_4GB",
    "LatencyModel",
    "OpCost",
    "StreamSimulator",
    "StreamOp",
]

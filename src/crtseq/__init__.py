"""Protocol sequences built on residue-pair arithmetic.

Submodules:

- ``core``        sequence generation and the 1-D/2-D correspondence
- ``correlation`` exact spectra, closed-form predictors, uniformity
- ``channel``     collision channel without feedback, throughput bounds
- ``sync``        blind user identification and frame synchronization
- ``erasure``     per-period MDS erasure coding and session recovery
- ``baselines``   prime / extended prime reference families
- ``cli``         the ``crtseq`` command

Each concept has one implementation here.  The paper's definitions
(characteristic sets, the correlation at one shift, scalar field products)
live in the test suite as brute-force oracles of these computations.  The
package exports the sequence layer and the correlation predictors; the
other layers are imported from their submodules.
"""

from .core import (
    BinarySequence,
    CrtParams,
    GridPoint,
    Variant,
    crt_inverse,
    crt_map,
    generate_sequence,
)
from .correlation import (
    correlation_spectrum,
    crt_epsilon,
    epsilon_uniformity,
    predicted_autocorrelation,
    predicted_cross_range,
    predicted_distribution,
)

__all__ = [
    "BinarySequence",
    "CrtParams",
    "GridPoint",
    "Variant",
    "crt_inverse",
    "crt_map",
    "generate_sequence",
    "correlation_spectrum",
    "crt_epsilon",
    "epsilon_uniformity",
    "predicted_autocorrelation",
    "predicted_cross_range",
    "predicted_distribution",
]

__version__ = "0.1.0"

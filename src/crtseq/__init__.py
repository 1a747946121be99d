"""Protocol sequences built on residue-pair arithmetic.

Submodules:

- ``core``        sequence generation and the 1-D/2-D correspondence
- ``correlation`` exact spectra, closed-form predictors, uniformity
- ``channel``     collision channel without feedback, throughput bounds
- ``sync``        blind user identification and frame synchronization
- ``erasure``     per-period MDS erasure coding and session recovery
- ``baselines``   prime / extended prime reference families
- ``cli``         the ``crtseq`` command
"""

from .core import (
    BinarySequence,
    CharacteristicSet,
    CrtParams,
    GridPoint,
    Variant,
    characteristic_set,
    crt_inverse,
    crt_map,
    generate_sequence,
    multi_rate_characteristic_set,
)
from .correlation import (
    correlation_spectrum,
    crt_epsilon,
    epsilon_uniformity,
    hamming_correlation,
    predicted_autocorrelation,
    predicted_cross_range,
    predicted_distribution,
)

__all__ = [
    "BinarySequence",
    "CharacteristicSet",
    "CrtParams",
    "GridPoint",
    "Variant",
    "characteristic_set",
    "crt_inverse",
    "crt_map",
    "generate_sequence",
    "multi_rate_characteristic_set",
    "correlation_spectrum",
    "crt_epsilon",
    "epsilon_uniformity",
    "hamming_correlation",
    "predicted_autocorrelation",
    "predicted_cross_range",
    "predicted_distribution",
]

__version__ = "0.1.0"

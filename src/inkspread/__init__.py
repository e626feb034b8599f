"""Optimization-free fuzzy modeling on ink-drop-spread planes.

Training records one pyramid-shaped stain per pattern; the stains of a group
stand for one confidence plane per input variable.  Inference combines
plane readings with min across inputs, max across groups, and a weighted-sum
defuzzifier, computed straight from the stains.  A behavioral
memristor-crossbar twin evaluates the same model in the analog domain.
"""

from .core import QuantizationSpec, StainRadii, dequantize, quantize
from .errors import DividerUnderflowError, EqualOutputConflict, NoCoverageError
from .model import IdsGroup, IdsPlane, Model, Sample, diffuse, merge_into_group, train_error_gated, train_full
from .inference import FuzzyOutput, defuzzify_wsf, infer, infer_fuzzy, infer_trace

__all__ = [
    "QuantizationSpec",
    "StainRadii",
    "quantize",
    "dequantize",
    "IdsPlane",
    "IdsGroup",
    "Model",
    "Sample",
    "diffuse",
    "train_full",
    "train_error_gated",
    "merge_into_group",
    "FuzzyOutput",
    "infer_fuzzy",
    "defuzzify_wsf",
    "infer",
    "infer_trace",
    "NoCoverageError",
    "EqualOutputConflict",
    "DividerUnderflowError",
]

__version__ = "0.1.0"

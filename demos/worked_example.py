"""
A two-sample model, end to end
==============================

Builds the smallest interesting model by hand: two training samples on a
19-level input grid with a binary output, then walks one query through
quantization, the plane readings, the min/max combination, and the
weighted-sum defuzzifier.
"""

import numpy as np

from inkspread.core import QuantizationSpec, StainRadii, quantize
from inkspread.inference import infer_trace
from inkspread.model import Sample, train_full

# Two inputs share one 19-level axis on [1, 10]; the output is binary.
specs = [QuantizationSpec(1.0, 10.0, 19), QuantizationSpec(1.0, 10.0, 19)]
out_spec = QuantizationSpec(1.0, 2.0, 2)
radii = StainRadii(3.0, 1.5)

samples = [Sample((1.5, 4.0), 2.0), Sample((3.0, 4.0), 1.0)]
model = train_full(samples, specs, out_spec, radii)

print("training samples and their grid coordinates:")
for s in samples:
    levels = [quantize(spec, x) for spec, x in zip(specs, s.inputs)]
    print(f"  inputs {s.inputs} -> input levels {levels}, "
          f"output {s.output} -> level {quantize(out_spec, s.output)}")

# Each sample became one group, stored as its stain: the sample's levels.
# The group stands for one plane per input variable.  A plane is a
# (input levels x output levels) grid holding a pyramid around the stain's
# coordinates, clipped at zero; the model derives it on demand.
print(f"\nstains of the first group, as (input levels, output level): {model.groups[0].stains}")
plane = model.plane(0, 0)
print("first plane of the first group (rows = input levels 1..19):")
for i, row in enumerate(plane.grid, start=1):
    cells = " ".join(f"{v:.2f}" for v in row)
    marker = "  <- apex row" if row.max() == 1.0 else ""
    print(f"  level {i:2d}: {cells}{marker}")

# Now one query, with every intermediate value on display.
query = (2.5, 3.5)
trace = infer_trace(model, query)

print(f"\nquery {query} quantizes to input levels {trace['input_levels']}")
print("per-plane confidences, one row per group:")
for g, group_rows in enumerate(trace["plane_confidences"], start=1):
    for lvl, per_plane in enumerate(group_rows, start=1):
        print(f"  group {g}, output level {lvl}: planes {np.round(per_plane, 4)}")
print("group confidences (min across planes):")
for g, row in enumerate(trace["group_confidences"], start=1):
    print(f"  group {g}: {np.round(row, 4)}")

print(f"\nfuzzy output (max across groups): {np.round(trace['confidences'], 4)}")
print(f"output level values:               {trace['level_values']}")
print(f"crisp output (weighted sum):       {trace['crisp']:.4f}")

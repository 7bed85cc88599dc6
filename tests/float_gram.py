"""max |G − I| of a triple's Gram in floats, by the phase kernel
`_phases.difference_deviation`.  `hadamard_check` decides in integers alone
and forms no float Gram; the tests that pin that kernel's budget, its tiling
and its phase reduction on Hadamard levels, and the tests that read a float
deviation beside an exact verdict, run this walk."""
import numpy as np

from convspectra._phases import _axis_sets, difference_deviation
from convspectra.triples import _reduced_rows, integer_rows


def float_deviation(r, b, l, per_axis: bool = True) -> float:
    """max |G − I| for G[b, b'] = F(R⁻¹(b − b')), F the transform of the one
    factor with atoms L and weight 1/#B, for digits b distinct mod R·Z^d.

    L is integer, so F(y/den) depends on y only mod den: the points are the
    reduced rows y mod den of R⁻¹B = y/den, or the product of their axis
    sets when they are one.  With `per_axis`, an L that is the product of its
    axis sets L_c goes in as the transforms of the uniform measures on the
    L_c, the first scaled by #L/#B: tables of #L_c atoms, not #L."""
    den, axes, reduced = _reduced_rows(r, b)
    eye = np.eye(b.dim, dtype=np.int64)
    summands = [reduced] if axes is None else [a[:, None] * eye[c] for c, a in enumerate(axes)]
    l_axes = _axis_sets(l.rows) if per_axis else None
    if l_axes is None:
        factors = [(integer_rows(l), 1, np.full(len(l), 1 / len(b)))]
    else:
        weights = [len(l) / (len(b) * len(a)) if c == 0 else 1 / len(a) for c, a in enumerate(l_axes)]
        factors = [
            (a * np.eye(l.dim, dtype=object)[c], 1, np.full(len(a), w)) for c, (a, w) in enumerate(zip(l_axes, weights))
        ]
    return difference_deviation(summands, den, factors)

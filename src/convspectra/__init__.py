"""convspectra: finite truncations of infinite convolutions of uniform digit
measures, Hadamard-triple verification, summability diagnostics, and exact
finite-level spectrum construction."""

from .conditions import (
    contractivity_report,
    coupled_sample,
    defect_term,
    equivalence_defect,
    pcc_series,
    pcc_split,
    pcc_sup,
    rbc_series,
    rbc_split,
    three_series,
)
from .errors import ConvspectraError
from .exactmat import (
    IntMatrix,
    invert,
    product_range,
    spectral_norm_upper,
)
from .measures import (
    DiscreteMeasure,
    fourier_many,
    mu_truncate,
    tail_fourier_product,
)
from .sequences import (
    TripleSequence,
    builtin_names,
    builtin_sequence,
    from_generator,
    from_triples,
)
from .spectra import (
    build_spectrum,
    equi_positivity_scan,
    perturbation_bound,
    q_eval_many,
    read_levels,
    spectrum_exactness,
    write_levels,
)
from .triples import DigitSet, HadamardTriple, hadamard_check

__version__ = "0.1.0"

__all__ = [
    "ConvspectraError",
    "DigitSet",
    "DiscreteMeasure",
    "HadamardTriple",
    "IntMatrix",
    "TripleSequence",
    "build_spectrum",
    "builtin_names",
    "builtin_sequence",
    "contractivity_report",
    "coupled_sample",
    "defect_term",
    "equi_positivity_scan",
    "equivalence_defect",
    "fourier_many",
    "from_generator",
    "from_triples",
    "hadamard_check",
    "invert",
    "mu_truncate",
    "pcc_series",
    "pcc_split",
    "pcc_sup",
    "perturbation_bound",
    "product_range",
    "q_eval_many",
    "rbc_series",
    "rbc_split",
    "read_levels",
    "spectral_norm_upper",
    "spectrum_exactness",
    "tail_fourier_product",
    "three_series",
    "write_levels",
]

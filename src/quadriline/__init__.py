"""Exact parameterization of rectangles inscribed in four lines.

Works over the rationals or any odd prime field: normalize a configuration of
four lines, walk the slope and aspect paths of inscribed rectangles, classify
degeneracy, inspect rectangles at infinity, and describe the locus of centers,
all in exact arithmetic with a brute-force finite-field census as the oracle.

The names below are the library API the README documents; everything else
lives in, and is imported from, its own module.
"""

from .census import verify_against_paths
from .configuration import (
    ConfigurationInput,
    InputLine,
    NormalizedConfig,
    PlaneMap,
    classify,
    normalize,
)
from .errors import QuadrilineError
from .locus import all_parallel_analysis, center_of
from .paths import aspect_path_eval, homography, slope_path_eval
from .rectangles import aspect_of, slope_of
from .scalars import QQ, PrimeField, Ratio

__version__ = "0.1.0"

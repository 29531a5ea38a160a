"""Exact parameterization of rectangles inscribed in four lines.

Works over the rationals or any odd prime field: normalize a configuration of
four lines, walk the slope and aspect paths of inscribed rectangles, classify
degeneracy, inspect rectangles at infinity, and describe the locus of centers,
all in exact arithmetic with a brute-force finite-field census as the oracle.
"""

from .census import (
    CensusReport,
    enumerate_rectangles,
    quadric_point_count,
    random_normalized_config,
    verify_against_paths,
)
from .configuration import (
    ConfigClass,
    ConfigurationInput,
    DiagonalMarker,
    InputLine,
    LocusShape,
    NormalizedConfig,
    PlaneMap,
    ALL_INTERCEPTS,
    classify,
    degenerating_intercepts,
    diagonal_slopes,
    normalize,
)
from .errors import (
    AllParallelError,
    AtInfinityError,
    ConcurrentLinesError,
    DegenerateConfigError,
    FieldError,
    InternalCheckError,
    ParallelPairError,
    ParseError,
    PreconditionError,
    QuadrilineError,
    ReflectionUnavailableError,
)
from .locus import (
    AffineLineDescription,
    AllParallelReport,
    LocusReport,
    SpecialRectangles,
    all_parallel_analysis,
    center_of,
    centers_paths,
    diagonal_g,
    gauss_newton_line,
    special_rectangles,
)
from .paths import (
    PathCase,
    PathHomography,
    PathPolynomials,
    all_ratios,
    aspect_path_eval,
    aspect_path_polys,
    eval_path,
    homography,
    ratio_samples,
    slope_path_eval,
    slope_path_polys,
)
from .rectangles import (
    ALL_RATIOS,
    Fiber,
    INDETERMINATE,
    ProjectiveRectangle,
    QuadricH,
    aspect_infinity_form,
    aspect_of,
    aspect_system,
    aspects_at_infinity,
    complete_parallelogram,
    has_aspect,
    has_slope,
    is_rectangle,
    projective_quadratic_roots,
    quadric_h,
    rectangle_from_aspect,
    rectangle_from_slope,
    slope_infinity_form,
    slope_of,
    slope_system,
    slopes_at_infinity,
)
from .scalars import (
    FpElement,
    PrimeField,
    QQ,
    Ratio,
    RationalField,
    Root,
    ratio_format,
    ratio_parse,
    scalar_parse,
    solve_quadratic,
)

__version__ = "0.1.0"

"""torsol: exact solution measures of integer linear systems on the circle.

Given an r x m integer matrix L of full rank, the solutions of Lx = 0 on
the circle group form a closed subgroup of the m-torus.  This package
computes the normalized Haar measure that a product of rational interval
unions captures inside that subgroup, exactly, by two independent routes
(direct geometry and a weighted reduction to counting in Z_p), and builds
removal, probe and extremal-density experiments on top.
"""

from .errors import (
    BadModulusError,
    DegenerateColumnsError,
    GridAlignmentError,
    InternalInvariantError,
    InvalidInputError,
    PositiveMeasureError,
    PreconditionError,
    RankDeficientError,
    TorsolError,
    UnboundedPolytopeError,
)
from .intmat import (
    DegenerateColumn,
    IntMatrix,
    MatrixProfile,
    analyze_matrix,
    matrix_from_json,
    matrix_to_json,
)
from .torus_sets import DiscreteSet, IntervalUnion, from_discrete, sets_from_json, sets_to_json
from .kernel_geometry import (
    CentralSectionResult,
    KernelComponent,
    KernelDecomposition,
    WeightedShift,
    box_measure,
    central_section_check,
    enumerate_components,
    shift_cover,
    weight,
)
from .discrete import (
    KernelParametrization,
    kernel_elements,
    list_solutions,
    parametrize_kernel,
    solution_density,
)
from .measures import (
    MeasureReport,
    approximation_bound,
    decompose,
    find_positive_witness,
    monte_carlo_estimate,
    solution_measure,
)
from .removal_lab import (
    RemovalOutcome,
    density_search,
    density_trend,
    find_violating_boxes,
    greedy_removal,
    szemeredi_probe,
    zero_measure_check,
)

__version__ = "0.1.0"

"""qwalk: bipartite and Grover quantum walk operators with exact
periodicity certification.

The numeric eigenanalysis in qwalk.spectral needs numpy and is not
imported here; import it by name.  Nothing else in the package uses numpy.
"""

__version__ = "0.1.0"

from .exact import (
    HigherDegreeFactor,
    IntPolynomial,
    QuadraticValue,
    RationalMatrix,
    char_poly,
    is_quadratic_algebraic_integer,
    mat_mul,
    mat_pow,
    quadratic_from_string,
    rational_rank,
    roots_degree_le2,
    square_free_part,
)
from .graphs import (
    Bipartition,
    DegreeProfile,
    Graph,
    GraphError,
    NotBipartiteError,
    NotBiregularError,
    biadjacency,
    bipartite_double_cover,
    bipartition,
    circulant,
    complete_bipartite,
    cycle,
    degree_profile,
    figure1_graph,
    figure4a_graph,
    figure7_graph,
    format_graph,
    heawood_graph,
    is_bipartite,
    line_graph,
    parse_graph,
    path,
    petersen_graph,
    star,
    subdivision,
)
from .periodicity import (
    MethodDisagreement,
    PeriodicityVerdict,
    SpectralVerdict,
    allowed_value_table,
    decide_periodicity,
    exact_period_oracle,
    grover_period_doubling,
    grover_regular_test,
    period_from_phases,
    spectral_test_biregular,
    state_periodicity,
    trace_test,
)
from .scan import enumerate_biregular, scan_periodicity
from .walks import (
    ArcWalkOperator,
    ConstructionError,
    WalkOperator,
    block_identity_check,
    block_identity_checks,
    build_bipartite_walk,
    build_grover_walk,
    cell_operator,
    grover_equals_bipartite_on_subdivision,
    grover_from_json,
    grover_to_json,
    walk_from_json,
    walk_to_json,
)

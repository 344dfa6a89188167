"""Diameter graphs and hypergraphs of finite point sets.

Construct the classic point-set families, build their diameter graphs and
r-uniform clique hypergraphs, decide hypergraph colorability exactly,
enumerate congruent copies to settle arrow relations at desk scale, and
certify diameter-preserving simplex-product embeddings and degeneracy
evidence.
"""

from .geometry import (
    DEFAULT_TOLERANCE,
    DiameterInfo,
    PointSet,
    cartesian_product,
    circumcenter,
    diameter,
    find_congruence,
    random_orthogonal,
    sq_dist,
    sq_dist_matrix,
)
from .constructions import (
    NonRealizableError,
    SimplexSpec,
    brick,
    cube_corner_set,
    heptagon_config,
    isosceles_apex_triangle,
    kahn_kalai_blocks,
    kahn_kalai_set,
    kneser_points,
    kneser_subsets,
    realize,
    regular_polygon,
    regular_simplex,
    segment,
    simplex_from_sides,
)
from .hypergraph import (
    Hypergraph,
    clique_hypergraph,
    diameter_graph,
    diameter_hypergraph,
    hopf_pannwitz_audit,
    verify_intersection_fact,
)
from .coloring import (
    Coloring,
    brute_force_chromatic,
    chain_report,
    chromatic_number,
    colorable,
    grouped_coloring,
    is_proper,
)
from .ramsey import (
    ArrowResult,
    CopyFamily,
    EmbeddingConditionError,
    EmbeddingWitness,
    acute_triangle_embedding,
    arrows,
    congruent_copies,
    near_regular_simplex_embedding,
    obtuse_gadget_audit,
    regular_simplex_arrow,
    right_triangle_embedding,
)
from .degeneracy import (
    ExtensionProblem,
    ExtensionResult,
    apex_angle_audit,
    degeneracy_evidence,
    extension_problem,
    far_pair_adversary,
    far_pair_witness,
    min_extension_diameter,
    random_star_tetrahedron,
    star_witness_values,
)
from .verify import VerificationReport, random_lattice_set, verify_paper

__version__ = "0.1.0"

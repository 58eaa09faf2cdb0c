"""Construct and certify common finite covers of graphs and of graphs of
finite objects, with exact size bounds and independent verification."""

from .graphs import (BudgetExceeded, Cover, Graph, GraphError, GraphMorphism,
                     VerificationError, compose_morphisms, disjoint_union, fiber_product,
                     identity_morphism, is_covering, validate_graph)
from .refinement import common_cover_exists, degree_refinement, joint_refinement
from .groupoids import FiniteGroupoid, lcm_all, saturate
from .universal_cover import Ball, TreeAlignment, UniversalCover, build_alignment
from .star_system import (STRATEGY_ALIGNED, STRATEGY_DR_FULL, StarArrow,
                          build_star_system, build_star_system_retrying)
from .ball_system import (BallArrow, build_ball_system,
                          build_ball_system_retrying, discover_atoms,
                          verify_witness)
from .cover_builder import (AxiomError, LocalSystem, RestrictionCertificate,
                            build_cover, extract_certificate)
from .object_graphs import (FiniteObject, ObjectGraph, ObjMorphism, SeedSpec,
                            build_object_cover, close_star_maps,
                            validate_object_graph, verify_object_covering)
from .gluing import (OrientationError, assemble, build_glued_cover,
                     enumerate_pairs, gluing_weights, subdivide_graph)
from .bounds import bound_report, landau, landau_exact
from .regular import factorize_regular, regular_common_cover
from .oracle import brute_common_cover, brute_landau

__version__ = "0.1.0"

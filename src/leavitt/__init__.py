"""Exact computation in path algebras with Cuntz-Krieger relations.

The package models finite directed multigraphs, the algebras they generate
over an exact coefficient field with involution, and the structure theory
that decides von Neumann regularity, *-regularity, and positive definiteness
with checkable witnesses.

Layer map:

* ``graphs``      graphs, path counting, the M_n and E_F constructions
* ``fields``      exact involutive fields and their properness levels
* ``algebra``     elements, rewriting normal form, products, involution
* ``linalg``      exact rank factorizations and linear solves
* ``semisimple``  the per-sink block-matrix picture of acyclic graphs
* ``decide``      the decision procedures
* ``witness``     certificates, their claims, and the one claim checker
* ``io``          file formats, the expression grammar, serialization
* ``cli``         the ``leavitt`` command
"""

from .algebra import (
    AlgebraError,
    Element,
    eq,
    format_element,
    linear_combine,
    local_unit,
    mul,
    normalize,
    special_edges,
    star,
)
from .decide import (
    IMPROPER,
    PROPER,
    UNKNOWN,
    DecisionReport,
    full_report,
    is_positive_definite_algebra,
    is_regular,
    is_star_regular,
    proper_algebra,
)
from .fields import (
    Field,
    FieldError,
    FieldMismatchError,
    FieldValue,
    GaussianRationals,
    PrimeField,
    QuadraticExtField,
    Rationals,
    parse_field_spec,
)
from .graphs import (
    CyclicGraphError,
    Edge,
    Graph,
    GraphError,
    InfinitePathSetError,
    Path,
    classify_vertex,
    clock_graph,
    e_f_graph,
    enumerate_paths_to,
    graph_union,
    is_acyclic,
    m_n_graph,
    mu,
    mu_table,
    relabel_graph,
    sigma,
    sinks,
    standard_graph,
    validate,
)
from .io import (
    ParseError,
    format_graph,
    format_matrix_image,
    format_report,
    graph_to_json,
    matrix_image_to_json,
    parse_element,
    parse_graph,
    parse_graph_any,
    parse_graph_json,
    report_to_json,
    verify_claims,
)
from .omega import OMEGA, Omega
from .semisimple import (
    MatrixImage,
    SinkBasis,
    dimension,
    phi,
    phi_inv,
    sink_basis,
    sink_normal_form,
)
from .witness import (
    CertificateError,
    NotStarRegularError,
    ProjectionCertificate,
    UnitDataError,
    UnitRegularCertificate,
    UnknownClaimError,
    extend_to_unit,
    improper_element,
    projection_generator,
    regular_witness,
    unit_regular_witness,
    verify_improper,
    verify_inner_inverse,
    verify_projection,
    verify_unit_regular,
)
from .linalg import RankFactorization, SolveSideError, rank_factorization, solve_linear

__version__ = "0.1.0"

"""Exact enumeration and verification toolkit for integral binary cubic forms.

A binary cubic form x1*u^3 + x2*u^2*v + x3*u*v^2 + x4*v^3 is stored as the
integer 4-tuple (x1, x2, x3, x4).  SL2(Z) acts by linear substitution twisted
by 1/det.  The package enumerates one representative per orbit inside each of
the ten invariant lattices L1..L10, builds the exact Dirichlet-series
coefficients attached to each lattice, and verifies the identities, table
values, local densities and counting asymptotics that are finitely checkable.
"""

from .forms import (
    CubicForm,
    UnimodularMatrix,
    QuadraticForm,
    discriminant,
    q_discriminant,
    act,
    psi,
    pairing,
    hessian,
    lattice_member,
    is_irreducible,
    delta,
    IDENTITY,
    U1,
    U1_INV,
    W,
)
from .reduction import canonical_reduce, orbit_bfs, stabilizer_order
from .enumeration import (
    ClassRecord,
    ClassTable,
    enumerate_classes,
    brute_force_classes,
    master_classes,
)
from .series import (
    CheckReport,
    CoefficientSeries,
    Qrt3,
    build_series,
    build_all_series,
    render_table,
    verify_tables,
    verify_relations,
    verify_non_relation,
    verify_decompositions,
    verify_congruence_lemma,
    span_rank,
    euler_product_check,
    lambda_coefficient_identity,
)
from .golden import golden_table, GOLDEN_LEFT, GOLDEN_RIGHT
from .analytic import (
    Qcbrt,
    ResidueTable,
    residue_constants,
    zeta,
    local_density_ratios,
    verify_table1_ratios,
    density_prediction,
    density_report,
)
from .latclass import (
    invariant_subspaces_mod_p,
    verify_classification,
    verify_indices_and_duality,
)

__version__ = "0.1.0"

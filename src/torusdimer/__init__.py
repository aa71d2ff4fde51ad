"""Exact dimer statistics on toric quotients of periodic planar graphs."""

from .lattice import (
    Edge,
    FundamentalDomain,
    OrientationReport,
    DomainError,
    OrientationError,
    builtin,
    BUILTIN_NAMES,
    hnf_residues,
    verify_orientation,
    orient,
    sublattice_domain,
    DOUBLE_MODES,
)
from .kasteleyn import (
    QuotientError,
    build_KE,
    pfaffian_log,
    sector_table,
    SectorTable,
    enumerate_matchings,
    winding_distribution_exact,
    double_product,
    fiber_points,
)
from .laurent import LaurentPoly2, DegreeBoundError
from .specialfn import theta, log_abs_eta, log_xi, reduce_tau, g_tau, discrete_gaussian
from .charpoly import (
    CharPoly,
    CharPolyError,
    CriticalityReport,
    NodeReport,
    build_charpoly,
    free_energy,
    ronkin,
    find_nodes,
    root_counts,
    tau_of_hessian,
    CLASS_NON_VANISHING,
    CLASS_SINGLE_REAL,
    CLASS_TWO_REAL,
    CLASS_CONJUGATE,
    CLASS_REAL_ROOT_Q,
)
from .fsc import (
    CurveRangeError,
    FscError,
    FscResult,
    WindingLaw,
    ConformalData,
    fsc2_gaussian,
    conformal_data,
    predict,
    predict_logZ,
    sector_table_auto,
    normalized_node_data,
    winding_law,
    winding_distribution_gaussian,
    CURVE_FAMILIES,
    curve_values,
    doubled_quotient,
    kappa,
    ising_weights,
    ising_critical_check,
    ising_log_Z_transfer,
)

__version__ = "0.1.0"

"""Exact factor-condition deciders, spectral-radius machinery, extremal-graph
constructors, and a matching-based oracle, wired into a verification harness.
"""

from .conditions import (
    CapExceededError,
    ConditionReport,
    DegreeBounds,
    DegreeFunctions,
    delta,
    has_all_ab_factors,
    has_all_fractional_ab_factors,
    has_all_gf_factors,
    lu_all_fractional_gf,
    theta,
)
from .extremal import (
    build_g1,
    build_g2,
    build_hnb,
    g12_min_order,
    hnb_witness,
    is_hnb,
    rho_hnb,
    threshold_n,
)
from .graph import (
    Graph,
    Graph6Error,
    from_edge_list,
    is_connected,
    parse_graph6,
    to_graph6,
)
from .harness import (
    MineReport,
    SuiteReport,
    VerifyReport,
    equivalence_suite,
    load_graph6_file,
    mine_extremal,
    stream_graph6,
)
from .oracle import (
    all_ab_factors_oracle,
    all_fractional_oracle,
    enumerate_admissible,
    has_h_factor,
)
from .spectral import (
    ConvergenceError,
    SpectralResult,
    hong_bound,
    spectral_radius,
)

__version__ = "0.1.0"

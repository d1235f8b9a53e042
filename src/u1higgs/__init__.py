"""2D lattice Abelian Higgs model with Villain action: sampling, loop
expansions, norms on discrete 1-forms, gauge fixing, and a Monte Carlo
verification harness."""

__version__ = "0.1.0"

from .lattice_geom import (  # noqa: F401
    ConfigurationError,
    DomainError,
    LatticeGeometry,
    MaximalTree,
    Rect,
    ResourceError,
    Segment,
    ThinRect,
    build_lattice,
    decompose_rectangle,
    maximal_tree,
    rho,
    segments,
)
from .gauge_core import (  # noqa: F401
    GaugeField,
    GaugeTransform,
    LatticeLoop,
    apply_gauge,
    covariant_laplacian,
    holonomy,
    load_gauge_field,
    log_u1,
    omega,
    psi,
    to_axial,
    winding_vector,
)
from .norms import OneForm, eval_segment, log_oneform, norm_full, norm_gr, seminorm_rho  # noqa: F401
from .gauge_fixing import flatness, gauge_fix  # noqa: F401
from .loop_expansion import (  # noqa: F401
    MultiGraph,
    OperatorAssignment,
    RadialMeasure,
    brute_force_integral,
    c_coeff,
    enumerate_loop_classes,
    expansion_value,
    higgs_loop_coefficients,
    k_complex,
    k_real,
    loop_trace,
)
from .sampler import (  # noqa: F401
    ChainConfig,
    PotentialSpec,
    heat_kernel_u1,
    higgs_weight,
    sample_interacting,
)
from .mc_verify import (  # noqa: F401
    ExperimentResult,
    verify_decorrelation,
    verify_flatness_moments,
    verify_mgf,
    verify_plaquette_sum_moments,
    verify_tail,
    verify_uv_stability,
)

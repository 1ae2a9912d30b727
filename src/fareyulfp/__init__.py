"""Exact local-finiteness toolkit for the genus-one curve graphs."""

__version__ = "0.1.0"  # the single source of the package version

from .annular import annular_distance, twist_coord
from .bounds import (
    BigBound,
    BoundParams,
    Surface,
    complexity,
    growth_upper,
    n_bound,
    slice_bound,
)
from .errors import (
    DisconnectedQuery,
    EmptyProjection,
    HypothesisViolation,
    PreconditionViolation,
)
from .farey import (
    INFINITY,
    Geodesic,
    MobiusMap,
    Slope,
    SurfaceKind,
    adjacent,
    apply,
    canonical,
    dehn_twist,
    distance,
    geodesics,
    half_twist,
    intersection,
    normalizer_to_infinity,
)
from .graphcore import (
    BallCoverCertificate,
    FiniteGraph,
    SeparatedWitness,
    greedy_separated,
    ulf_bound,
)
from .projections import (
    SubsurfaceRef,
    UlfpCertificate,
    WHOLE,
    bgit_audit,
    candidate_subsurfaces,
    check_P,
    lemma_co_construct,
    proj_distance,
    ulfp_witness,
)
from .slices import (
    SliceQuery,
    WeakTightReport,
    radius_slice_sample,
    tight_slice,
    verify_slice_bounds,
    weak_tight_index,
    weak_tight_slice,
)

__all__ = [name for name in dir() if not name.startswith("_")]

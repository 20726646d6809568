"""Exact canonical and bi-canonical degrees of numerical semigroup rings."""

from .errors import (
    AmbientMismatch,
    CapExceeded,
    EmptyGenerators,
    FullSemigroup,
    GcdNotOne,
    InternalInvariantViolation,
    NoValidOrientation,
    NotContained,
    NotThreeGenerated,
    NsdegError,
    Overflow,
    SymmetricSemigroup,
    TooLarge,
)
from .semigroup import DEFAULT_WINDOW_CAP, NumericalSemigroup
from .ideals import (
    RelativeIdeal,
    canonical_ideal,
    generate,
    length_quotient,
    maximal_ideal,
    reduction,
    unit_ideal,
)
from .degrees import (
    DegreeReport,
    TcdegCheck,
    canonical_index,
    cdeg,
    classify,
    ddeg,
    endomorphism_blowup,
    tcdeg_check,
    tdeg,
)
from .herzog import HerzogConsistency, HerzogData, herzog_consistency, herzog_matrix
from .lab import (
    IdealProfile,
    enumerate_ideals,
    gap_subset_mask,
    is_canonical,
    is_closed,
    is_principal,
    is_reflexive,
    profile_ideal,
    socle_witnesses,
)
from .sweep import (
    SweepConfig,
    SweepReport,
    enumerate_semigroups,
    evaluate_ring,
    run_sweep,
)

__version__ = "0.1.0"

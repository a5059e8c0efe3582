"""Deterministic polynomial identity testing over prime fields.

Hitting-set generators for read-once oblivious branching programs (any
variable order, invertible-factor, and width-2 variants) and whitebox zero
tests for sums of set-multilinear depth-3 circuits, all validated at desk
scale against exhaustive expansion oracles.
"""

from .algebra import (
    DEFAULT_MODULUS,
    Field,
    MatPoly,
    ScalarPoly,
    det_poly,
)
from .concentrate import (
    LagrangeCurve,
    Width2Factorization,
    factorize_width2,
    find_concentrating_shift,
    invertible_hitting_set,
    invertible_hitting_set_params,
    low_support_hitting_set,
    support_parameter,
    width2_hitting_set,
    width2_hitting_set_params,
)
from .depth3 import (
    BaseSetDecomposition,
    Depth3Circuit,
    Gate,
    LinearForm,
    Partition,
    SumSmlResult,
    circuit_to_roabp,
    compute_distance,
    decompose_base_sets,
    friendly_neighborhoods,
    minimal_distance_order,
    sum_sml_whitebox_test,
)
from .errors import (
    CapabilityError,
    InternalInconsistencyError,
    ModulusTooSmallError,
    PitError,
    PreconditionError,
    StructuralError,
)
from .isolate import (
    construct_isolating_weights,
    enumerate_candidate_weights,
    greedy_basis,
    roabp_hitting_set,
)
from .kron import PairSet, RoundMap, WeightFn, separating_weights
from .roabp import PointSet, Roabp
from .verify import (
    DetStream,
    InstanceSpec,
    generate_instance,
    oracle_is_zero,
    run_campaign,
    verify_hitting_property,
)

__all__ = [name for name in dir() if not name.startswith("_")]

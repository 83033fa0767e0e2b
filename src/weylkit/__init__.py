"""weylkit: exact models of finite Heisenberg groups and their vacuum structure."""

__version__ = "0.1.0"

from .phases import Phase, ZERO, HALF, as_phase
from .groups import (
    FinAbGroup,
    GroupElement,
    Subgroup,
    Quotient,
    subgroup_span,
    quotient,
    subquotient,
    double_image,
    double_preimage,
    halve,
)
from .intmat import smith_decompose
from .multipliers import (
    Bicharacter,
    Multiplier,
    TableMultiplier,
    PhaseMap,
    check_multiplier,
    antisymmetrize,
    twist,
    equivalent,
    sqrt_bicharacter,
    split_symmetric,
    is_heisenberg,
    zero_multiplier,
)
from .isotropy import polar, is_isotropic, is_maximal_isotropic, extend_maximal, polar_tilde
from .models import (
    Operator,
    ProjectiveRep,
    SplittingData,
    schrodinger_model,
    standard_pairing,
    regular_rep,
    induced_model,
    check_rep_law,
    commutator_scalar_check,
    commutant_d,
    intertwiner,
    identity_operator,
)
from .vacuum import (
    SectorDecomposition,
    DescendedRep,
    CliffordBasis,
    sectors,
    vacuum_normalizer,
    permute_check,
    normalizer_check,
    generated_subspace,
    descend,
    clifford_basis,
    coherent_states,
)
from .padic import (
    PAdicWindow,
    window_group,
    window_weyl,
    vacuum_profile,
    window_reducibility_check,
)
from .errors import (
    WeylkitError,
    InputError,
    PreconditionError,
    UnsupportedOperationError,
    DefectError,
    ResourceLimitError,
)

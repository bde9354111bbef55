"""equirep: numerical representation theory for equivariant quantum models.

Construct finite groups and Lie algebras, realize and verify their
representations, decompose carriers into aligned isotypic blocks, compute
commutants and twirls, synthesize equivariant circuit generators and
measurements, and run small symmetric classification tasks end to end.
"""

__version__ = "0.1.0"

from . import linalg
from .decompose import (
    CommutantBasis,
    Intertwiner,
    IsotypicDecomposition,
    SchurWeylReport,
    block_diagonal_part,
    block_projectors,
    commutant_basis,
    find_intertwiner,
    irrep_blocks,
    is_irreducible,
    isotypic_decompose,
    schur_weyl_check,
)
from .equivariant import (
    EquivariantGeneratorSet,
    EquivariantMeasurement,
    QnnCircuit,
    build_qnn,
    check_equivariance,
    equivariant_generators,
    equivariant_measurement,
    swap_symmetric_six,
)
from .errors import (
    DecompositionFailedError,
    DimensionMismatchError,
    DimensionTooLargeError,
    InvalidParameterError,
    InvalidShellError,
    NotCPTPError,
    NotHermitianError,
    NumericalError,
    PrerequisiteFailedError,
    SourceMismatchError,
    ToolkitError,
    ValidationError,
)
from .groups import (
    FiniteGroup,
    LieAlgebraBasis,
    group_from_table,
    group_from_unitaries,
    identify_small_group,
    lie_closure,
    make_cyclic,
    make_dihedral,
    make_symmetric,
    sample_lie_group_element,
    verify_group_axioms,
)
from .linalg import DEFAULT_TOL, Tolerance
from .representations import (
    Representation,
    adjoint_action,
    bitflip_rep,
    dihedral_rep_s3,
    direct_sum,
    dual,
    finite_rep_from_images,
    left_regular_rep,
    perm_rep_qubits,
    perm_rep_tensor,
    su2_fundamental,
    swap_rep,
    tensor_power,
    tensor_product,
    translation_rep,
    trivial_rep,
    unitary_algebra_rep,
    verify_homomorphism,
)
from .tasks import (
    Dataset,
    LabeledState,
    QmlModel,
    TrainConfig,
    accuracy,
    default_task_model,
    eigenspace_invariance_check,
    gen_bitflip1d,
    gen_ferro,
    gen_purity,
    gen_swap2d,
    heisenberg_xxx,
    initialize_parameters,
    label_invariance_check,
    make_dataset,
    model_eval,
    symmetry_test,
    train,
)
from .twirl import (
    TwirlContext,
    haar_sample_unitary,
    k_design_twirl,
    monte_carlo_k_design_twirl,
    twirl_channel,
    twirl_context,
    twirl_operator,
)

"""latgauge: a 2D periodic lattice gauge toy model as a verifiable
numerical library.

Subpackage map:

- ``grid``: lattice geometry, field containers, discrete calculus
- ``spectral``: DFT convention, wave vectors, kernels G and D
- ``dynamics``: Hamiltonian, equations of motion, leapfrog and its
  streamed (t, H, Gauss residual) trajectory, gauge moves
- ``gaussian``: Coulomb background, ground energies, the Gauss-law bound
- ``matter``: qubit-per-site charges and ladder moves
- ``algebra``: exact operator algebra, local centers, edge terms
- ``fme``: the field-mediated entanglement protocol
- ``continuum``: large-lattice convergence checks
- ``cli``: the ``latgauge`` executable
"""

from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    curl_z,
    dbar,
    divergence,
    sum_by_parts_residual,
)
from .spectral import (
    FourierField,
    KernelTable,
    NonRealResult,
    build_kernels,
    dft_forward,
    dft_inverse,
    wave_vector,
)
from .dynamics import (
    PhaseSpaceState,
    SourceConfig,
    UnstableStep,
    constraint_residual,
    energy,
    eom_rhs,
    gauge_transform,
    step_leapfrog,
    trajectory,
)
from .gaussian import (
    NonNeutralWarning,
    coulomb_energy_shift,
    coulomb_momentum,
    ground_energy,
)
from .matter import (
    MatterConfig,
    apply_ladder,
    density,
)
from .algebra import (
    GeneratorSet,
    Label,
    LinearOperator,
    Region,
    b_operator,
    center_basis,
    commutator_scalar,
    constraint_operator,
    gauge_invariant_nullspace,
    is_gauge_invariant,
    local_generators,
    sector_label,
)
from .fme import (
    NotDensityMatrix,
    NotSeparable,
    ProtocolSpec,
    ProtocolTrace,
    dressed_move,
    embezzlement_null_test,
    run_protocol,
    vn_entropy,
)
from .continuum import (
    ConvergenceSeries,
    d_log_check,
    g_scaling_check,
    kvec_convergence,
)

__version__ = "0.1.0"

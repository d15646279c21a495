"""Square roots of -1, slice functions and twistor maps in finite-dimensional
real associative algebras."""

from .algebra import (
    Algebra,
    Element,
    algebra_from_dict,
    clifford_algebra,
    dump_algebra,
    inverse,
    is_zerodivisor,
    left_divide,
    load_algebra,
    make_algebra,
    right_divide,
)
from .errors import (
    BadSectionError,
    BadUnitError,
    BasePointAtInfinityError,
    DegenerateImageError,
    DimensionMismatchError,
    FrameNotFoundError,
    InvalidTwistError,
    NonAssociativeError,
    NonIntegerTraceError,
    NotFoundError,
    NotIntrinsicError,
    NotTangentError,
    PreconditionFailedError,
    SliceAlgebraError,
    SuiteNotApplicableError,
    TooLargeError,
    ZeroDivisorError,
)
from .roots import (
    RootOfMinusOne,
    TraceReport,
    component_invariant,
    conjugate_root,
    find_seed_root,
    is_root,
    j_structure,
    minus_i_eigenspace,
    nijenhuis,
    sample_root,
    sigma_involution,
    tangent_frame,
    verify_trace_identities,
)
from .slicefunctions import (
    StemPolynomial,
    alpha_beta,
    cauchy_riemann_residual,
    eval_generalized,
    eval_slice,
    intrinsic_defect,
    is_intrinsic,
    stem_from_slice_poly,
)
from .zerovariety import (
    ComplexElement,
    WitnessSearch,
    ZeroScanHit,
    ZeroWitness,
    discrete_zero_scan,
    leaf_membership,
    left_absorption,
    pi_eval,
    pi_tensor_eval,
    right_absorption,
    tau_involution,
    zero_variety_witness,
)
from .orthogonal import (
    ConeDecomposition,
    InnerProduct,
    Z0Verdict,
    antisymmetric_subspace,
    cone_decompose,
    is_in_S0,
    orthogonality_characterization,
    sample_S0,
    z0_equivalence_check,
    z0_residual,
)
from .twistor import (
    ProjectivePoint,
    QuaternionFrame,
    delta1,
    fiber_embed,
    gamma,
    generalized_twistor,
    rho,
    rho1,
    rho1_general,
    segre1,
    segre2,
    standard_section,
    stereographic_fiber,
    twistor_lift,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")] + [
    "SuiteReport", "main", "run_suite"]


def __getattr__(name: str):
    """The command line names, loaded on first use so that
    `python -m slicealgebra.cli` does not find the module already imported."""
    if name in ("SuiteReport", "main", "run_suite"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

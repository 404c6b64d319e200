"""Deciding and constructing RAAG embeddings into analytic diffeomorphism
groups of compact 1-manifolds, plus the matching algebraic obstructions."""

from .diffeo import (
    BumpPoly,
    BumpTrig,
    Compose,
    DiffeoExpr,
    DomainError,
    FixedPointSet,
    Identity,
    InvariantBreach,
    Inverse,
    InversionError,
    Manifold,
    MobiusI,
    PerturbedF,
    PerturbedLiftS1,
    Power,
    RotationS1,
    SineShear,
    TagMismatchError,
    Translation,
    commutator_residual,
    commutator_witness,
    derivative,
    evaluate,
    fixed_points,
    lift_evaluate,
    point_distance,
    word_evaluate,
)
from .graphs import (
    CliqueForest,
    CompletenessReport,
    GraphFormatError,
    MissingEdgeWitness,
    SimpleGraph,
    check_component_completeness,
    is_clique_forest,
    parse_graph,
    to_dot,
)
from .raag import (
    CommutationGraphResult,
    EmbeddabilityDecision,
    NormalForm,
    NotApplicableError,
    commutation_graph,
    embeddable_raag,
    normal_form,
)
from .serialize import ExprFormatError, dumps_expr, expr_to_dict, dict_to_expr, loads_expr
from .synthesis import (
    AlphaSequence,
    GeneratorAssignment,
    NotEmbeddableError,
    SynthesisError,
    SynthesisOptions,
    SynthesisState,
    VerificationReport,
    choose_alphas,
    enumerate_words,
    perturb_f,
    synthesize_embedding,
    verify_assignment,
)
from .obstructions import (
    CommutationOracle,
    ObstructionCertificate,
    ObstructionSearch,
    UnipotentMatrix,
    center_nonabelian_check,
    find_centralizer_quadruple,
    heisenberg_ball,
    remark_counterexample_suite,
)

__version__ = "0.1.0"

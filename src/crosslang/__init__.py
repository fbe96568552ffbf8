"""Translation between finitely generated propositional languages.

The package turns two language specifications into finite Boolean algebras,
relates them through inner/outer translation operators or a cross-language
implication relation, constructs the joint state-space the pair induces, and
derives common languages, awareness comparisons and probability bounds.
"""

from .algebra import (
    Algebra,
    Prop,
    Star,
    StarProp,
    enumerate_models,
    implies,
    join,
    meet,
    negate,
)
from .commonality import (
    AwarenessVerdict,
    CommonLanguage,
    classify_awareness,
    common_language,
    fixed_points,
    joint_embeddings,
    perfect_translations,
)
from .corpus import (
    Corpus,
    load_corpus,
    parse_implication_file,
    parse_implication_seeds,
    parse_translation_file,
)
from .errors import (
    AlgebraTooLargeError,
    AtomCapError,
    BudgetExceededError,
    CharacterizationMismatchError,
    ContradictionError,
    CrossAlgebraError,
    CrosslangError,
    DegenerateCommonLanguageError,
    DuplicateAtomError,
    InconsistentInputError,
    InvalidWeightsError,
    LanguageNameClashError,
    ParseError,
    StarNegationError,
    UndeclaredAtomError,
)
from .hasse import algebra_dot, cross_dot
from .implication import (
    CrossImplication,
    check_implication_axioms,
    close,
    implication_from_translation,
    translation_from_implication,
)
from .language import (
    Formula,
    LanguageSpec,
    format_formula,
    format_language,
    parse_formula,
    parse_language,
)
from .oracle import (
    OracleBudget,
    brute_adjoint,
    brute_states,
    brute_ultrafilters,
    state_set_of,
)
from .randgen import (
    cell_algebra,
    make_cell_spec,
    random_atom_outer_translation,
    random_consistent_translation,
)
from .semantics import (
    JointStateSpace,
    SemanticTranslation,
    build_joint_state_space,
    joint_space_from_translation,
    probability_bounds,
    sigma_approximation,
    verify_prop2,
)
from .translation import (
    Translation,
    approximable_set,
    check_approximation,
    check_consistency,
    check_derived_properties,
    check_galois,
    check_restricted_duality,
    translation_from_atom_outers,
)

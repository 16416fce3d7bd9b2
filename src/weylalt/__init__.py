"""Weyl alternation sets, Kostant partition counting, and subword catalogs.

The package computes, for the classical families A through D, which Weyl
group elements contribute to Kostant's multiplicity formula, extracts the
basic allowable subwords that generate those sets under independence, and
verifies the type A closed forms: catalogs, Fibonacci counts, generating
functions, and q-multiplicity identities.  All arithmetic is exact.
"""

from .altset import (
    AlternationSet,
    compute,
    compute_naive,
    contains,
    multiplicity,
    q_multiplicity,
    sample_weight_pairs,
    verify_conjecture,
    verify_order_ideal,
)
from .bas import (
    BasSet,
    EmptyAlternationSetError,
    ProductCase,
    ProductClassification,
    TrichotomyError,
    classify_product,
    compute_bas,
    independent_subsets,
    reconstruct,
    verify_bijection,
)
from .enumeration import (
    PowerSeries,
    alternation_count,
    count_neg_height2,
    count_neg_simple,
    fibonacci,
    h_value,
    highest_root_alternation_set,
    p_value,
    series_expand,
    series_grand,
    series_h,
    series_h_bivariate,
    series_p,
    series_p_bivariate,
    verify_generating_functions,
    verify_recurrences,
)
from .kostant import (
    QPolynomial,
    kostant_partition,
    kostant_partition_q,
)
from .reporting import Report
from .rootsys import (
    RootSystem,
    RootSystemSpec,
    build_root_system,
    fundamental_weights,
    neg_root,
    partition_to_weight,
    zero_weight,
)
from .typea import (
    CatalogEntry,
    XSequence,
    catalog_bas,
    forbidden_words,
    psi,
    verify_catalogs,
    verify_forbidden,
    verify_sequence_encodings,
    verify_trichotomy,
    verify_x_bijection,
    x_sequences,
)
from .weyl import (
    GroupSizeError,
    WeylElement,
    act,
    enumerate_group,
    from_word,
    group_order,
    identity,
    independent,
    influence,
    multiply,
    word_text,
)

__version__ = "0.1.0"

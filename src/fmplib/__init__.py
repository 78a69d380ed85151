"""Exact finite multiple polylogarithms over (Z/pZ)[t].

Computes the chain-sum polylogs, their window-sliced zeta variants, and the
strict-chain polylogs, and verifies — prime by prime over configurable
ranges — the shuffle lemma, the factorial formula for all-ones indices, the
t <-> 1-t functional equations, and the conversion between the two polylog
families.  All arithmetic is exact; every identity check is a polynomial
residual that must vanish.
"""

from .fmp import (
    BlockTriple,
    ChainDistribution,
    DEFAULT_ORACLE_BUDGET,
    Index,
    OracleTooLarge,
    all_indices,
    chain_distribution,
    naive_reference,
    naive_reference_general,
    oy_fmp,
    oy_fmp_general,
    zeta_variant,
)
from .identities import (
    FactorialNotInvertible,
    closed_form_residuals,
    curly_L,
    f_poly,
    functional_eq_residual,
    g_poly,
    main_theorem_residual,
    obstruction_n5_residual,
    ones_fmp,
    recurrence_residual,
    shuffle_lemma_residual,
)
from .modular import (
    DenominatorNotInvertible,
    PrimeMismatch,
    Residue,
    bernoulli_mod,
    is_prime,
    primes_in,
)
from .polyfp import (
    MINUS_INFINITY,
    PolyFp,
    compose_one_minus_t,
)
from .ss import (
    AdjacentDistinctSurjection,
    EnumerationCapExceeded,
    corollary_depth3_residual,
    corollary_depth4_residual,
    enumerate_phi,
    grouped_index,
    oy_from_ss,
    ss_star,
    ss_star_reference,
)
from .sweep import (
    ConflictError,
    IDENTITY_IDS,
    RunConfig,
    SweepReport,
    merge_reports,
    run_sweep,
)

__version__ = "0.1.0"

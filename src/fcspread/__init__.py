"""Fermat-Catalan style searches over products of bounded spread.

A *product of bounded spread* is a factorization X = x_1 * ... * x_d whose
factors all lie in a short window [b, b+s]: b is the base, s the spread and
d the degree.  Perfect powers are exactly the spread-0 products.  This
package provides:

* exact integer arithmetic (factorization, radicals, roots, perfect powers),
* decomposition and enumeration of bounded-spread products,
* the known solution catalogs and parametric solution families,
* exhaustive, resumable desk-scale counterexample searches for the related
  conjectures, and
* an exact checker for an explicit abc-type inequality.
"""

from .arith import (
    factorize,
    gcd_quality,
    iroot,
    is_prime,
    perfect_power_exponents,
    radical,
)
from .products import (
    ProductDecomposition,
    SpreadConstraints,
    analyze,
    decompose,
    enumerate_products,
    fc_weight,
    spread_lemma_margin,
)
from .families import (
    IdentityFailure,
    KnownSolution,
    degree3_catalog,
    fermat_catalan_catalog,
    gen_counterexample_family,
    gen_maxgcd_trivial,
    gen_pythagorean,
    gen_standard,
    is_standard,
    solve_congruences,
)
from .abc_check import (
    AbcReport,
    AbcTriple,
    brute_force_scan,
    check_classic,
    check_explicit,
    excess_pairs,
    parse_triples,
    quality,
    radical_sieve,
)
from .search import (
    RunResult,
    SearchConfig,
    make_config,
    plan_chunks,
    run_chunked,
    verify_record,
)

__all__ = [
    "factorize",
    "radical",
    "gcd_quality",
    "iroot",
    "perfect_power_exponents",
    "is_prime",
    "ProductDecomposition",
    "SpreadConstraints",
    "analyze",
    "decompose",
    "enumerate_products",
    "fc_weight",
    "spread_lemma_margin",
    "KnownSolution",
    "IdentityFailure",
    "fermat_catalan_catalog",
    "degree3_catalog",
    "gen_standard",
    "gen_maxgcd_trivial",
    "gen_pythagorean",
    "gen_counterexample_family",
    "solve_congruences",
    "is_standard",
    "SearchConfig",
    "RunResult",
    "make_config",
    "plan_chunks",
    "run_chunked",
    "verify_record",
    "AbcTriple",
    "AbcReport",
    "parse_triples",
    "check_explicit",
    "check_classic",
    "quality",
    "brute_force_scan",
    "excess_pairs",
    "radical_sieve",
]

__version__ = "0.1.0"

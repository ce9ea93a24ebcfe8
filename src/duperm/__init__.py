"""Low differential-uniformity S-boxes over GF(2^(5k)).

Builds permutations of GF(2^n), n = 5k, by modifying the Dobbertin
power map x^d, d = 2^(4k) + 2^(3k) + 2^(2k) + 2^k - 1, on the subfield
GF(2^k); computes their differential spectrum, nonlinearity and
algebraic degree; and machine-verifies the underlying no-solution
lemma both exhaustively and by symbolic resultant elimination.
"""

from .analyzer import (
    CriteriaReport,
    algebraic_degree,
    analyze,
    differential_spectrum,
    is_permutation,
    nl_lower_bound,
    nonlinearity,
)
from .construct import (
    LutFunction,
    affine_map,
    build_f,
    build_g,
    dobbertin_exponent,
    instance,
    parse_affine_expr,
    read_lut,
    write_lut,
)
from .gf2n import FieldCtx, mk_field
from .prover import ClaimResult, lemma1_exhaustive, lemma1_replay, run_claims

__version__ = "0.1.0"

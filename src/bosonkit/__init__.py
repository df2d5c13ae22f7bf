"""Exact normal ordering of boson monomial powers and everything it implies.

The package normal orders [(a+)^r a^s]^n in the Weyl algebra [a, a+] = 1,
reads off generalized Stirling and Bell numbers, evaluates the matching
series representations with certified error bounds, and verifies the
generating-function and moment-measure identities these numbers satisfy.
Every computed quantity is reachable by at least two independent routes, and
the verification suites cross them against each other.  The test module
``tests/test_routes.py`` names every route in one table and crosses them for
each family 1 <= s <= r <= 5 at n <= 10 and at rows past 2^256:

* a Stirling row by the contraction engine, the ``stirling_table`` dispatch,
  the paper's explicit formula, ``normal_order_word`` on the literal word
  and ``stirling_rr_closed`` (r = s) or ``lah`` ((2, 1));
* a Bell number by the row sum, ``bell_sequence``, ``bell``, the Dobinski
  series, ``bell_hypergeometric`` where (r, s) = (pq + p, pq), the comb
  moments (r = s), ``continuous_moment_series`` (r = 2s) and n! times the
  EGF coefficient (s = 1).
"""

from .errors import (
    BosonKitError,
    DivergentSeriesError,
    DomainError,
    MissingDependencyError,
    NonIntegerResultError,
    OutOfRangeError,
    PrecisionExhaustedError,
    UnsupportedError,
    UnsupportedFamilyError,
    UnsupportedMomentError,
)
from .numeric import DEFAULT_BITS, Check, ErrorBoundedReal, SeriesSpec
from .operator_algebra import (
    ANNIHILATE,
    CREATE,
    MonomialSpec,
    NormalForm,
    monomial_power_normal_form,
    monomial_power_rows,
    multiply,
    normal_order_word,
)
from .stirling import (
    bell,
    bell_sequence,
    bell_values,
    lah,
    stirling_rr_closed,
    stirling_table,
)
from .dobinski import (
    bell_hypergeometric,
    dobinski_classic,
    dobinski_rr,
    dobinski_rs,
    dobinski_rs_literal,
)
from .genfunc import (
    egf_classic,
    egf_r1,
    select_normalization_order,
    verify_normal_exponential,
)
from .measures import (
    ContinuousDensity,
    DiscreteMeasure,
    MomentReport,
    bessel_i,
    continuous_moment_series,
    dirac_comb,
    moment,
    rarefied_comb,
    verify_moments,
)

__version__ = "0.1.0"

__all__ = [
    "ANNIHILATE",
    "CREATE",
    "BosonKitError",
    "Check",
    "ContinuousDensity",
    "DEFAULT_BITS",
    "DiscreteMeasure",
    "DivergentSeriesError",
    "DomainError",
    "ErrorBoundedReal",
    "MissingDependencyError",
    "MomentReport",
    "MonomialSpec",
    "NonIntegerResultError",
    "NormalForm",
    "OutOfRangeError",
    "PrecisionExhaustedError",
    "SeriesSpec",
    "UnsupportedError",
    "UnsupportedFamilyError",
    "UnsupportedMomentError",
    "bell",
    "bell_hypergeometric",
    "bell_sequence",
    "bell_values",
    "bessel_i",
    "continuous_moment_series",
    "dirac_comb",
    "dobinski_classic",
    "dobinski_rr",
    "dobinski_rs",
    "dobinski_rs_literal",
    "egf_classic",
    "egf_r1",
    "lah",
    "moment",
    "monomial_power_normal_form",
    "monomial_power_rows",
    "multiply",
    "normal_order_word",
    "rarefied_comb",
    "select_normalization_order",
    "stirling_rr_closed",
    "stirling_table",
    "verify_moments",
    "verify_normal_exponential",
]

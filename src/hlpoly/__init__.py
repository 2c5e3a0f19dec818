"""Exact computation of three (k, alpha, a)-parameterized sequence families
(one Bernoulli-type, two Cauchy-type), the Stirling triangles and truncated
power series they are built from, and grid audits of the identities relating
them: every verdict exact, every failure carrying a witness.
"""

__version__ = "0.1.0"

from .audit import (
    AuditReport,
    DEFAULT_GRID,
    GridSpec,
    Verdict,
    exit_code,
    run_identity,
)
from .exact import (
    NonreducibleDenominatorError,
    SingularParameterError,
    format_rational,
    mod_reduce,
    parse_rational,
)
from .sequences import (
    FAMILIES,
    Family,
    Params,
    deriv_coeffs_oracle,
    deriv_coeffs_printed,
    explicit_sequence,
    explicit_value,
    oracle_sequence,
)
from .series import PowerSeries, egf_coeff, kernel, phi_apply, phif_apply
from .stirling import stirling1_unsigned, stirling2

__all__ = [
    "AuditReport",
    "DEFAULT_GRID",
    "FAMILIES",
    "Family",
    "GridSpec",
    "NonreducibleDenominatorError",
    "Params",
    "PowerSeries",
    "SingularParameterError",
    "Verdict",
    "__version__",
    "deriv_coeffs_oracle",
    "deriv_coeffs_printed",
    "egf_coeff",
    "exit_code",
    "explicit_sequence",
    "explicit_value",
    "format_rational",
    "kernel",
    "mod_reduce",
    "oracle_sequence",
    "parse_rational",
    "phi_apply",
    "phif_apply",
    "run_identity",
    "stirling1_unsigned",
    "stirling2",
]

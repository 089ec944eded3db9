"""wavepack: oracle-verified evaluation of free-particle wave-packet integrals,
Gaussian-Hermite closed forms, theta-series expansions, and half-integer zeta
values, with a machine-readable correction ledger for every reconciled
formula constant.
"""

from .errors import (CapacityError, DomainError, NonConvergenceError,
                     UnsupportedMethodError, WavepackError)
from .foundation import (NATURAL_UNITS, PhysicalConfig, binomial, reduced_time,
                         sqrt_principal)
from .hermite import (gaussian_derivative, hermite_eval,
                      shifted_argument_identity, shifted_identity_ratio_constant)
from .quadrature import (DecayBound, QuadratureResult, chirp_integral,
                         integrate_decaying, integrate_interval,
                         integrate_oscillatory_regularized, psi_oracle)
from .closedform import (base_coscos, base_sinsin, coscos, f_cosine_moment,
                         g_n, gr_hermite_cos, gr_hermite_sin, sinsin)
from .wavepacket import (Amplitude, WaveValue, amplitude_derivative,
                         calibrate_parseval_constant,
                         calibrate_self_reciprocal_phase,
                         calibrate_self_reciprocal_scale,
                         fourier_cosine_transform, fourier_sine_transform,
                         hermite_weighted_expansion,
                         parseval_transformed_derivative, psi, psi_x_derivative,
                         schrodinger_residual, self_reciprocal_check,
                         self_reciprocal_scaled_sech)
from .asymptotics import (IbpExpansion, SeriesEval,
                          calibrate_glaisher_quartic_phase,
                          calibrate_sech_theta_constants,
                          glaisher_large_t_series, glaisher_packet_exact,
                          glaisher_theta_integral, heat_series, ibp_expansion,
                          sech_packet_exact, sech_theta_series)
from .zeta import (LatticeSumSpec, dirichlet_eta, gamma_half,
                   glaisher_alternating_gaussian, h_term, l_term, lattice_sum,
                   poisson_cosine_check, zeta_from_lattice, zeta_half_reference)
from .registry import (CORRECTION_LEDGER, CorrectionLedgerEntry, IdentityCase,
                       IdentityReport, emit_report, load_catalogue, run_suite)

__version__ = "0.1.0"

__all__ = [
    "Amplitude", "CORRECTION_LEDGER", "CapacityError", "CorrectionLedgerEntry",
    "DecayBound", "DomainError", "IbpExpansion", "IdentityCase", "IdentityReport",
    "LatticeSumSpec", "NATURAL_UNITS", "NonConvergenceError", "PhysicalConfig",
    "QuadratureResult", "SeriesEval",
    "UnsupportedMethodError", "WavepackError", "WaveValue",
    "amplitude_derivative", "base_coscos", "base_sinsin",
    "binomial", "calibrate_glaisher_quartic_phase", "calibrate_parseval_constant",
    "calibrate_sech_theta_constants", "calibrate_self_reciprocal_phase",
    "calibrate_self_reciprocal_scale", "chirp_integral", "coscos", "dirichlet_eta",
    "emit_report",
    "f_cosine_moment",
    "fourier_cosine_transform", "fourier_sine_transform", "g_n", "gamma_half",
    "gaussian_derivative", "glaisher_alternating_gaussian",
    "glaisher_large_t_series", "glaisher_packet_exact", "glaisher_theta_integral",
    "gr_hermite_cos", "gr_hermite_sin", "h_term", "heat_series", "hermite_eval",
    "hermite_weighted_expansion", "ibp_expansion", "integrate_decaying",
    "integrate_interval", "integrate_oscillatory_regularized", "l_term",
    "lattice_sum", "load_catalogue", "parseval_transformed_derivative",
    "poisson_cosine_check", "psi", "psi_oracle", "psi_x_derivative",
    "reduced_time", "run_suite", "schrodinger_residual", "sech_packet_exact",
    "sech_theta_series", "self_reciprocal_check", "self_reciprocal_scaled_sech",
    "shifted_argument_identity", "shifted_identity_ratio_constant", "sinsin",
    "sqrt_principal", "zeta_from_lattice", "zeta_half_reference",
]

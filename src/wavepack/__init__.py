"""wavepack: oracle-verified evaluation of free-particle wave-packet integrals,
Gaussian-Hermite closed forms, theta-series expansions, and half-integer zeta
values, with a machine-readable correction ledger for every reconciled
formula constant.

The package namespace is lazy (PEP 562): `import wavepack` loads no
submodule, and `__getattr__` below resolves each exported name through its
defining module when it is read, and each submodule name to the submodule.
No copy of a name is kept here, so rebinding a module attribute reaches every
later `wavepack.<name>` read.
"""
import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "amplitudes": ("Amplitude",),
    "asymptotics": ("IbpExpansion", "calibrate_glaisher_quartic_phase",
                    "calibrate_sech_theta_constants", "glaisher_large_t_series",
                    "glaisher_packet_exact", "glaisher_theta_integral", "heat_series",
                    "ibp_expansion", "sech_packet_exact", "sech_theta_series"),
    "cli": (),
    "closedform": ("base_coscos", "base_sinsin", "coscos", "f_cosine_moment", "g_n",
                   "gr_hermite_cos", "gr_hermite_sin", "sinsin"),
    "errors": ("CapacityError", "DomainError", "NonConvergenceError",
               "UnsupportedMethodError", "WavepackError"),
    "fd": (),
    "foundation": ("NATURAL_UNITS", "PhysicalConfig", "SeriesEval", "binomial",
                   "reduced_time", "sqrt_principal"),
    "hermite": ("gaussian_derivative", "hermite_eval", "shifted_argument_identity",
                "shifted_identity_ratio_constant"),
    "ledger": ("CORRECTION_LEDGER", "CorrectionLedgerEntry"),
    "quadrature": ("DecayBound", "Piece", "QuadratureResult", "SectorBound", "StripBound",
                   "chirp_integral",
                   "chirp_trapezoid", "integrate_decaying", "integrate_interval",
                   "integrate_oscillatory_regularized", "psi_oracle"),
    "registry": ("IdentityCase", "IdentityReport", "emit_report", "load_catalogue",
                 "run_suite"),
    "wavepacket": ("WaveValue", "amplitude_derivative", "calibrate_parseval_constant",
                   "calibrate_self_reciprocal_phase", "calibrate_self_reciprocal_scale",
                   "fourier_cosine_transform", "fourier_sine_transform",
                   "hermite_weighted_expansion", "parseval_transformed_derivative", "psi",
                   "psi_x_derivative", "schrodinger_residual", "self_reciprocal_check",
                   "self_reciprocal_scaled_sech"),
    "zeta": ("LatticeSumSpec", "dirichlet_eta", "gamma_half", "glaisher_alternating_gaussian",
             "h_term", "l_term", "lattice_sum", "poisson_cosine_check", "zeta_from_lattice",
             "zeta_half_reference"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

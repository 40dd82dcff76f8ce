"""Characteristic-dependent network coding toolkit.

Builds families of multiple-unicast networks whose (k, n) fractional
linear solvability over GF(p) depends only on whether the characteristic
p divides a construction parameter q, together with closed-form codes,
an exact verifier, and an exhaustive solvability search.

``import ncchar`` is lazy: it loads no submodule.  A public name, or a
submodule such as ``ncchar.lincode``, is imported on first use (PEP 562),
so a program pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines, each listed once
_EXPORTS = {
    "constructions": """GadgetApplication gadget_transform gadget_transform_traced
        gen_fano gen_n1 gen_n2 gen_nonfano union_copies""",
    "gf": "FieldMatrix PrimeModulus as_modulus rank",
    "lincode": """CharacteristicError CodeError CodeFormatError CodeInput FractionalCode
        SymbolicCode SymMatrix TerminalReport VerificationReport
        eval_transfer instantiate load_code save_code verify""",
    "network": """CodedNetwork CycleError NetEdge NetNode NetworkFormatError
        UnicastCheck ValidationReport Violation is_multiple_unicast load save
        topological_order validate""",
    "solutions": "lift_gadget lift_union solve_n1 solve_n2",
    "solver": """INCONCLUSIVE SOLVABLE UNSOLVABLE SearchConfig SearchOutcome
        search_fractional search_scalar""",
}
_ORIGIN = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

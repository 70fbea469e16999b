"""P4 code generation backend for compiled Contra policies."""

from repro import lazy_exports

_EXPORTS = {
    "P4Program": "codegen",
    "generate_p4": "codegen",
    "generate_all_p4": "codegen",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)

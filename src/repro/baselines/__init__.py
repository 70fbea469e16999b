"""Baseline routing systems the paper compares against."""

from repro import lazy_exports

_EXPORTS = {
    "EcmpSystem": "ecmp",
    "ShortestPathSystem": "ecmp",
    "HulaSystem": "hula",
    "HulaRouting": "hula",
    "SpainSystem": "spain",
    "SpainRouting": "spain",
    "compute_spain_paths": "spain",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)

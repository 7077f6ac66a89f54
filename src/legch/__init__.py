"""Persistent linearized contact homology of Legendrian knots in R^3, computed
from combinatorial diagram data: a Z2 DGA on the crossings, augmentations and
linearization, height filtrations (assigned by flooding or supplied in the
input), barcodes, barcode distance, and the strong Morse identity.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name: str):  # PEP 562: ``import legch`` loads no submodule, ``legch.<name>`` its own on first use
    if name not in ("algebra", "augment", "cli", "corpus", "diagram", "fileio", "metrics", "persist"):
        raise AttributeError(f"module 'legch' has no attribute {name!r}")
    return importlib.import_module(f"legch.{name}")

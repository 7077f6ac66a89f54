"""Persistent linearized contact homology of Legendrian knots in R^3, computed
from combinatorial diagram data: a Z2 DGA on the crossings, augmentations and
linearization, height filtrations (assigned by flooding or supplied in the
input), barcodes, barcode distance, and the strong Morse identity.
"""

__version__ = "0.1.0"

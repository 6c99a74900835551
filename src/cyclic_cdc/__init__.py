"""Cyclic constant-dimension subspace codes over finite-field towers.

Construction of Sidon-space and subspace-polynomial orbit codes, exact
desk-scale verification of their sizes and minimum distances, closed-form
size formulas and sphere-packing/Johnson bounds, and a small operator-channel
simulator with minimum-distance decoding.

The package root exports only ``__version__``; import the layers as modules
(``cyclic_cdc.field_tower``, ``cyclic_cdc.sidon_constructions``, ...).
"""

__version__ = "0.1.0"

"""The bundled example knot files, next to this module: unknot, trefoil, trefoil_rii (the trefoil after
a strand-slide that adds a cancelling crossing pair) and island (a diagram where flooding fails).
"""

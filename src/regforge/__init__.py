"""Linear control toolkit for a steam-turbine DC-generator plant.

Models the plant from physical parameters, synthesizes LQR and
observer-based controllers, simulates open- and closed-loop responses,
and reproduces (or flags as irreproducible) the published figures.
"""

__version__ = "0.1.0"

"""Dynamic communication networks from range-limited agents on a bounded grid.

Agents move randomly on a g-by-g integer grid and hold undirected links
to every agent within communication range; a dynamic non-spatial null
model relinks pairs at a matched probability. Per-timestep network
measures, four transmission processes, and a sweep harness sit on top.
"""

__version__ = "0.1.0"

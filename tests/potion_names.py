"""The potion task in item names, for tests.

The package holds potion inventories as int bitmasks numbered by a
`PotionTable`. These helpers translate item names to masks and back, so
tests can pass and check sets of names. Unlike `oracles`, everything
here calls the package's own code.
"""

from __future__ import annotations

from rangesim import diffusion
from rangesim.diffusion import PotionTable


def names(table, mask):
    """The item names whose bits are set in `mask`."""
    return {name for name, bit in table.bit.items() if mask & bit}


def _name(table, bit):
    (name,) = names(table, bit)
    return name


def potion_step(snap, inventories, cfg, draws):
    """`diffusion.potion_step` on sets of names; (inventories, created names)."""
    table = PotionTable(cfg)
    masks, created = diffusion.potion_step(
        snap, [table.mask(inv) for inv in inventories], table, draws)
    return [names(table, mask) for mask in masks], [_name(table, bit) for bit in created]

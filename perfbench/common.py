"""Constants shared by the harness and the reference generator."""

from __future__ import annotations

# Base worlds over atoms p, q as (p, q) truth values.  Measures in the
# reference pools list one weight per world in this order.
WORLDS = ((True, True), (True, False), (False, True), (False, False))

# Declared width ladders: every op of a workload must leave exactly this
# ladder behind, or it counts as failed.
DEEP_LADDER = [4, 8, 32, 384, 40960]
WARM_LADDER = [4, 8, 32, 384, 40960]
ZERO_LADDER = [4, 8]
CLI_LADDER = [4, 8, 32]


def world_of_label(label: str) -> tuple[bool, bool]:
    """``"p /\\ ~q"`` -> ``(True, False)``: read an engine base-world label."""
    value = {}
    for lit in label.split("/\\"):
        lit = lit.strip()
        value[lit.lstrip("~")] = not lit.startswith("~")
    return value["p"], value["q"]

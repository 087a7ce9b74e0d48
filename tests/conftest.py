"""Checks that hold in every test."""

import pytest

from decouplab import entropy


@pytest.fixture(autouse=True)
def certified_fixed_points(monkeypatch):
    """Every minimized weight's fixed point ends within the gap tolerance
    set at import, whatever a test patches later."""
    tolerance, solve = entropy.GAP_TOLERANCE, entropy._collision_fixed_point

    def checked(s, p):
        probs, gap = solve(s, p)
        assert gap <= tolerance, f"fixed point stopped at a gap of {gap:.3e} bits"
        return probs, gap
    monkeypatch.setattr(entropy, "_collision_fixed_point", checked)

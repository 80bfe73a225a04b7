"""Fixtures shared by the test suite."""

import pytest

import hm_sim.dynamics
import hm_sim.geometry


@pytest.fixture
def no_live_simplexes():
    """An empty simplex registry, and no plan kept for a later shot.

    Observables with the same eigenstate bits share one simplex while any
    of them holds it, so a test that counts builds starts here: then each
    new basis builds its simplex once, whatever earlier tests left alive.
    The module's own registry is emptied in place, not replaced, so a test
    sees the registry the module declares.
    """
    hm_sim.geometry._simplexes.clear()
    hm_sim.dynamics._held_plan.cache_clear()
    hm_sim.dynamics._spin_plan_of_bits.cache_clear()

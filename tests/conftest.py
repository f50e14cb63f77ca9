"""Shared fixtures.

Scenario construction and (especially) full surveys dominate test
runtime, so they are session-scoped: every test module reads the same
tiny simulated Internet and the same completed measurement campaign.
Tests never mutate these fixtures' topology; probing through them is
fine (the dataplane is effectively stateless outside rate limiters,
which relevant tests reset).

Hypothesis tests that set no example budget of their own take it from
the profile named by ``HYPOTHESIS_PROFILE`` (default: hypothesis's
own); the ``ci`` profile runs 1000 examples with no deadline.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.study import StudyData, run_full_study
from repro.scenarios.internet import Scenario
from repro.scenarios.presets import tiny

settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def tiny_scenario() -> Scenario:
    """The tiny preset Internet (seed 2016)."""
    return tiny()


@pytest.fixture(scope="session")
def tiny_study(tiny_scenario: Scenario) -> StudyData:
    """The full §3.1 campaign (ping + RR surveys) on the tiny preset."""
    return run_full_study(tiny_scenario)

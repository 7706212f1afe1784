from __future__ import annotations

import os

import pytest
from hypothesis import settings

import helpers
from eventqa.corpus import Answer
from eventqa.promptkit import Demonstration

# A shared CI runner can be slow enough to trip the per-example deadline, and
# a failure there should be reproducible from the log: the "ci" profile drops
# the deadline and draws the same examples on every run.
settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rally_graph():
    return helpers.rally_graph()


@pytest.fixture
def rally_instance():
    return helpers.rally_instance()


@pytest.fixture
def worked_demos():
    """The two worked examples shipped in the graph chain-of-thought prompt."""
    return [
        Demonstration(question='Did "protest rally" happen after "riot police deployed"?', answer=Answer.NO),
        Demonstration(question='Did "music" cause "draws many people"?', answer=Answer.YES),
    ]


@pytest.fixture
def synthetic_split():
    return helpers.synthetic_split(130, seed=7)

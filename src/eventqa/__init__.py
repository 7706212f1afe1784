"""Event-QA harness: causal-graph prompts, pluggable backends, per-category scoring."""

__version__ = "0.3.0"


class EventQAError(Exception):
    """Base class of the failures the CLI reports as ``error: ...`` with exit code 2."""

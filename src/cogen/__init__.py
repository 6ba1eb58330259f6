"""Collaborative text generation across a context-holding device model
and a context-blind cloud logit service."""

__version__ = "0.1.0"

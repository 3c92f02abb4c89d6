"""Alias kept for the repo benchmark's import (``perfbench/served.py``)."""

from repro.serve.router import spawn_router  # noqa: F401

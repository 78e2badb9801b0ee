"""The name of the cycle kernel, for run headers.

The simulator has one cycle kernel, the reference
:class:`~repro.pipeline.core.SMTCore`.  A ``REPRO_ENGINE`` that names
any other kernel (a stale ``batched``, say) fails loudly here rather
than letting a run be labelled with a kernel that did not run.
"""

from __future__ import annotations

import os

__all__ = ["resolve_engine"]


def resolve_engine() -> str:
    """The kernel name: ``"reference"``.  Raises :class:`ValueError`
    when ``REPRO_ENGINE`` names any other kernel."""
    name = os.environ.get("REPRO_ENGINE", "").strip()
    if name not in ("", "reference"):
        raise ValueError(
            f"REPRO_ENGINE={name!r}: the only cycle kernel is 'reference'"
        )
    return "reference"

"""Runtime limits shared by the oracle and the CLI."""

from __future__ import annotations

import os

DEFAULT_DIMENSION_CAP = 25
CAP_ENV_VAR = "FIBOCUBE_CAP"


def dimension_cap(override: int | None = None) -> int:
    """Effective dimension cap: explicit override, else env var, else default."""
    if override is not None:
        cap = int(override)
    else:
        env = os.environ.get(CAP_ENV_VAR)
        try:
            cap = int(env) if env else DEFAULT_DIMENSION_CAP
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    if cap < 2:
        raise ValueError(f"dimension cap must be at least 2, got {cap}")
    return cap

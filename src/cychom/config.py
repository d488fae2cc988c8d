"""Budgets and tunables.

All hard limits live in one place so the environment override hits the
same knobs the library defaults use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ValidationError

# Environment variable overriding the default chain-space budget.
BUDGET_ENV_VAR = "CYCHOM_BUDGET_DIMS"

DEFAULT_CHAIN_DIM_BUDGET = 2_000_000
DEFAULT_DIM_CAP = 64
DEFAULT_MAX_FIELD_ORDER = 64
DEFAULT_HP_CUTOFF = 6


@dataclass(frozen=True)
class Budget:
    """Resource limits for a run.

    max_chain_dim  largest chain-space dimension a window may allocate
    dim_cap        largest algebra dimension constructors will build
    max_field_order  largest cyclotomic order the splitting search may reach
    """

    max_chain_dim: int = DEFAULT_CHAIN_DIM_BUDGET
    dim_cap: int = DEFAULT_DIM_CAP
    max_field_order: int = DEFAULT_MAX_FIELD_ORDER


def default_budget() -> Budget:
    """Budget with the environment override applied."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return Budget()
    try:
        dims = int(raw)
    except ValueError:
        dims = 0
    if dims <= 0:
        raise ValidationError(
            f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return Budget(max_chain_dim=dims)

"""Budgets and tunables.

All hard limits live here and nowhere else: no function takes a limit as
a parameter.  Each limit check calls ``default_budget()`` when it runs, so
a limit holds for the whole call tree of a public call.  ``default_budget``
reads the ``DEFAULT_*`` constants below at call time, and the environment
variable ``CYCHOM_BUDGET_DIMS`` overrides ``max_chain_dim``.  A caller or
a test sets a limit by assigning the module constant (for instance
``monkeypatch.setattr(config, "DEFAULT_DIM_CAP", 3)``) or the variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import SizeOverflow, ValidationError

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

    max_chain_dim: int
    dim_cap: int
    max_field_order: int


def default_budget() -> Budget:
    """The current limits, with the environment override applied."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    dims = DEFAULT_CHAIN_DIM_BUDGET
    if raw is not None:
        try:
            dims = int(raw)
        except ValueError:
            dims = 0
        if dims <= 0:
            raise ValidationError(
                f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return Budget(max_chain_dim=dims, dim_cap=DEFAULT_DIM_CAP,
                  max_field_order=DEFAULT_MAX_FIELD_ORDER)


def check_chain_dims(dims, what: str) -> None:
    """Refuse with SizeOverflow a window whose degree-n space, of dims[n]
    coordinates, is larger than the chain-dimension limit."""
    max_dim = default_budget().max_chain_dim
    for n, size in enumerate(dims):
        if size > max_dim:
            raise SizeOverflow(
                "degree-%d %s space needs %d coordinates, budget is %d"
                % (n, what, size, max_dim))

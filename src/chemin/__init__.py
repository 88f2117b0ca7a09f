"""Exact analysis engine for baccarat chemin de fer.

Reproduces, in exact rational arithmetic, the Banker best-response
tables, the draw-at-five statistics of Bertrand's four problems, the
flawed 19th-century variants of Dormoy and Badoureau, mixed-strategy
corrections, whole-coup game values, and the exact solutions of the two
2x2 games these induce, with a seeded Monte Carlo cross-check.
"""

__version__ = "0.1.0"

from .audit import bertrand_report
from .banker import (
    BADOUREAU,
    COLUMNS,
    CORRECT,
    DORMOY,
    STOOD,
    VARIANTS,
    Cell,
    DecisionTable,
    PlayerRule,
    banker_draw_ev,
    banker_stand_ev,
    best_response_table,
    dormoy_unweighted_response,
    equal_ev_cells,
    historical_table,
    mixed_best_response,
)
from .cards import (
    CARD_VALUES,
    HAND_TOTALS,
)
from .coup import (
    CoupPolicy,
    bar_matrix,
    coup_stats,
    five_matrix,
    solve_2x2,
)
from .five import (
    FiveAction,
    StatTriple,
    five_stats,
    naive_average_ev,
)
from .rational import as_rational, render_decimal, render_exact
from .simulate import SimConfig, SimResult, bernoulli, draw_card_value, simulate

__all__ = [
    "BADOUREAU",
    "CARD_VALUES",
    "COLUMNS",
    "CORRECT",
    "DORMOY",
    "HAND_TOTALS",
    "STOOD",
    "VARIANTS",
    "Cell",
    "CoupPolicy",
    "DecisionTable",
    "FiveAction",
    "PlayerRule",
    "SimConfig",
    "SimResult",
    "StatTriple",
    "as_rational",
    "banker_draw_ev",
    "banker_stand_ev",
    "bar_matrix",
    "bernoulli",
    "bertrand_report",
    "best_response_table",
    "coup_stats",
    "dormoy_unweighted_response",
    "draw_card_value",
    "equal_ev_cells",
    "five_matrix",
    "five_stats",
    "historical_table",
    "mixed_best_response",
    "naive_average_ev",
    "render_decimal",
    "render_exact",
    "simulate",
    "solve_2x2",
]

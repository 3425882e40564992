"""Parallel-in-time acceleration of sequential optimizer updates.

Generalizes fixed-point (Picard) trajectory refinement from ODE solving to
arbitrary sequential update rules: momentum (Adam) updates and
dimension-changing parameter spaces included.  A sliding window of future
steps is refined each round from parallel drift evaluations, advancing by an
adaptively thresholded skip rule, trading parallel workers for fewer
sequential rounds.
"""

from .engine import (EngineResult, EngineSettings, advance_window, compute_skip,
                     fixed_point_distance, picard_round, run, update_threshold)
from .errors import (ConfigError, DimensionError, InternalConsistencyError,
                     ObjectiveError, PicardoptError, PoisonedDrift, ScheduleError)
from .kernels import kernel_path
from .oracle import SequentialRun, StepComparison, solve_sequential
from .pool import WorkerPool
from .problems import PROBLEM_KINDS, Problem, make_problem
from .rules import (RULE_KINDS, AdamParams, AuxModel, UpdateRule, carried, drift,
                    initial_state, make_rule, rollout_one, sequential_step)
from .schedule import ScheduleAction, split_offset
from .state import (MomentState, ParamState, iter_states, state_checksum, states_equal_bits,
                    write_states)
from .telemetry import RoundRecord, RunReport, finalize_report

__version__ = "0.1.0"

"""Control and simulation stack for a non-contact cold-sensation display.

Cooling comes from a continuously blown cold-air jet, warming from a
switchable radiant LED array; alternating the two on the same skin patch
presents persistent cold while the skin temperature barely moves.  The
package compiles stimulus patterns into actuator duty timelines,
calibrates duty-to-rate models against a simulated skin plant, and runs
and analyzes perception studies with synthetic participants.
"""

from .errors import (CalibrationError, DegenerateDesignError,
                     UnreachableRateError, ValidationError, WrongKindError)
from .pattern import (DerivedPattern, RateSchedule, Segment, StimulusSpec,
                      compile_schedule, derive_pattern, validate_spec)
from .plant import (PlantParams, SensorReading, SkinPlant, Trace,
                    load_plant_config)
from .control import (ActuatorTimeline, CalibrationProtocol, CalibrationResult,
                      DutyModel, calibrate, exact_models, fit_duty_model,
                      invert_duty, load_models, run_control,
                      schedule_to_timeline)
from .stats import (TestResult, benjamini_hochberg, chi_square_sf,
                    kruskal_wallis, wilcoxon_rank_sum)
from .experiment import (ExperimentPlan, ParticipantModel, SliderTrace,
                         TrialRecord, analyze_exp2, analyze_exp3,
                         build_exp2_plan, build_exp3_plan, default_participants,
                         run_experiment, run_participants, run_pipeline,
                         simulate_participant)

__version__ = "0.1.0"

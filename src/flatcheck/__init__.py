"""flatcheck: decide flatness by pure prolongation of nonlinear control systems."""

from .expr import (DenominatorVanishes, DivisionByZero, Expr,
                   UnsupportedTrigComposition, VarRef, cos_var, input_var,
                   param_var, render_expr, sin_var, state_var)
from .jetgeom import (Distribution, JetSpace, MultiIndex, SamplingExhausted,
                      SpaceMismatch, VectorField, ad_pow, generic_rank,
                      lie_bracket, unit_field)
from .prolong import (ProlongedSystem, build_prolonged, delta_filtration,
                      g_filtration, gamma_filtration)
from .flatness import (Budgets, CandidateCountMismatch, NotLinearizable,
                       analyze, brunovsky_indices, cns_check,
                       search_flat_outputs, static_linearizable,
                       verify_flat_output)
from .report import AnalysisReport
from .sysdsl import (DslError, DuplicateEquation,
                     HigherInputDerivativeInDrift, MissingEquation,
                     RationalPoint, SystemDef, SyntaxErr, UndeclaredIdentifier,
                     emit_report, parse_system, render_system)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""watsonlab: arbitrary-precision evaluation of the two-index Watson family
f_{i,j}(a,b,c) = 3F2(a,b,c; (a+b+i+1)/2, 2c+j; 1) and numerical adjudication
of its summation identities and contiguous relations."""

__version__ = "0.1.0"

from .mpnum import GammaFactor, NumeratorPole, PrecisionCtx, gamma_product, ln_gamma
from .series import (PFQ, ArgumentNotUnity, DivergentSeries, EvalResult,
                     NonRationalInput, NotTerminating, OutsideRadius,
                     SeriesError, convergence_margin, eval_exact, eval_general,
                     eval_unit, termination_degree)
from .closedform import (FORM_IDS, DivergenceRegion, ParameterPole, gauss_2f1_unit,
                         lavoie_minus, lavoie_plus, registry_as_dicts, watson_00)
from .lattice import (PreconditionViolation, ReductionPlan, UnsupportedIndex,
                      WatsonPoint, eval_point, margin, recurrence_residual,
                      reduce_to_watson, three_term_corrected, three_term_printed,
                      to_pfq)
from .report import RelationInstance, RelationReport
from .verify import (RELATIONS, SUITE_ORDER, SamplingExhausted, UnknownRelation,
                     check_relation, run_suite, sample_params, worker_pool)

"""The public record and configuration types.

Each is a named tuple. The five configuration types and ``CtDataset`` check
their fields whenever one is built: through the constructor, ``_replace``,
``pickle`` or ``copy``.
"""

import copy
import math
import pickle
import re

import pytest

from bactipot import (
    AsymptoticCovariance,
    CtDataset,
    CtObservation,
    CtResidual,
    DesignEvaluation,
    FitResult,
    GrowthParams,
    InvalidParameterError,
    McStudyConfig,
    McStudyReport,
    MeanEstimate,
    MeasurementConfig,
    OffspringDistribution,
    PipelineConfig,
    PipelineFit,
)

COV = AsymptoticCovariance(8.6, 0.25, 0.0077, 0.00012, (1.5, -2.5, 3.5))
FIT = FitResult(10.0, 1.0, 0.1, (0.25, 0.5))

#: (type, its fields in order, the values of the fields without a default,
#: the defaults, and the bad field values, each with its message)
RECORDS = [
    (OffspringDistribution, "p0 p1 p2", (0.25, 0.25, 0.5), {},
     [({"p0": 1.5}, "p0 must lie in [0, 1], got 1.5")]),
    (GrowthParams, "alpha beta", (10.0, 1.0), {},
     [({"alpha": 0.0}, "alpha and beta must be positive, got (0.0, 1.0)")]),
    (MeasurementConfig, "a sigma_eps x0 n_generations replicates", (),
     {"a": 0.0, "sigma_eps": 0.2, "x0": 10_000, "n_generations": 10, "replicates": 3},
     [({"replicates": 0}, "replicates must be >= 1, got 0"),
      ({"a": math.inf}, "a must be finite, got inf"),
      ({"a": -math.inf}, "a must be finite, got -inf"),
      ({"a": math.nan}, "a must be finite, got nan")]),
    # a grid given as a list is kept as a tuple
    (McStudyConfig, "params grid measurement n_measurements seed",
     (GrowthParams(10.0, 1.0), [0.25, 0.5], MeasurementConfig(), 100), {"seed": 0},
     [({"n_measurements": 1}, "n_measurements must be >= 2, got 1")]),
    (PipelineConfig, "high_c_threshold low_c_choice x0 fit_concentrations",
     (2.0, 2.0**-7, 10_000), {"fit_concentrations": None},
     [({"x0": 0}, "x0 must be >= 1, got 0"),
      # each threshold is a concentration, under the grid rule
      ({"high_c_threshold": math.nan}, "concentrations must be finite and positive, got nan"),
      ({"high_c_threshold": 0.0}, "concentrations must be finite and positive, got 0.0"),
      ({"low_c_choice": -1.0}, "concentrations must be finite and positive, got -1.0"),
      ({"low_c_choice": math.inf}, "concentrations must be finite and positive, got inf"),
      # the free-growth lane lies below the threshold, and is not its twin
      ({"low_c_choice": 2.0}, "concentrations must be strictly increasing, got 2.0 then 2.0"),
      ({"low_c_choice": 4.0}, "concentrations must be strictly increasing, got 4.0 then 2.0"),
      ({"low_c_choice": 1.99999999999},
       "concentrations 1.99999999999 and 2.0 are distinct but name the same lane"),
      # so are the fit lanes, once sorted
      ({"fit_concentrations": [math.nan, 1.0, 2.0]},
       "concentrations must be finite and positive, got nan"),
      ({"fit_concentrations": [2.0, 1.0, 1.0]},
       "concentrations must be strictly increasing, got 1.0 then 1.0"),
      ({"fit_concentrations": [0.0, 1.0, 2.0]},
       "concentrations must be finite and positive, got 0.0"),
      ({"fit_concentrations": []}, "concentration grid must be non-empty")]),
    (MeanEstimate, "concentration mu_hat m_hat clamped", (0.25, 12.5, 1.25, False), {}, []),
    (FitResult, "alpha_hat beta_hat mic_hat used_concentrations excluded",
     (10.0, 1.0, 0.1, (0.25, 0.5)), {"excluded": ()}, []),
    (AsymptoticCovariance, "sigma2_alpha sigma_alphabeta sigma2_beta sigma2_theta k_factors",
     tuple(COV), {}, []),
    (CtResidual, "concentration observed_mean_ct predicted_ct", (0.25, -12.5, -12.25), {}, []),
    (PipelineFit,
     "fit a_hat sigma_eps_hat n_hat n_used estimates residuals covariance",
     (FIT, 20.0, 0.2, 9.9, 10, (MeanEstimate(0.25, 12.5, 1.25, False),),
      (CtResidual(0.25, -12.5, -12.25),), None), {}, []),
    (McStudyReport,
     "mean_alpha mean_beta mean_theta emp_var_alpha emp_cov_alphabeta emp_var_beta "
     "emp_var_theta theoretical failures n_measurements",
     (10.1, 1.0, 0.1, 8.4, 0.2, 0.008, 0.0001, COV, 0, 1000), {}, []),
    (DesignEvaluation, "design covariance best", ((0.25, 0.5, 1.0), COV, True), {}, []),
    (CtObservation, "concentration replicate ct", (0.25, 1, -10.0), {}, []),
    # columns given as lists are kept as tuples
    (CtDataset, "concentration replicate ct config", ([0.25, 0.5], [1, 1], [-10.0, -9.5]),
     {"config": None}, [({"ct": (-10.0, math.nan)}, "ct must be finite, got nan")]),
]


@pytest.mark.parametrize(
    "cls, fields, required, defaults, bads", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_type(cls, fields, required, defaults, bads):
    fields = fields.split()
    record = cls(*required)
    full = (*(tuple(v) if isinstance(v, list) else v for v in required), *defaults.values())
    assert record._fields == tuple(fields) and tuple(record) == full
    # keyword and positional construction, with every field given, build the same record
    assert cls(**dict(zip(fields, full))) == record == cls(*full)
    assert hash(cls(*required)) == hash(record)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, full)
    ) + ")"
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, full[0])
    for duplicate in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(duplicate) is cls and duplicate == record
    for change, message in bads:
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            cls(**{**dict(zip(fields, full)), **change})
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            record._replace(**change)

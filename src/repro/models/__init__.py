"""The statically-trained models DORA consults at runtime.

Mirrors Section III-A/B and IV-C of the paper:

* :mod:`repro.models.features` -- the nine Table-I independent
  variables (page census + runtime conditions).
* :mod:`repro.models.regression` -- the three response surfaces the
  paper evaluates: linear, interaction (linear + cross products), and
  quadratic, fitted by mean-square-error minimization.
* :mod:`repro.models.performance_model` -- the piecewise web-page
  load-time model (one surface per memory-bus frequency group).
* :mod:`repro.models.power_model` -- the dynamic-power surface.
* :mod:`repro.models.leakage_fit` -- non-linear fit of the Equation-5
  leakage form to calibration observations (SciPy).
* :mod:`repro.models.predictor` -- :class:`DoraPredictor`, bundling
  the above into the (load time, power) tables governors consume, and
  the fitted leakage model's type.
* :mod:`repro.models.training` -- the measurement campaign (>300
  observations across workload combinations and frequencies),
  train/test split, and the Fig. 5 error statistics.

The package re-exports nothing: import from the submodules, so that
loading and serving a bundle import neither SciPy nor the training
campaign.
"""

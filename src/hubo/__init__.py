"""Bayesian optimisation with an expanding search space.

The search box starts small and, every iteration, grows each face by a
hyperharmonic increment ((b-a)/2) * t**alpha before re-centering on the
incumbent; a hypercube-restricted variant keeps high-dimensional acquisition
tractable.  The package ships the two algorithms, a volume-doubling baseline,
a GP surrogate with MLE fitting, analytic diagnostics for the expansion
schedule, synthetic benchmarks, and a CLI harness (``hubo run`` / ``hubo
diagnostics`` / ``hubo list-benchmarks``).  Import names from the submodules
(``hubo.driver``, ``hubo.gp``, ...); the package itself re-exports nothing.
"""

__version__ = "0.1.0"

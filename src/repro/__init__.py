"""repro — reproduction of *The Case of Performance Variability on
Dragonfly-based Systems* (Bhatele et al., IPDPS 2020).

Layered like the study itself:

* :mod:`repro.topology` / :mod:`repro.network` — the Cray XC dragonfly,
  adaptive routing, congestion, Aries counters, LDMS;
* :mod:`repro.apps` / :mod:`repro.system` — the four workloads and the
  shared production machine;
* :mod:`repro.campaign` — the four-month measurement campaign;
* :mod:`repro.ml` / :mod:`repro.analysis` — the paper's ML pipelines;
* :mod:`repro.experiments` — one driver per paper table/figure.

See README.md for a tour and DESIGN.md for the system inventory.
"""

__version__ = "1.0.0"

from repro.config import CORI, SMALL, TINY, ScalePreset, rng_for

__all__ = [
    "__version__",
    "ScalePreset",
    "rng_for",
    "TINY",
    "SMALL",
    "CORI",
]

"""Bounds, oracles and verification tools for modified Bessel ratios and products.

The submodules are the API; the package root re-exports nothing:

* ``nullclines``: the closed forms and the ``BOUNDS`` catalog, as row
  functions that broadcast over orders and arguments;
* ``oracle``: reference ratio rows and the derived quantities
  (``quantity_row``);
* ``verify``: the oracle table, the claim registry and the scans;
* ``riccati_lab``: trajectories of the Riccati flows;
* ``expansions``: truncated asymptotic expansions;
* ``cli``: the ``besselbounds`` command;
* ``errors``: the exception types.
"""

__version__ = "0.1.0"

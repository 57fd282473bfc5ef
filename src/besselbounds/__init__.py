"""Bounds, oracles and verification tools for modified Bessel ratios and products.

The submodules are the API, each one's public names being those without a
leading underscore; the package root re-exports nothing:

* ``nullclines``: the closed forms and the ``BOUNDS`` catalog, as row
  functions that broadcast over orders and arguments;
* ``oracle``: reference ratio rows and the derived quantities
  (``quantity_row``);
* ``verify``: the oracle table, the claim registry and the scans;
* ``riccati_lab``: trajectories of the Riccati flows;
* ``expansions``: exact truncated series over Fractions in each regime,
  which derive the sharpness constants (off the command line);
* ``g17``: ``%.17g`` text of float arrays, for the CSV writers;
* ``cli``: the ``besselbounds`` command;
* ``errors``: the exception types.
"""

__version__ = "0.1.0"

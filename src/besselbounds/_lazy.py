"""Stand-in for scipy's ``solve_ivp``, kept only as a benchmark hook.

perfbench's tracer wraps ``oracle.solve_ivp`` and ``riccati_lab.solve_ivp``
by name, so both modules import this stand-in.  Nothing in the package
calls it: both integrate the Riccati equation by Taylor steps
(``oracle.taylor_step``).  It would import scipy only when called, and
scipy is not a dependency of the package.
"""


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use."""
    from scipy.integrate import solve_ivp as impl
    return impl(*args, **kwargs)

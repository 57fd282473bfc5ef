"""scipy entry points loaded on first call.

Importing ``scipy.integrate`` and ``scipy.optimize`` costs several times
what numpy does, and only the trajectory lab (``riccati_lab``) integrates
or root-finds with scipy.  These stand-ins keep scipy off the import path
of every other command: each imports its scipy function when it is first
called and forwards to it.
"""


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use."""
    from scipy.integrate import solve_ivp as impl
    return impl(*args, **kwargs)


def brentq(*args, **kwargs):
    """``scipy.optimize.brentq``, imported on first use."""
    from scipy.optimize import brentq as impl
    return impl(*args, **kwargs)

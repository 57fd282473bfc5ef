"""Check sampled oracle values in the written report CSVs against mpmath.

Each report CSV has the columns claim_id,nu,x,bound,oracle,margin.  For
claims whose oracle column is a first- or second-kind ratio or the product,
a seeded sample of rows is recomputed with 40-digit mpmath Bessel functions.
A row agrees when its relative error is at most 1e-8, or, where the oracle
itself reports a larger error estimate (the step-down path at nu = -1 and
x < 1e-3 is one such place), when the error is within that estimate.
mpmath is used only here, never by the package.
"""

import os
import random

import mpmath

from besselbounds import oracle
from besselbounds.nullclines import EvalPoint

REL_TOL = 1e-8
PER_FILE = 32

# claim id prefix -> quantity in the oracle column
_QUANTITY = (
    (("trig-upper-I", "amos-I-", "sharpness-I-"), "Phi0"),
    (("amos-K-",), "Phi1"),
    (("trig-upper-K", "sharpness-K-"), "K-ratio-pos"),
    (("product-", "sharpness-P-"), "P"),
)


def quantity_of(claim_id):
    for prefixes, qid in _QUANTITY:
        if claim_id.startswith(prefixes):
            return qid
    return None


def exact(qid, nu, x):
    """40-digit reference value of one oracle quantity."""
    with mpmath.workdps(40):
        nu, x = mpmath.mpf(nu), mpmath.mpf(x)
        if qid == "Phi0":
            return mpmath.besseli(nu - 1, x) / mpmath.besseli(nu, x)
        if qid == "P":
            return mpmath.besseli(nu, x) * mpmath.besselk(nu, x)
        k_ratio = mpmath.besselk(nu - 1, x) / mpmath.besselk(nu, x)
        return -k_ratio if qid == "Phi1" else k_ratio


def _oracle_est_error(qid, nu, x):
    p = EvalPoint(nu, x)
    if qid == "Phi0":
        return oracle.i_ratio(p).est_error
    if qid == "P":
        return oracle.product(p).est_error
    return oracle.k_ratio(p).est_error


def _sample_rows(path, rng, k):
    """Reservoir sample of k data rows, streaming the file."""
    picked = []
    with open(path) as fh:
        next(fh)
        for n, line in enumerate(fh):
            if n < k:
                picked.append(line)
            else:
                j = rng.randrange(n + 1)
                if j < k:
                    picked[j] = line
    return picked


def check_csvs(paths, seed, per_file=PER_FILE):
    """Returns (rows checked, worst relative error, rows accepted on the
    oracle's own estimate, list of problems)."""
    checked, worst, on_estimate, problems = 0, 0.0, 0, []
    for path in paths:
        name = os.path.basename(path)
        if quantity_of(name) is None:
            continue
        rng = random.Random(f"{seed}:{name}")
        for line in _sample_rows(path, rng, per_file):
            cid, nu, x, _, value, _ = line.rstrip("\n").split(",")
            qid = quantity_of(cid)
            nu, x, value = float(nu), float(x), float(value)
            ref = exact(qid, nu, x)
            err = float(abs(value - ref))
            rel = err / float(abs(ref))
            checked += 1
            worst = max(worst, rel)
            if rel <= REL_TOL:
                continue
            if err <= _oracle_est_error(qid, nu, x):
                on_estimate += 1
            else:
                problems.append(f"{cid} nu={nu!r} x={x!r}: oracle {value!r}, "
                                f"mpmath {mpmath.nstr(ref, 20)}, rel error {rel:.3g}")
    return checked, worst, on_estimate, problems

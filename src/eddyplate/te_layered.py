"""TE-mode plane-wave reflection of an air / plate / air stack.

The generalized reflection coefficient of a finite-thickness layer including
all internal multiples, the solver's inner loop. It is pure and accepts numpy
arrays in alpha0 and omega, broadcasting as usual. It forms k1 = |alpha0| and
k2 in real arithmetic, and R~ as one complex fraction with a single complex
division. Its terms grow as the squares of the inputs' scale; where they
could over- or underflow, an element takes a form with hypot and two
divisions instead (see generalized_reflection).

Every element of a call has the bits of its own scalar call, whatever the
size of the call. Real arithmetic is correctly rounded however numpy runs
it, but numpy can round the same complex product three ways:

- Operand order. numpy's array loop fuses multiply-adds, so a * b and b * a
  can differ in the imaginary part. The kernel keeps the order of its
  formula.
- An in-place product on a 1-element array, like a product of numpy
  scalars, runs without fused multiply-adds. The kernel writes every complex
  product and quotient into a buffer that is none of its operands, and runs
  a scalar call as a 1-element array.
- Temporary elision. numpy reuses a temporary of 256 KiB or more (16,384
  complex elements) as the output, so a * (b * c) becomes an in-place product
  with its operands swapped. The kernel makes no temporary complex array: each
  complex result goes with ``out=`` into one of five buffers of the call's
  shape.

Terms of one axis (|alpha0|, alpha0^2 and their multiples per node, c =
omega sigma mu2 and its multiples per frequency) are formed on that axis
alone. The real scratch of the other steps lives in the memory of two
complex buffers until they are filled.
"""

from __future__ import annotations

import numpy as np

from .model import MU_0, Plate

# The one-division form squares alpha0^2 and c, and the terms of its fraction
# reach about 70 (mu_r^2 alpha0^2 + |c|)^2. It runs where mu_r and mu_r |alpha0|
# are at most _ROOT_MAX and |c| at most _ROOT_MAX^2, so that no term
# overflows, and where |alpha0| >= _ROOT_MIN or |c| >= _ROOT_MIN^2, so that its
# terms stay normal numbers with (1 - E) down to about 1e-90.
_ROOT_MAX = 1e75
_ROOT_MIN = 1e-50


def generalized_reflection(alpha0, omega, plate: Plate):
    """Effective reflection of the plate seen from the coil side.

    Composition of the interface multiples in closed form,

        R~ = r (1 - E) / ((1 - r^2) + r^2 (1 - E)),   E = exp(-2 k2 D),

    with r the air->plate Fresnel reflection. Both half-space interfaces are
    free space, so the plate->air reflection is exactly -r and the closed
    form collapses to the single-parameter expression above.

    Numerics: mu0 is divided out. r = num / den^2 with den = mu_r k1 + k2
    and num = (mu_r^2 - 1) alpha0^2 - j c, c = omega sigma mu2, from the
    difference of squared wavenumbers (k2^2 - k1^2 = j c exactly), not of
    roots; (1 - r^2) den^2 = q = 4 mu_r k1 k2. R~ is then one fraction,

        R~ = num (1 - E) den^2 / (q den^2 + num num (1 - E)),

    five complex products and one complex division. With 2 k2 D = a + j b,
    1 - E = (e^-a tau sin b - expm1(-a)) + j e^-a sin b takes one tangent,
    tau = tan(b / 2), as sin b = 2 tau / (1 + tau^2). Otherwise r (weakly
    conducting plate, large alpha), 1 - E (small a and b) and 1 - r^2 E
    (r -> -1 and E -> 1: small alpha, electrically thin plate) would lose
    all significant digits; so |R~| <= 1 holds to round-off. Only decaying
    exponentials appear: at large a, 1 - E rounds to 1 and the half-space
    limit r comes out. k1 = sqrt(alpha0^2) is |alpha0| to the last bit (a
    correctly rounded square has the operand as its root), whatever the sign
    of alpha0. For alpha0 != 0 the principal root k2 = t + j s is free of
    cancellation: t^2 = (sqrt(alpha0^4 + c^2) + alpha0^2) / 2, s = c / (2 t).

    Range: alpha0^4, c^2 and the terms of the fraction, up to about
    70 (mu_r^2 alpha0^2 + |c|)^2, are squares of the inputs' scale. An
    element takes the form above where mu_r <= 1e75, mu_r |alpha0| <= 1e75
    and |c| <= 1e150, and where |alpha0| >= 1e-50 or |c| >= 1e-100: no term
    then overflows, and none that matters underflows. Any other element
    (huge, tiny or non-finite inputs) takes t^2 = (hypot(alpha0^2, c) +
    alpha0^2) / 2, s = (c / t) / 2 and R~ = num (1 - E) / (q + num (num /
    den^2 (1 - E))) with two divisions, whose terms stay near the scale of
    r. That form rounds as the same algebra with numpy's complex sqrt for k2
    wherever alpha0^2 does not underflow. A call that holds such an element
    runs with numpy's floating-point warnings off and gives each element the
    form its own scalar call takes; a non-finite result is the caller's to
    check.
    """
    alpha0, omega = np.asarray(alpha0), np.asarray(omega)
    scalar = alpha0.ndim == omega.ndim == 0
    if scalar:
        alpha0, omega = alpha0.reshape(1), omega.reshape(1)
    mu_r = plate.relative_permeability
    k1 = np.abs(alpha0)
    c = omega * plate.conductivity * (MU_0 * mu_r)
    k1_max, c_max, c_min = _ROOT_MAX / mu_r, _ROOT_MAX * _ROOT_MAX, _ROOT_MIN * _ROOT_MIN
    # every element in range, by one reduction per bound and axis (the ufunc
    # reductions skip the wrappers of .min() and .max()); otherwise the
    # element-wise test decides
    if (
        mu_r <= _ROOT_MAX
        and _ROOT_MIN <= np.minimum.reduce(k1, axis=None)
        and np.maximum.reduce(k1, axis=None) <= k1_max
        and np.maximum.reduce(abs(c), axis=None) <= c_max
    ):
        phi = _reflection(alpha0, k1, c, plate, one_division=True)
    else:
        with np.errstate(all="ignore"):
            abs_c = abs(c)
            in_range = (
                (mu_r <= _ROOT_MAX)
                & (k1 <= k1_max)
                & (abs_c <= c_max)
                & ((_ROOT_MIN <= k1) | (c_min <= abs_c))
            )
            phi = _reflection(alpha0, k1, c, plate, one_division=True)
            if not in_range.all():
                phi = np.where(in_range, phi, _reflection(alpha0, k1, c, plate, one_division=False))
    return phi[0] if scalar else phi


def _reflection(alpha0, k1, c, plate, one_division):
    """R~ on the broadcast of the node axis (alpha0, k1) and the frequency
    axis (c): by the one-division form, or by hypot and two divisions."""
    mu_r, thickness = plate.relative_permeability, plate.thickness
    a2 = alpha0 * alpha0
    shape = np.broadcast(a2, c).shape
    den = np.empty(shape, dtype=complex)
    work = np.empty((4, *shape), dtype=complex)
    num, w, one_minus_E, q = work
    # real scratch in the memory of num and w, until they are built; a
    # scratch array takes a new value once its last one is spent
    t, s, tau, sin_b = work[:2].view(float).reshape(4, *shape)
    # k2 = t + j s; den = mu_r k1 + k2 and q = 4 mu_r k1 k2 from their parts
    if one_division:
        # t^2 = sqrt((a2 / 2)^2 + (c / 2)^2) + a2 / 2, s = (c / 2) / t: the
        # halves are exact, and each square is taken on its own axis
        half_a2, half_c = 0.5 * a2, 0.5 * c
        np.add(half_a2 * half_a2, half_c * half_c, out=t)
        np.sqrt(t, out=t)
        np.add(t, half_a2, out=t)
        np.sqrt(t, out=t)
        np.divide(half_c, t, out=s)
    else:
        np.hypot(a2, c, out=t)
        np.add(t, a2, out=t)
        np.multiply(0.5, t, out=t)
        np.sqrt(t, out=t)
        np.divide(c, t, out=s)
        np.multiply(0.5, s, out=s)
    np.add(mu_r * k1, t, out=den.real)
    den.imag = s
    q_k1 = 4.0 * mu_r * k1
    np.multiply(q_k1, t, out=q.real)
    np.multiply(q_k1, s, out=q.imag)
    # 1 - E from x = -a = -2 D t and tau = tan(b / 2) = tan(D s)
    x = np.multiply(-2.0 * thickness, t, out=t)
    np.multiply(thickness, s, out=tau)
    np.tan(tau, out=tau)
    np.multiply(tau, tau, out=s)
    np.add(1.0, s, out=s)
    np.multiply(2.0, tau, out=sin_b)
    np.divide(sin_b, s, out=sin_b)
    ea_sin_b = np.exp(x, out=s)
    np.multiply(ea_sin_b, sin_b, out=ea_sin_b)
    one_minus_E.imag = ea_sin_b
    np.multiply(ea_sin_b, tau, out=sin_b)
    np.expm1(x, out=x)
    np.subtract(sin_b, x, out=one_minus_E.real)
    num.real = (mu_r - 1.0) * (mu_r + 1.0) * a2
    num.imag = 0.0 - c
    # each complex product and quotient written over none of its operands
    np.multiply(den, den, out=w)
    if one_division:
        # R~ = num (1 - E) den^2 / (q den^2 + num num (1 - E))
        np.multiply(num, one_minus_E, out=den)
        np.multiply(q, w, out=one_minus_E)
        np.multiply(den, w, out=q)
        np.multiply(num, den, out=w)
        np.add(one_minus_E, w, out=one_minus_E)
        np.divide(q, one_minus_E, out=den)
    else:
        # R~ = num (1 - E) / (q + num (num / den^2 (1 - E)))
        np.divide(num, w, out=den)
        np.multiply(den, one_minus_E, out=w)
        np.multiply(num, w, out=den)
        np.add(q, den, out=q)
        np.multiply(num, one_minus_E, out=w)
        np.divide(w, q, out=den)
    return den

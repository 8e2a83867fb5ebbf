"""TE-mode plane-wave reflection of an air / plate / air stack.

The generalized reflection coefficient of a finite-thickness layer including
all internal multiples, the solver's inner loop. It is pure and accepts numpy
arrays in alpha0 and omega, broadcasting as usual. It forms k1 = |alpha0| and
k2 in real arithmetic, and R~ as one fraction of three complex products with
a single complex division. k2 takes the squares of the inputs' scale, so the
form has a domain (see generalized_reflection), which the input ranges of
model.RANGES keep every call of the package inside.

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
  shape, the result and four work buffers (num, num2, X and q / 2 in turn,
  and the products that replace them).

Terms of one axis (|alpha0|, alpha0^2 and their multiples per node, c =
omega sigma mu2 and its multiples per frequency) are formed on that axis
alone. The real scratch of the other steps lives in the memory of two
complex buffers until they are filled.
"""

from __future__ import annotations

import numpy as np

from .model import MU_0, Plate


def generalized_reflection(alpha0, omega, plate: Plate):
    """Effective reflection of the plate seen from the coil side.

    Composition of the interface multiples in closed form,

        R~ = r (1 - E) / ((1 - r^2) + r^2 (1 - E)),   E = exp(-2 k2 D),

    with r the air->plate Fresnel reflection. Both half-space interfaces are
    free space, so the plate->air reflection is exactly -r and the closed
    form collapses to the single-parameter expression above.

    Numerics: mu0 is divided out. With A = mu_r k1 + k2 and B = mu_r k1 - k2,
    r = B / A and R~ = A B (1 - E) / (A^2 - B^2 E). The products come from
    the squared wavenumbers, not their roots (k2^2 - k1^2 = j c exactly, c =
    omega sigma mu2): A B = num = (mu_r^2 - 1) alpha0^2 - j c, (A^2 + B^2) / 2
    = num2 = (mu_r^2 + 1) alpha0^2 + j c and (A^2 - B^2) / 2 = q / 2 = 2 mu_r
    k1 k2. With X = 1 - E and Y = 2 - X = 1 + E, R~ is one fraction,

        R~ = num X / (num2 X + (q / 2) Y),

    three complex products and one complex division. With 2 k2 D = a + j b,
    X = (e^-a tau sin b - expm1(-a)) + j e^-a sin b takes one tangent, tau =
    tan(b / 2), as sin b = 2 tau / (1 + tau^2). Otherwise r (weakly
    conducting plate, large alpha), 1 - E (small a and b) and 1 - r^2 E
    (r -> -1 and E -> 1: small alpha, electrically thin plate) would lose
    all significant digits. Only decaying exponentials appear: at large a, X
    rounds to 1 and the half-space limit r comes out. k1 = sqrt(alpha0^2) is
    |alpha0| to the last bit (a correctly rounded square has the operand as
    its root), whatever the sign of alpha0. For alpha0 != 0 the principal
    root k2 = t + j s is free of cancellation: t^2 = (sqrt(alpha0^4 + c^2) +
    alpha0^2) / 2, s = c / (2 t). Against 60-digit mpmath at 3,000 random
    points (sigma 1e-2 - 1e9 S/m, D 1e-8 - 1 m, mu_r 1 - 1e3, alpha0 1e-5 -
    1e5 1/m, f 1e-2 - 1e8 Hz, log-uniform) the error is at most 2.8 eps |R~|,
    and |R~| <= 1 + 4 eps.

    Domain: k2 comes from the squares (alpha0^2 / 2)^2 and (c / 2)^2, and
    the products are of the scale of mu_r^2 alpha0^2 + |c| (|1 - E| and |1 +
    E| are at most 2). The form holds where mu_r and mu_r |alpha0| are at
    most 1e75 and |c| at most 1e150, so that no square overflows, and where
    |alpha0| >= 1e-50 or |c| >= 1e-100, so that its terms stay normal
    numbers with 1 - E down to about 1e-90. Outside it a result can be
    non-finite, or finite and wrong. The kernel does not check it. The
    ranges of model.RANGES keep the solvers' calls inside it by tens of
    decades: mu_r alpha0 at most 1e25 1/m, |c| at most about 8e59 1/m^2,
    and |alpha0| at least 1e-19 1/m.
    """
    alpha0, omega = np.asarray(alpha0), np.asarray(omega)
    scalar = alpha0.ndim == omega.ndim == 0
    if scalar:
        alpha0, omega = alpha0.reshape(1), omega.reshape(1)
    mu_r, thickness = plate.relative_permeability, plate.thickness
    k1 = np.abs(alpha0)
    c = omega * plate.conductivity * (MU_0 * mu_r)
    a2 = alpha0 * alpha0
    shape = np.broadcast(a2, c).shape
    phi = np.empty(shape, dtype=complex)
    work = np.empty((4, *shape), dtype=complex)
    num, p, one_minus_E, q = work
    # real scratch in the memory of num and p, until they are built; a
    # scratch array takes a new value once its last one is spent
    t, s, tau, sin_b = work[:2].view(float).reshape(4, *shape)
    # k2 = t + j s: t^2 = sqrt((a2 / 2)^2 + (c / 2)^2) + a2 / 2, s = (c / 2) /
    # t; the halves are exact, and each square is taken on its own axis
    half_a2, half_c = 0.5 * a2, 0.5 * c
    np.add(half_a2 * half_a2, half_c * half_c, out=t)
    np.sqrt(t, out=t)
    np.add(t, half_a2, out=t)
    np.sqrt(t, out=t)
    np.divide(half_c, t, out=s)
    # q / 2 = 2 mu_r k1 k2
    q_k1 = 2.0 * mu_r * k1
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
    ea_sin_b = np.multiply(np.exp(x, out=s), sin_b, out=one_minus_E.imag)
    np.multiply(ea_sin_b, tau, out=sin_b)
    np.expm1(x, out=x)
    np.subtract(sin_b, x, out=one_minus_E.real)
    # R~ = num X / (num2 X + (q / 2) Y), Y = 2 - X: each complex product and
    # quotient written over none of its operands
    num.real = (mu_r - 1.0) * (mu_r + 1.0) * a2
    num.imag = 0.0 - c
    np.multiply(num, one_minus_E, out=p)
    num.real = (mu_r * mu_r + 1.0) * a2
    num.imag = c
    np.multiply(num, one_minus_E, out=phi)
    y = np.subtract(2.0, one_minus_E, out=one_minus_E)
    np.multiply(q, y, out=num)
    np.add(phi, num, out=num)
    np.divide(p, num, out=phi)
    return phi[0] if scalar else phi

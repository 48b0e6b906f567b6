"""The generalized CRS model: a quantum oscillator on the line with
position-dependent mass factor K(x) = 1 + lam x^2.

The Hamiltonian is

    H = (hbar^2/2m) (-K d^2/dx^2 - lam x d/dx) + V(x),

with the solvable potential family

    V(x) = (hbar^2/2m) [(beta X + gamma)^2 + (beta X + gamma)(A X + B)]
           / [K (dX/dx)^2] + C,

where X(x) solves the constraint K X'' + lam x X' = A X + B.  In
Theta = arcsinh(sqrt(lam) x), K (dX/dx)^2 = lam X_Theta^2, so potential_theta
states V at the angles Theta, where the radial model reads it.  The special
choice X = cos(2 Theta) with a specific (beta, gamma, A, B, C) bundle makes V
a trigonometric Poschl-Teller-like well whose spectrum is known in closed form.

Every other position-dependent formula takes a float or an ndarray of points
x and returns a scalar or an array of the same shape; it raises if any
requested point is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDerivativeError, NonpositiveCurvatureError, ParameterOverflowError, \
    QuantumNumberError, SingularPointError, ZeroAError
from .params import PhysParams, finite_square, require_positive
from .special_functions import gudermannian, hyp2f1_terminating, radial_quantum_number, \
    theta_of_x


@dataclass(frozen=True)
class QesSpec:
    """Parameter bundle (A, B, C1, C2, beta, gamma, C) of one solvable model.

    (A, B, C1, C2) fix its constraint solution, the real
    X = -B/A + C1 c(u Theta) + C2 s(u Theta) with u = sqrt(|A|/lam) and
    (c, s) = (cos, sin) for A < 0, (cosh, sinh) for A > 0.  The transformation
    conditions fix (beta, gamma, C) from m'_Q = (beta+gamma)/(4 lam) - 1/2,
    which is kept as given: the sum is not exact in floats.
    """

    A: float
    B: float
    C1: float
    C2: float
    beta: float
    gamma: float
    c_shift: float
    mprime_q: float

    @classmethod
    def build(cls, A: float, B: float, C1: float, C2: float,
              mprime_q: float, params: PhysParams) -> "QesSpec":
        """Populate beta, gamma, C from mprime_q via the transformation relations

        beta = 2 lam (m'+1) + lam delta,  gamma = 2 lam m' - lam delta,
        C = (hbar^2/2m) (lam (m'^2 - 1) + m' lam delta).
        """
        lam = params.require_curvature()
        d = params.delta
        beta = 2 * lam * (mprime_q + 1) + lam * d
        gamma = 2 * lam * mprime_q - lam * d
        c_shift = params.kinetic * (lam * (finite_square("mprime_q", mprime_q) - 1)
                                    + mprime_q * lam * d)
        return cls(A=A, B=B, C1=C1, C2=C2, beta=beta, gamma=gamma, c_shift=c_shift,
                   mprime_q=mprime_q)

    @classmethod
    def example1(cls, l: float, mprime_q: float, params: PhysParams) -> "QesSpec":
        """The X = cos(l Theta) family: A = -lam l^2, B = 0, C1 = 1, C2 = 0."""
        lam = params.require_curvature()
        require_positive("l", l)
        return cls.build(A=-lam * finite_square("l", l), B=0.0, C1=1.0, C2=0.0,
                         mprime_q=mprime_q, params=params)

    @classmethod
    def example2(cls, mprime_q: float, params: PhysParams) -> "QesSpec":
        """The X = sinh(Theta) = sqrt(lam) x family: A = lam, B = 0, C1 = 0, C2 = 1."""
        lam = params.require_curvature()
        return cls.build(A=lam, B=0.0, C1=0.0, C2=1.0,
                         mprime_q=mprime_q, params=params)

    @classmethod
    def transplanted(cls, mprime_q: float, params: PhysParams,
                     l: float | None = None) -> "QesSpec":
        """The spec of the cos(l Theta) family for a number l, of sqrt(lam) x for None."""
        return cls.example2(mprime_q, params) if l is None else cls.example1(l, mprime_q, params)

    def branch(self, params: PhysParams) -> tuple[float, float]:
        """(u, t0): X is a function of t = u Theta, u = sqrt(|A|/lam), and X_Theta has
        its first zero t > 0 at t0, inf if it has none."""
        lam = params.require_curvature()
        if self.A == 0:
            raise ZeroAError("A = 0 leaves -B/A undefined")
        if self.C1 == self.C2 == 0:
            raise DegenerateDerivativeError("C1 = C2 = 0 leaves X constant, X_Theta = 0")
        if self.A < 0:      # X_Theta/u = C2 cos t - C1 sin t = R cos(t + atan2(C1, C2))
            t0 = (math.pi / 2 - math.atan2(self.C1, self.C2)) % math.pi or math.pi
        else:               # X_Theta/u = C2 cosh t + C1 sinh t vanishes where tanh t = -C2/C1
            t0 = math.atanh(-self.C2 / self.C1) if abs(self.C2) < abs(self.C1) else 0.0
        return math.sqrt(abs(self.A) / lam), t0 if t0 > 0 else math.inf

    def end_profile(self, params: PhysParams, end: float) -> float:
        """The exponent sigma of the channel-m'_Q ground state ~ d^sigma at the end Theta =
        end of its polar interval (0, b), d = |Theta - end|: the residue there of its
        log-derivative -cot(Theta)/2 - 3 tan(Theta)/2 - (beta X + gamma)/(lam X_Theta) =
        -(2 - cos 2Theta)/sin 2Theta - ..., the sum of num/den' over its two ratios num/den
        whose den vanishes there, to roundoff beside den' (lam X_ThetaTheta = A X + B)."""
        lam = params.require_curvature()
        u, _ = self.branch(params)
        X0, X1 = map(float, _x_and_x_theta(self, u, u * end)[:2])
        c = math.cos(2 * end)
        sigma = sum(num / slope for num, den, slope in (
            (c - 2, math.sin(2 * end), 2 * c),
            (-(self.beta * X0 + self.gamma) / lam, X1, (self.A * X0 + self.B) / lam))
            if abs(den) <= 1e-12 * abs(slope))
        if not math.isfinite(sigma):
            raise ParameterOverflowError(f"the end profile overflows at gamma/lam = "
                                         f"{self.gamma / lam:g}, from m'_Q and m omega/(lam hbar)")
        return sigma


def special_params(mprime_q: float, params: PhysParams) -> QesSpec:
    """QesSpec of the special model, with beta/gamma written in surd form.

    beta = 2 lam (m'+1) + sqrt(lam^2 + 4 m^2 omega^2/hbar^2) and likewise
    for gamma and C, with A = -4 lam, B = 0, C1 = 1, C2 = 0.  Since
    sqrt(lam^2 + 4 m^2 omega^2/hbar^2) = lam*delta, this equals
    QesSpec.build with the same A, B, C1, C2; the test suite checks it.
    """
    lam, kinetic = params.require_curvature(), params.kinetic
    surd = math.sqrt(finite_square("lam", lam) + 4 * finite_square("mass", params.mass)
                     * finite_square("omega", params.omega) / finite_square("hbar", params.hbar))
    beta = 2 * lam * (mprime_q + 1) + surd
    gamma = 2 * lam * mprime_q - surd
    c_shift = kinetic * (lam * (finite_square("mprime_q", mprime_q) - 1) + mprime_q * surd)
    return QesSpec(A=-4 * lam, B=0.0, C1=1.0, C2=0.0, beta=beta, gamma=gamma,
                   c_shift=c_shift, mprime_q=mprime_q)


def _x_and_x_theta(spec: QesSpec, u: float, t):
    """X of spec, X_Theta and, for A < 0, w = tan(t/2) (else None) at t = u Theta.  There
    cos t = 2/(1 + w^2) - 1 and sin t = w 2/(1 + w^2): one tan costs a quarter of both."""
    if spec.A < 0:
        w = np.tan(t / 2)
        g = 2 / (1 + w * w)
        c, s = g - 1, g * w
        x_theta = u * (spec.C2 * c - spec.C1 * s)
    else:
        w, c, s = None, np.cosh(t), np.sinh(t)
        x_theta = u * (spec.C1 * s + spec.C2 * c)
    return -spec.B / spec.A + spec.C1 * c + spec.C2 * s, x_theta, w


def log_groundstate(spec: QesSpec, params: PhysParams, theta):
    """(log phi0, d log phi0/dTheta) of the line ground state at the angles Theta below the
    first zero of X_Theta, phi0 = |X_Theta/(u R)|^(-beta/A) exp(-((gamma - beta B/A)/lam) J),
    J = int dTheta/X_Theta, so d log phi0/dTheta = -(beta X + gamma)/(lam X_Theta).  In
    w = tan(t/2) (A < 0) or tanh(t/2) (A > 0), u^2 J = 2 int dw/(a w^2 + 2 b w + c), (a, b,
    c) = (k C2, k C1, C2), k = sign(A): a logarithm where R^2 = b^2 - a c > 0, a Gudermannian
    where R^2 < 0 and a pole where R = 0 (X_Theta = u C2 e^(+-t)).  R is the amplitude of
    X_Theta/u, |C2| where R = 0.  As a logarithm the state overflows nowhere."""
    u, t0 = spec.branch(params)
    lam = params.lam
    t = u * np.asarray(theta, float)
    if np.any(~(t < t0)):
        raise SingularPointError(f"Theta = {np.max(t) / u} is past X_Theta's first zero")
    X, x_theta, w = _x_and_x_theta(spec, u, t)
    k = math.copysign(1.0, spec.A)
    a, b, c = k * spec.C2, k * spec.C1, spec.C2
    R2 = b * b - a * c
    R = math.sqrt(abs(R2))
    kappa = (spec.gamma - spec.beta * spec.B / spec.A) / (lam * u * u)
    if w is None and R2 >= 0:
        w = np.tanh(t / 2)
    if R2 > 0:          # m = b + sign(b) R keeps the root w = -c/m free of cancellation
        m = b + math.copysign(R, b)
        j = np.log(np.abs((m * w + c) / (a * w + m))) * math.copysign(1 / R, b)
    elif R2 < 0:        # X_Theta/u = +-R cosh(t + atanh(b/a)), the sign of a
        j = gudermannian(t + math.atanh(b / a)) / math.copysign(R, a)
    else:
        j, R = -2 / (a * w + b), abs(c)
    return (-spec.beta / spec.A * np.log(np.abs(x_theta / (u * R))) - kappa * j,
            -(spec.beta * X + spec.gamma) / (lam * x_theta))


def potential_theta(spec: QesSpec, params: PhysParams, theta):
    """The factorization-method potential of spec at the angles Theta,
    (hbar^2/2m lam) (b/X_Theta) ((b + A X + B)/X_Theta) + C with b = beta X + gamma,
    divided before it is multiplied so that no intermediate overflows where V does not."""
    u, _ = spec.branch(params)
    X, x_theta, _ = _x_and_x_theta(spec, u, u * np.asarray(theta, float))
    if np.any(np.abs(x_theta) < 1e-14):
        raise DegenerateDerivativeError(
            f"|X_Theta| = {np.min(np.abs(x_theta))} at a requested point; potential singular")
    bx = spec.beta * X + spec.gamma
    return (params.kinetic / params.lam * (bx / x_theta) * ((bx + spec.A * X + spec.B) / x_theta)
            + spec.c_shift)


def potential_general(spec: QesSpec, params: PhysParams, x):
    """The factorization-method potential of spec at the points x, potential_theta at Theta(x)."""
    return potential_theta(spec, params, theta_of_x(x, params.require_curvature()))


def _special_terms(mprime_q: float, params: PhysParams, x):
    """Theta and the terms of crs_potential_special: (1/2) m omega^2 (tan
    Theta / sqrt(lam))^2, lam hbar^2/8m and (1 - 4 m'^2) csc^2 Theta."""
    lam = params.require_curvature()
    coeff = 1 - 4 * finite_square("mprime_q", mprime_q)
    at_origin = np.asarray(x, float) == 0
    if coeff != 0 and np.any(at_origin):
        raise SingularPointError("csc^2 Theta diverges at x = 0")
    th = theta_of_x(x, lam)
    # where x = 0 is allowed, coeff = 0 and the csc^2 term is 0 there
    csc_term = coeff / np.where(at_origin, 1.0, np.sin(th) ** 2)
    return (th, 0.5 * params.mass * finite_square("omega", params.omega)
            * (np.tan(th) / math.sqrt(lam)) ** 2,
            lam * finite_square("hbar", params.hbar) / (8 * params.mass), csc_term)


def crs_potential_special(mprime_q: float, params: PhysParams, x):
    """Closed form of the special-model potential,

    V(x) = (1/2) m omega^2 (tan Theta / sqrt(lam))^2
           - (lam hbar^2 / 8m) [1 + (1 - 4 m'^2) csc^2 Theta].

    Singular at x = 0 unless the csc^2 coefficient vanishes (m' = +-1/2).
    """
    _, oscillator, curvature, csc_term = _special_terms(mprime_q, params, x)
    return oscillator - curvature * (1 + csc_term)


def crs_potential_special_roundoff(mprime_q: float, params: PhysParams, x):
    """A bound on the roundoff that crs_potential_special at a rounded x
    brings into a sum with the radial shift that cancels its curvature term,

    eps [8 T (1 + 2 Theta/sin 2 Theta) + L (1 + 2 |1 - 4 m'^2| csc^2 Theta) + 4 |C|],

    T the oscillator term, L = lam hbar^2/8m and C = L (1 + (1 - 4 m'^2)
    csc^2 Theta) the curvature term.  Each term enters by its magnitude, T
    grown by 2 Theta/sin 2 Theta, the condition number of tan Theta in
    Theta, which carries a few ulps of x; C is itself a difference, so its
    parts enter as well as its value.
    """
    th, oscillator, curvature, csc_term = _special_terms(mprime_q, params, x)
    return np.finfo(float).eps * (8 * oscillator * (1 + 1 / np.sinc(2 * th / math.pi))
                                  + curvature * (1 + 2 * np.abs(csc_term))
                                  + 4 * np.abs(curvature * (1 + csc_term)))


def crs_wavefunction_special(qn: tuple, params: PhysParams, x):
    """Eigenfunction of the special model (unnormalized, complex up to a
    constant phase from the [-sin^2(2 Theta)]^(-3/4) prefactor):

    phi(x) = [-sin^2(2 Theta)]^(-3/4) sin^2(Theta) (tan Theta / sqrt(lam))^|m'|
             * (cos^2 Theta)^(1 + |m'|/2 + m w'/(2 hbar lam))
             * 2F1(-N, N + |m'| + 1 + m w'/(lam hbar); |m'| + 1; sin^2 Theta),

    the cos^2 power taken as (1 + tan^2 Theta)^-expo through log1p: at small
    lam cos^2 Theta rounds to 1 while the exponent grows like 1/(2 lam).
    """
    lam = params.require_curvature()
    x = np.asarray(x, float)
    if np.any(x <= 0):
        raise SingularPointError(
            f"wavefunction prefactor singular at x <= 0, got {np.min(x)}")
    N, mq = radial_quantum_number(qn[0]), qn[1]
    wp = params.omega_prime
    th = theta_of_x(x, lam)
    s, t = np.sin(th), np.tan(th)
    pref = (-(np.sin(2 * th) ** 2) + 0j) ** (-0.75)
    expo = 1 + abs(mq) / 2 + params.mass * wp / (2 * params.hbar * lam)
    b_par = N + abs(mq) + 1 + params.mass * wp / (lam * params.hbar)
    hyp = hyp2f1_terminating(N, b_par, abs(mq) + 1, s * s)
    return (pref * s * s * (t / math.sqrt(lam)) ** abs(mq)
            * np.exp(-expo * np.log1p(t * t)) * hyp)


def crs_wavefunction_special_real(qn, params: PhysParams, x):
    """crs_wavefunction_special with the constant complex phase stripped."""
    phase = complex(-1.0, 0.0) ** (-0.75)
    return (crs_wavefunction_special(qn, params, x) / phase).real


def oscillator_energy(qn: tuple, params: PhysParams) -> float:
    """The spectrum that the special model and the radial oscillator share,
    E = hbar w' n + (lam hbar^2 / 2m) n^2 with n = 2N + |m'| + 1 and
    w' = sqrt(omega^2 + hbar^2 lam^2 / (4 m^2)), for finite m' and lam >= 0
    (lam = 0 is the flat oscillator hbar omega n).  Formed in floats, so an
    energy too large for a float is inf, which raises ParameterOverflowError."""
    if not (params.lam >= 0):
        raise NonpositiveCurvatureError(f"the spectrum requires lam >= 0, got {params.lam}")
    N, mp = qn
    if not math.isfinite(mp):
        raise QuantumNumberError(f"m' must be finite, got {mp}")
    n = 2.0 * radial_quantum_number(N) + abs(mp) + 1
    hbar = params.hbar
    E = hbar * params.omega_prime * n + params.lam * (hbar * hbar) / (2 * params.mass) * (n * n)
    if not math.isfinite(E):
        raise ParameterOverflowError(f"the spectrum overflows at n = {n:g}, lam = {params.lam:g}")
    return E


def crs_operator_coefficients(params: PhysParams, x):
    """Coefficient triple (p2, p1, p0) of the kinetic operator,

    (-(hbar^2/2m) K(x), -(hbar^2/2m) lam x, 0),

    for the eigenproblem p2 phi'' + p1 phi' + (p0 + V) phi = E phi.  Well
    defined for any lam including the flat case lam = 0.
    """
    f = -params.kinetic
    return f * (1 + params.lam * (x * x)), f * params.lam * x, 0.0


def x_pole(params: PhysParams) -> float:
    """First singularity of tan(Theta(x)): x* = sinh(pi/2)/sqrt(lam).

    The special-model potential walls off there; the natural domain of its
    closed-form spectrum is (0, x*).
    """
    lam = params.require_curvature()
    return math.sinh(math.pi / 2) / math.sqrt(lam)

"""Numpy ports of the special functions the runtime needs.

``erfc`` and ``erfcinv`` drive the effective-SNR rate selector
(:mod:`repro.mac.rate`); ``j0`` gives Clarke's fading correlation
(:mod:`repro.channel.timevarying`).  The first two port Cephes (``ndtr.c``
and ``ndtri.c``, the code behind ``scipy.special``) with its coefficients,
branch points (1, 8, exp(-2)) and Horner evaluation order, so every
polynomial and rational step rounds as Cephes's does.  scipy is the test
oracle (``tests/utils/test_special.py``), not a runtime dependency.

* ``erfc`` is vectorized: a rate decision evaluates it on every subcarrier
  of every modulation.  It uses numpy's ``exp``, which can differ from the
  C library's by an ulp, so it stays within 4 ulp of scipy.
* ``erfcinv`` runs on one mean BER per modulation and row, so it loops over
  elements in Python with the C library's ``log`` and ``sqrt``, like
  Cephes: it matches scipy bit for bit, and on the four values of one rate
  decision it is several times cheaper than a ~40-ufunc vectorized pass.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt

#: ln(2**1024): below exp(-MAXLOG) Cephes's erfc reports underflow.
_MAXLOG = 7.09782712893383996843e2
#: exp(-2), the edge of ndtri's central branch.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_SQRT1_2 = 0.70710678118654752440

# ndtr.c -- erfc for 1 <= |x| < 8: exp(-x^2) P(x) / Q(x)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
# ndtr.c -- erfc for |x| >= 8: exp(-x^2) R(x) / S(x)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0,
    5.01905042251180477414e0, 6.16021097993053585195e0,
    7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0,
    1.20489539808096656605e1, 1.70814450747565897222e1,
    9.60896809063285878198e0, 3.36907645100081516050e0,
)
# ndtr.c -- erf for |x| < 1: x T(x^2) / U(x^2)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# ndtri.c -- central branch, |y - 1/2| <= 1/2 - exp(-2)
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# ndtri.c -- tail, z = sqrt(-2 log y) in [2, 8)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# ndtri.c -- far tail, z >= 8
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coefs: tuple[float, ...]) -> float:
    """Cephes ``polevl``: Horner's rule, highest power first."""
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _p1evl(x: float, coefs: tuple[float, ...]) -> float:
    """Cephes ``p1evl``: :func:`_polevl` with an implied leading 1."""
    acc = x + coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _erfc_table() -> np.ndarray:
    """erfc's coefficients: rows (power, numerator/denominator), one column per branch.

    Branches are |x| < 1 (``x T(x^2) / U(x^2)``, the erf series),
    1 <= |x| < 8 (``P/Q``) and |x| >= 8 (``R/S``).  Leading zeros pad every
    polynomial to nine coefficients and the monic denominators get their
    implied 1 written out: ``0*v + c == c`` and ``1*v + c == v + c``
    exactly, so each padded Horner step is Cephes's own.
    """
    def pad(coefs: tuple[float, ...]) -> tuple[float, ...]:
        return (0.0,) * (9 - len(coefs)) + coefs

    rows = ((_ERF_T, _ERF_U), (_ERFC_P, _ERFC_Q), (_ERFC_R, _ERFC_S))
    table = np.array([[pad(num), pad((1.0,) + den)] for num, den in rows])
    table = np.ascontiguousarray(table.transpose(2, 1, 0).reshape(18, 3))
    table.flags.writeable = False
    return table


_ERFC_TABLE = _erfc_table()
_ERFC_EDGES = np.array([1.0, 8.0])


def erfc(x: npt.ArrayLike) -> np.ndarray:
    """Complementary error function (Cephes ``erfc``), elementwise.

    All three branches run in one pass: each element gathers its branch's
    coefficients, and one Horner loop evaluates numerator and denominator.
    """
    a = np.asarray(x, dtype=float)
    ax = np.abs(a)
    z = a * a
    branch = np.searchsorted(_ERFC_EDGES, ax, side="right")  # NaN -> 2
    small = branch == 0
    with np.errstate(invalid="ignore", over="ignore"):
        # |x| < 1: 1 - erf(x) = 1 - x T(x^2) / U(x^2)
        # else:    exp(-x^2) P(|x|) / Q(|x|), reflected to 2 - ... for x < 0
        v = np.where(small, z, ax)
        # take() keeps the gathered coefficients contiguous per Horner step
        coefs = _ERFC_TABLE.take(branch, axis=1).reshape((9, 2) + branch.shape)
        acc = coefs[0] * v
        acc += coefs[1]
        for c in coefs[2:]:
            acc *= v
            acc += c
        w = (np.where(small, a, np.exp(-z)) * acc[0]) / acc[1]
        w = np.where(z > _MAXLOG, 0.0, w)  # Cephes's underflow exit; |x| = inf
    return np.where(small, 1.0 - w, np.where(a < 0.0, 2.0 - w, w))


def _ndtri(y: float) -> float:
    """Inverse of the standard normal CDF (Cephes ``ndtri``) on (0, 1)."""
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


def _erfcinv(y: float) -> float:
    """Cephes ``erfcinv`` of one value."""
    if 0.0 < y < 2.0:
        half = 0.5 * y
        if half == 0.0:  # repro: noqa[NUM001] -- the smallest subnormal halves to 0
            return math.inf  # -ndtri(0)
        return -_ndtri(half) * _SQRT1_2
    if y == 0.0:  # repro: noqa[NUM001] -- exact domain edge
        return math.inf
    if y == 2.0:  # repro: noqa[NUM001] -- exact domain edge
        return -math.inf
    return math.nan


def erfcinv(y: npt.ArrayLike) -> np.ndarray:
    """Inverse complementary error function, ``-ndtri(y/2) / sqrt(2)``.

    ``erfcinv(0) = inf``, ``erfcinv(2) = -inf``; NaN outside [0, 2].
    """
    arr = np.asarray(y, dtype=float)
    values = map(_erfcinv, arr.ravel().tolist())
    return np.fromiter(values, dtype=float, count=arr.size).reshape(arr.shape)


#: sin(theta) at 64 midpoints of [0, pi/2]; by the integrand's symmetry
#: their mean is the 128-node midpoint rule on [0, pi].
_J0_SINES = np.sin((np.arange(64) + 0.5) * (np.pi / 128))
_J0_SINES.flags.writeable = False
#: where j0 switches from the midpoint rule to Hankel's expansion
_J0_FAR = 200.0


def j0(x: npt.ArrayLike) -> np.ndarray:
    """Bessel function of the first kind of order 0, for finite x.

    Up to |x| = 200 a midpoint rule for ``(1/pi) int_0^pi cos(x sin t) dt``:
    the integrand is smooth and periodic, so the error is about
    ``2 |J_256(x)|``, below 1e-15 for |x| <= 150 and 7e-14 at 200.  Beyond
    that, Hankel's asymptotic expansion to third order, good to ~1e-15.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    near = np.cos(np.multiply.outer(np.minimum(ax, _J0_FAR), _J0_SINES)).mean(axis=-1)
    far = np.maximum(ax, _J0_FAR)
    u = 1.0 / (far * far)
    p = 1.0 - u * (9.0 / 128.0 - u * (3675.0 / 32768.0))
    q = (-1.0 + u * (75.0 / 128.0 - u * (59535.0 / 32768.0))) / (8.0 * far)
    chi = far - np.pi / 4.0
    hankel = np.sqrt(2.0 / (np.pi * far)) * (p * np.cos(chi) - q * np.sin(chi))
    return np.where(ax <= _J0_FAR, near, hankel)

"""Spectral classification of the circulant bracket family.

For alpha = (alpha_0..alpha_{n-1}) the numbers mu_i = sum_r alpha_r w^{-ri},
w = exp(2*pi*I/n), diagonalize the family: the discrete Fourier transform
turns the circulant tensor into mu_k at the (k, k, k) positions and zeros
elsewhere, so the extension splits into m = #{mu_i != 0} copies of G plus an
abelian complement.  Floats only ever *report* here -- how many mu vanish is
decided exactly, by which cyclotomic polynomials divide the integer
polynomial A(x) = sum_r alpha_r x^r (cleared of denominators).  A mismatch
between the float flags and the exact count raises InternalCheckError
instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InternalCheckError
from .linalg import cleared
from .rationals import as_fraction
from .wtensor import MAX_N, WTensor

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class MuSpectrum:
  n: int
  values: tuple[complex, ...]
  zero_flags: tuple[bool, ...]
  zero_count: int


@dataclass(frozen=True)
class CirculantClass:
  n: int
  spectrum: MuSpectrum
  m_nonabelian: int
  n_abelian: int


def _check_alpha(alpha) -> tuple:
  alpha = tuple(as_fraction(v) for v in alpha)
  if not 1 <= len(alpha) <= MAX_N:
    raise ValueError(f"alpha must have length 1..{MAX_N}")
  return alpha


def _divmod_monic(poly: list[int], divisor: tuple[int, ...]):
  """Quotient and remainder of integer polynomials, coefficients lowest
  degree first, by a monic ``divisor`` (so no division is needed)."""
  rem, k = list(poly), len(divisor) - 1
  terms = [(j, v) for j, v in enumerate(divisor[:k]) if v]
  quot = [0] * max(len(rem) - k, 0)
  for i in reversed(range(len(quot))):
    c = quot[i] = rem.pop()
    if c:
      for j, v in terms:
        rem[i + j] -= c * v
  return quot, rem


@cache
def _cyclotomic(m: int) -> tuple[int, ...]:
  """Phi_m, lowest degree first: x^m - 1 divided by Phi_d for each d | m,
  d < m.  Its degree is Euler's phi(m)."""
  poly = [-1] + [0] * (m - 1) + [1]
  for d in range(1, m):
    if m % d == 0:
      poly = _divmod_monic(poly, _cyclotomic(d))[0]
  return tuple(poly)


def circulant_rank_exact(alpha) -> int:
  """Number of nonzero mu, exactly; it is also the rank over Q of the
  circulant matrix C_ij = alpha_{(j-i) mod n}.

  mu_k = A(w^{-k}), and w^{-k} is a primitive m-th root of unity for
  m = n / gcd(n, k), which holds for phi(m) of the k.  Phi_m is irreducible
  over Q, so those mu vanish exactly when Phi_m divides A, or A folded
  modulo x^m - 1, which Phi_m divides: the rank is n minus the sum of
  deg Phi_m over the divisors m of n with that remainder zero.  The fold
  sums Python integers, which cannot overflow.
  """
  nums = cleared(_check_alpha(alpha))[0].tolist()
  n = len(nums)
  zero = 0
  for m in range(1, n + 1):
    if n % m == 0:
      phi = _cyclotomic(m)
      folded = [sum(nums[k::m]) for k in range(m)]
      if not any(_divmod_monic(folded, phi)[1]):
        zero += len(phi) - 1
  return n - zero


def mu_spectrum(alpha, tol: float = DEFAULT_TOL) -> MuSpectrum:
  """Numerical mu values with exactly-decided zero flags.

  values[i] = sum_r alpha_r w^{-ri} is the forward DFT of alpha.  The flags
  mark |mu_i| < tol; their count must reproduce the exact count of zero mu,
  n - circulant_rank_exact(alpha), or the tolerance is unusable for this
  input (InternalCheckError).
  """
  alpha = _check_alpha(alpha)
  n = len(alpha)
  if not 0 < tol < 1:
    raise ValueError(f"tolerance must be in (0, 1), got {tol!r}")
  try:
    floats = np.array([float(a) for a in alpha], dtype=np.float64)
  except OverflowError:
    raise ValueError("alpha has an entry beyond float64's range") from None
  values = tuple(complex(v) for v in np.fft.fft(floats))
  flags = tuple(abs(v) < tol for v in values)
  exact_zero = n - circulant_rank_exact(alpha)
  if sum(flags) != exact_zero:
    raise InternalCheckError(
        f"mu zero flags ({sum(flags)}) disagree with the exact count "
        f"({exact_zero}) at tolerance {tol}")
  return MuSpectrum(n=n, values=values, zero_flags=flags,
                    zero_count=exact_zero)


def classify_circulant(alpha, tol: float = DEFAULT_TOL) -> CirculantClass:
  """Isomorphism class of the circulant extension: m copies of G plus an
  (n - m)-fold abelian part, m = number of nonzero mu."""
  spectrum = mu_spectrum(alpha, tol=tol)
  m = spectrum.n - spectrum.zero_count
  return CirculantClass(n=spectrum.n, spectrum=spectrum, m_nonabelian=m,
                        n_abelian=spectrum.zero_count)


def dft_matrix(n: int) -> np.ndarray:
  """Omega with Omega[i, p] = w^{-ip} / n."""
  if not 1 <= n <= MAX_N:
    raise ValueError(f"n must be in 1..{MAX_N}")
  idx = np.arange(n)
  return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / n


def dft_inverse(n: int) -> np.ndarray:
  """Omega^{-1} with Omega^{-1}[k, s] = w^{ks}."""
  if not 1 <= n <= MAX_N:
    raise ValueError(f"n must be in 1..{MAX_N}")
  idx = np.arange(n)
  return np.exp(2j * np.pi * np.outer(idx, idx) / n)


def transform_w(w: WTensor) -> np.ndarray:
  """Change of basis by the DFT: returns T with
  T[i, j, k] = sum_{p,q,s} W^{pq}_s Omega[i, p] Omega[j, q] Omega^{-1}[k, s].

  Necessarily float-valued; exact statements stay with the rational slices.
  """
  # Python's int / int is correctly rounded, as float(Fraction) is
  dense = (w.dense.astype(object) / w.scale).astype(np.complex128)
  om = dft_matrix(w.n)
  om_inv = dft_inverse(w.n)
  return np.einsum("pqs,ip,jq,ks->ijk", dense, om, om, om_inv, optimize=True)


def diagonal_pattern_deviation(transformed: np.ndarray, spectrum: MuSpectrum) -> float:
  """Max |T[i,j,k] - expected| where expected is mu_k at i=j=k, else 0."""
  n = spectrum.n
  if transformed.shape != (n, n, n):
    raise ValueError("transformed tensor has wrong shape")
  expected = np.zeros((n, n, n), dtype=np.complex128)
  for k in range(n):
    expected[k, k, k] = spectrum.values[k]
  return float(np.max(np.abs(transformed - expected)))


def spectrum_report_json(cls: CirculantClass) -> dict:
  """Canonical JSON-ready report: floats for mu, exact counters."""
  return {
      "n": cls.n,
      "mu": [{"re": float(v.real), "im": float(v.imag)}
             for v in cls.spectrum.values],
      "zero_count": cls.spectrum.zero_count,
      "m_nonabelian": cls.m_nonabelian,
  }

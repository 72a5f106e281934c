"""Spectral classification of the circulant bracket family.

For alpha = (alpha_0..alpha_{n-1}) the numbers mu_i = sum_r alpha_r w^{-ri},
w = exp(2*pi*I/n), diagonalize the family: the discrete Fourier transform
turns the circulant tensor into mu_k at the (k, k, k) positions and zeros
elsewhere, so the extension splits into m = #{mu_i != 0} copies of G plus an
abelian complement.  Floats only ever *report* here -- whether a mu vanishes
is decided by the exact rational rank of the circulant matrix
C_ij = alpha_{(j-i) mod n}, which equals m over any field containing the
alphas.  A mismatch between the float flags and the exact count raises
InternalCheckError instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError
from .linalg import cleared, rank
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


def circulant_rank_exact(alpha) -> int:
  """Exact rank over Q of C_ij = alpha_{(j-i) mod n} (= number of nonzero mu)."""
  nums, _ = cleared(_check_alpha(alpha))
  r = np.arange(len(nums))
  return rank(nums[(r - r[:, None]) % len(nums)])


def mu_spectrum(alpha, tol: float = DEFAULT_TOL) -> MuSpectrum:
  """Numerical mu values with exactly-decided zero flags.

  values[i] = sum_r alpha_r w^{-ri} is the forward DFT of alpha.  The flags
  mark |mu_i| < tol; their count must reproduce n - rank(C) or the tolerance
  is unusable for this input (InternalCheckError).
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

"""Matrix and vector containers plus the spectral primitives everything else builds on.

The eigen kernels are numpy's LAPACK drivers (`eigvalsh` and `eigh`), which
are deterministic for a fixed build and BLAS thread count.  Singular data of
a matrix M is read off the eigendecomposition of the Gram matrix M*M: on
near-tied top singular values its sigma_max is as accurate as
`svd(compute_uv=False)` (both within 6e-16 relative, the Gram route lower
on average), at the same cost for the small sizes used here.

A public function on a matrix pair validates it and computes ||A|| and
||B|| once, into one private _Pair that its kernels share.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 1         # of every JSON document the CLI and the suite write
DEFAULT_TOL = 1e-7         # decision and distance-solver tolerance
DEFAULT_BUDGET = 100_000   # norm evaluations per distance solve


class InputError(ValueError):
    """Raised for malformed inputs: bad shapes, non-finite entries, bad tags."""


class ConvergenceError(RuntimeError):
    """Raised when an iteration fails to reach its required tolerance."""


class Field(enum.Enum):
    """Scalar field a matrix or vector lives over."""

    REAL = "real"
    COMPLEX = "complex"

    @classmethod
    def parse(cls, s: str) -> "Field":
        table = {"real": cls.REAL, "r": cls.REAL, "complex": cls.COMPLEX, "c": cls.COMPLEX}
        try:
            return table[str(s).lower()]
        except KeyError:
            raise InputError(f"unknown field tag {s!r}; expected 'real' or 'complex'") from None

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64) if self is Field.REAL else np.dtype(np.complex128)


def _coerce(field: Field, data, ndim: int) -> np.ndarray:
    arr = np.asarray(data)
    if arr.ndim != ndim or arr.size == 0:
        raise InputError(f"expected non-empty {ndim}-d array, got shape {arr.shape}")
    if field is Field.REAL and np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise InputError("complex entries are not allowed under the real field tag")
        arr = arr.real
    arr = np.array(arr, dtype=field.dtype, order="C")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise InputError("entries must be finite (no NaN or Inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable dense matrix with an explicit scalar-field tag.

    Entries are stored as float64 (real) or complex128 (complex); a complex
    tag is kept even when every imaginary part is zero.
    """

    field: Field
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _coerce(self.field, self.data, 2))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_json_dict(self) -> dict:
        if self.field is Field.REAL:
            entries = [float(x) for x in self.data.ravel()]
        else:
            entries = [[float(z.real), float(z.imag)] for z in self.data.ravel()]
        return {"rows": self.rows, "cols": self.cols, "field": self.field.value, "data": entries}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Matrix":
        if not isinstance(d, dict):
            raise InputError("matrix JSON must be an object")
        missing = {"rows", "cols", "field", "data"} - set(d)
        if missing:
            raise InputError(f"matrix JSON missing keys: {sorted(missing)}")
        rows, cols = d["rows"], d["cols"]
        if not all(isinstance(k, int) and not isinstance(k, bool) and k >= 1
                   for k in (rows, cols)):
            raise InputError("rows and cols must be positive integers")
        field = Field.parse(d["field"])
        data = d["data"]
        if not isinstance(data, list) or len(data) != rows * cols:
            got = len(data) if isinstance(data, list) else "non-list"
            raise InputError(f"data must be a flat row-major list of length {rows * cols}, got {got}")
        if field is Field.REAL:
            flat = []
            for x in data:
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise InputError("real matrix entries must be numbers")
                flat.append(float(x))
            arr = np.array(flat, dtype=np.float64).reshape(rows, cols)
        else:
            flat = []
            for x in data:
                if (not isinstance(x, list)) or len(x) != 2 or any(
                    isinstance(t, bool) or not isinstance(t, (int, float)) for t in x
                ):
                    raise InputError("complex matrix entries must be [re, im] pairs")
                flat.append(complex(float(x[0]), float(x[1])))
            arr = np.array(flat, dtype=np.complex128).reshape(rows, cols)
        return cls(field, arr)

    @classmethod
    def from_json(cls, text: str) -> "Matrix":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from None
        return cls.from_json_dict(obj)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


@dataclass(frozen=True, eq=False)
class Vector:
    """Immutable dense vector with an explicit scalar-field tag."""

    field: Field
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _coerce(self.field, self.data, 1))

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def to_pairs(self) -> list:
        """Serialize entries as [re, im] pairs regardless of field."""
        return [[float(np.real(z)), float(np.imag(z))] for z in self.data]


def _check_pair(a, b) -> Field:
    """Validate two operands of one pair and return their common field.

    The operands are two Matrix or two Vector objects.  They must carry the
    same field tag and have equal shapes.  This is the only shape rule of
    every pair route: any m x n matrix pair is accepted, square or not.
    """
    if a.field is not b.field:
        raise InputError("operands carry different field tags")
    if isinstance(a, Vector):
        if a.dim != b.dim:
            raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")
        return a.field
    if a.shape != b.shape:
        raise InputError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a.field


def inner(u, v):
    """Inner product, linear in the first argument and conjugate-linear in the second.

    Accepts Vectors or raw 1-d arrays.  Returns a Python float for real
    inputs and a complex otherwise.
    """
    ua = u.data if isinstance(u, Vector) else np.asarray(u)
    va = v.data if isinstance(v, Vector) else np.asarray(v)
    if ua.shape != va.shape:
        raise InputError(f"dimension mismatch: {ua.shape} vs {va.shape}")
    out = np.vdot(va, ua)   # vdot conjugates its first argument
    if not (np.iscomplexobj(ua) or np.iscomplexobj(va)):
        return float(out.real)
    return complex(out)


@dataclass(frozen=True)
class SpectralData:
    """Top singular value of a matrix together with an orthonormal basis of
    the right singular subspace attached to it."""

    op_norm: float
    top_subspace: list
    rank_tol: float


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Scale each eigenvector column so its largest-modulus entry is real
    and positive, which fixes the phase LAPACK leaves free."""
    piv = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v * (np.conj(piv) / np.abs(piv))   # unit columns: |piv| >= 1/sqrt(n)


def _require_hermitian(a: np.ndarray) -> None:
    fro = np.linalg.norm(a)
    if np.linalg.norm(a - a.conj().T) > 1e-10 * max(fro, 1e-300):
        raise InputError("matrix is not Hermitian within 1e-10 relative tolerance")


def hermitian_eig(h: Matrix):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Raises InputError if the input is not square or deviates from Hermitian
    symmetry by more than 1e-10 in relative Frobenius norm.
    """
    if not h.is_square():
        raise InputError(f"hermitian_eig needs a square matrix, got {h.shape}")
    _require_hermitian(h.data)
    sym = 0.5 * (h.data + h.data.conj().T)   # exact symmetrization of rounding noise
    w, v = np.linalg.eigh(sym)
    v = _canonical_phase(v)
    vectors = [Vector(h.field, v[:, k]) for k in range(v.shape[1])]
    return [float(x) for x in w], vectors


def _sigma_max_sq(a: np.ndarray) -> float:
    if a.shape[0] >= a.shape[1]:
        gram = a.conj().T @ a
    else:
        gram = a @ a.conj().T
    return max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)


# Norms are read off Gram matrices, which hold a norm to full precision only
# while its square is a finite normal float: about 1.5e-154 to 1.3e154
_GRAM_MIN = float(np.finfo(np.float64).tiny)


def _check_range(what: str, value: float) -> None:
    if not _GRAM_MIN <= value * value < math.inf:   # NaN fails this too
        raise InputError(f"{what} {value!r} is outside the supported range "
                         "of about 1.5e-154 to 1.3e154")


def operator_norm(m: Matrix) -> float:
    """Spectral norm (largest singular value) of a matrix.

    Raises InputError when a nonzero matrix has a norm outside about
    1.5e-154 to 1.3e154, where its Gram matrix overflows or underflows.
    """
    smax = math.sqrt(_sigma_max_sq(m.data))
    if smax != 0.0 or m.data.any():
        _check_range("matrix norm", smax)
    return smax


@dataclass(frozen=True, eq=False)
class _Pair:
    """A validated matrix pair with ||a|| and ||b|| from operator_norm's
    kernel; each public pair function builds one, with `of`, per call."""

    a: Matrix
    b: Matrix
    field: Field
    norm_a: float
    norm_b: float

    @classmethod
    def of(cls, a: Matrix, b: Matrix) -> "_Pair":
        """The pair, or InputError; beside each norm, ||b||/||a|| must lie
        in operator_norm's range, since the solver works on b/||a||."""
        pair = cls(a, b, _check_pair(a, b), operator_norm(a), operator_norm(b))
        if pair.norm_a != 0.0 and pair.norm_b != 0.0:
            _check_range("norm ratio ||b||/||a||", pair.norm_b / pair.norm_a)
        return pair


def _top_band(a: np.ndarray, rank_tol: float):
    """sigma_max of a raw matrix and, as columns in descending order of
    sigma (ties in index order), the right singular vectors with
    sigma >= sigma_max * (1 - rank_tol).

    One eigh of the Gram matrix a*a.  The columns carry the phases LAPACK
    gives them, which repeat for a fixed build and BLAS thread count; the
    distance solver needs only their span, and top_singular_subspace fixes
    the phases of what it returns.  For the zero matrix the columns are the
    standard basis, e_1 first.
    """
    w, v = np.linalg.eigh(a.conj().T @ a)
    sigmas = np.sqrt(np.maximum(w, 0.0))
    smax = float(sigmas[-1])
    keep = np.flatnonzero(sigmas >= smax * (1.0 - rank_tol))
    keep = keep[np.argsort(-sigmas[keep], kind="stable")]
    return smax, v[:, keep]


def top_singular_subspace(m: Matrix, rank_tol: float = 1e-8) -> SpectralData:
    """Orthonormal basis of the right singular vectors attached to the top
    singular value.

    Parameters
    ----------
    m : Matrix
    rank_tol : float
        Relative band width: singular vectors with sigma >= sigma_max * (1 - rank_tol)
        belong to the subspace.  Must lie in (0, 1e-2).

    Returns
    -------
    SpectralData
        op_norm, the basis (descending by singular value), and the rank_tol used.
        Each basis vector's largest-modulus entry is real and positive, as
        for hermitian_eig, so the basis does not depend on the phases the
        LAPACK build leaves free.

    For the zero matrix every singular value ties at zero, so the subspace is
    the full standard basis.  Raises InputError for a norm outside the range
    of operator_norm.
    """
    if not (0.0 < rank_tol < 1e-2):
        raise InputError(f"rank_tol must lie in (0, 1e-2), got {rank_tol}")
    smax, basis = _top_band(m.data, rank_tol)
    if smax != 0.0 or m.data.any():
        _check_range("matrix norm", smax)
    basis = _canonical_phase(basis)
    vectors = [Vector(m.field, basis[:, k]) for k in range(basis.shape[1])]
    return SpectralData(op_norm=smax, top_subspace=vectors, rank_tol=rank_tol)

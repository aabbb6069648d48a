"""Primal and dual grid fields and the LGF1 binary field format.

A Field holds n channels of cell-centered values; only values on inside
cells are meaningful and everything outside the mask is kept at zero.  A
DualField holds n x d face values indexed by the base cell of each face
(component [c, a, i, j] sits on the face between cell (i, j) and its +e_a
neighbor).

LGF1 layout (little-endian): magic ``LGF1``, u32 n_channels, u32 nx,
u32 ny, f64 h, then n_channels * nx * ny f64 values, row-major.  1-D
fields store ny = 1.  Dual fields are written with n * d channels.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidFieldError, ShapeMismatchError
from .geometry import GridDomain

__all__ = ["Field", "DualField", "write_lgf", "read_lgf", "read_grid_field",
           "field_to_csv"]

_MAGIC = b"LGF1"


@dataclass
class Field:
    """n-channel primal field on cell centers."""

    domain: GridDomain
    values: np.ndarray  # (n, *grid_shape)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = self.domain.grid_shape
        if self.values.ndim != 1 + len(expect) or self.values.shape[1:] != expect:
            raise ShapeMismatchError(
                f"field values must have shape (n, {', '.join(map(str, expect))})"
            )
        if not np.all(np.isfinite(self.values[(slice(None),) + np.nonzero(self.domain.inside_mask)])):
            raise InvalidFieldError("field has non-finite values on inside cells")
        # outside-mask values are meaningless; keep them at zero so that
        # discrete operators never read stale data
        self.values = np.where(self.domain.inside_mask[None], self.values, 0.0)

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @classmethod
    def zeros(cls, domain: GridDomain, n: int = 1) -> "Field":
        return cls(domain, np.zeros((n,) + domain.grid_shape))

    @classmethod
    def from_function(cls, domain: GridDomain, fn, n: int = 1) -> "Field":
        """Sample fn(points (..., dim)) -> (...,) or (..., n) on cell centers."""
        vals = np.asarray(fn(domain.cell_centers), dtype=float)
        if vals.shape == domain.grid_shape:
            vals = vals[None]
        elif vals.shape == domain.grid_shape + (n,):
            vals = np.moveaxis(vals, -1, 0)
        else:
            raise ShapeMismatchError(
                f"sampling produced shape {vals.shape}, grid is {domain.grid_shape}"
            )
        return cls(domain, vals)

    def copy(self) -> "Field":
        return Field(self.domain, self.values.copy())


@dataclass
class DualField:
    """n x d staggered dual (certificate) field on faces."""

    domain: GridDomain
    values: np.ndarray  # (n, dim, *grid_shape)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = (self.domain.dim,) + self.domain.grid_shape
        if self.values.ndim != 1 + len(expect) or self.values.shape[1:] != expect:
            raise ShapeMismatchError(
                f"dual field values must have shape (n, {', '.join(map(str, expect))})"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidFieldError("dual field has non-finite values")

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @classmethod
    def zeros(cls, domain: GridDomain, n: int = 1) -> "DualField":
        return cls(domain, np.zeros((n, domain.dim) + domain.grid_shape))

    def copy(self) -> "DualField":
        return DualField(self.domain, self.values.copy())


def write_lgf(path, values: np.ndarray, h: float) -> None:
    """Write a (n_channels, nx[, ny]) array in LGF1 format."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values[..., None]
    if values.ndim != 3:
        raise ShapeMismatchError("LGF1 stores (n_channels, nx, ny) arrays")
    n, nx, ny = values.shape
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<III", n, nx, ny))
        f.write(struct.pack("<d", float(h)))
        f.write(values.astype("<f8").tobytes(order="C"))


def read_lgf(path):
    """Read an LGF1 file; returns (values (n, nx, ny), h)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise InvalidFieldError(f"not an LGF1 file: bad magic {magic!r}")
        header = f.read(20)
        if len(header) != 20:
            raise InvalidFieldError("truncated LGF1 header")
        n, nx, ny, h = struct.unpack("<IIId", header)
        size = 8 * n * nx * ny
        left = os.fstat(f.fileno()).st_size - f.tell()
        if size != left:
            raise InvalidFieldError(
                f"LGF1 header promises {n}x{nx}x{ny} values ({size} bytes) "
                f"but the payload holds {left} bytes")
        raw = f.read(size)
        values = np.frombuffer(raw, dtype="<f8").reshape(n, nx, ny).copy()
    return values, h


def read_grid_field(path, domain: GridDomain, channels=None, *,
                    faces: bool = False) -> np.ndarray:
    """Read an LGF1 field written on ``domain``'s grid.

    Returns (channels, *grid_shape) cell values or, with ``faces``, the
    (channels, m) samples on the m boundary faces, which must be finite.
    The spacing must equal ``domain.h`` and the payload hold ``channels``
    channels (any number when None) of one value per cell or face;
    otherwise InvalidFieldError names the file.
    """
    values, h = read_lgf(path)
    if not abs(h - domain.h) <= 1e-9 * max(domain.h, 1.0):
        raise InvalidFieldError(
            f"{path}: grid spacing {h} does not match the domain's {domain.h}")
    shape = (len(domain.boundary_faces),) if faces else domain.grid_shape
    n = values.shape[0] if channels is None else channels
    if values.shape[0] != n or values.shape[1] * values.shape[2] != np.prod(shape):
        where = "boundary faces" if faces else "grid"
        raise InvalidFieldError(
            f"{path}: payload {values.shape} does not hold {n} channels on "
            f"the {where} {shape}")
    values = values.reshape((n,) + shape)
    if faces and not np.all(np.isfinite(values)):
        raise InvalidFieldError(f"{path}: non-finite boundary-face values")
    return values


def field_to_csv(path, domain: GridDomain, values: np.ndarray) -> None:
    """Dump cell values as ``x,y,channel,value`` rows (inside cells only)."""
    values = np.asarray(values, dtype=float)
    if values.ndim == len(domain.grid_shape):
        values = values[None]
    centers = domain.cell_centers
    with open(path, "w") as f:
        f.write("x,y,channel,value\n")
        idx = np.argwhere(domain.inside_mask)
        for c in idx:
            pt = centers[tuple(c)]
            x = pt[0]
            y = pt[1] if domain.dim > 1 else 0.0
            for ch in range(values.shape[0]):
                v = values[(ch,) + tuple(c)]
                f.write(f"{x:.17g},{y:.17g},{ch},{v:.17g}\n")

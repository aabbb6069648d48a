"""The LGF1 binary field format: fields padded over the grid.

The package holds fields compressed over the N inside cells (see
``GridDomain``).  An LGF1 file holds them padded over the grid: a primal
field as (n, *grid), zero outside, and a dual field as n * d channels,
channel c * d + a holding at each cell the value on its +e_a face.
``read_grid_field`` compresses what it reads.

LGF1 layout (little-endian): magic ``LGF1``, u32 n_channels, u32 nx,
u32 ny, f64 h, then n_channels * nx * ny f64 values, row-major.  1-D
fields store ny = 1.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import InvalidFieldError, ShapeMismatchError
from .geometry import GridDomain

__all__ = ["write_lgf", "read_lgf", "read_grid_field", "field_to_csv"]

_MAGIC = b"LGF1"


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

    Returns its values location-major: (N, channels) on the N inside
    cells or, with ``faces``, (m, channels) on the m boundary faces.
    Values at outside cells are never read.  The spacing must equal
    ``domain.h``, the payload hold ``channels`` channels (any number when
    None) of one value per cell or face, and every value read be finite;
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
    values = values.T if faces else domain.cells(values)
    if not np.all(np.isfinite(values)):
        where = "boundary-face" if faces else "inside-cell"
        raise InvalidFieldError(f"{path}: non-finite {where} values")
    return values


def field_to_csv(path, domain: GridDomain, values: np.ndarray) -> None:
    """Dump (N, n) inside-cell values as ``x,y,channel,value`` rows, the
    cells in the order of ``domain.points``."""
    values = np.asarray(values, dtype=float).reshape(len(domain.points), -1)
    with open(path, "w") as f:
        f.write("x,y,channel,value\n")
        for pt, row in zip(domain.points, values):
            y = pt[1] if domain.dim > 1 else 0.0
            for ch, v in enumerate(row):
                f.write(f"{pt[0]:.17g},{y:.17g},{ch},{v:.17g}\n")

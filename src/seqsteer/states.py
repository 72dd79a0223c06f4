"""Initial three-qubit states: GHZ, W, or a user-supplied density matrix."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qop import require_type, validate_density


class StateKind(Enum):
    GHZ = "ghz"
    W = "w"
    CUSTOM = "custom"


@dataclass(frozen=True)
class StateSpec:
    """Which initial state to share between the three wings.

    For CUSTOM, `custom` holds a validated, read-only complex copy of
    the 8x8 density matrix given, so the caller's array can change
    without changing the spec. Two specs are equal, and hash alike, when
    their kinds are equal and their matrices are equal bit for bit.
    """

    kind: StateKind
    custom: object = None

    def __post_init__(self):
        require_type("state kind", StateKind, self.kind)
        if self.kind is StateKind.CUSTOM:
            if self.custom is None:
                raise ValueError("custom state requires an 8x8 density matrix")
            custom = np.array(validate_density(self.custom, name="custom state"))
            custom.flags.writeable = False
            object.__setattr__(self, "custom", custom)
        elif self.custom is not None:
            raise ValueError(f"{self.kind.value} state takes no custom matrix")

    def _key(self):
        # the bits, so that eq and hash agree: np.array_equal calls -0.0
        # and 0.0 equal, and no hash of the bits could follow it
        return self.kind, None if self.custom is None else self.custom.tobytes()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


GHZ = StateSpec(StateKind.GHZ)
W = StateSpec(StateKind.W)


def build_state(spec: StateSpec):
    """Materialize the 8x8 density matrix for a StateSpec: the projector
    onto (|000> + |111>)/sqrt(2) for GHZ, onto (|001> + |010> + |100>)/sqrt(3)
    for W, or a copy of the custom matrix."""
    require_type("spec", StateSpec, spec)
    if spec.kind is StateKind.CUSTOM:
        return np.array(spec.custom, dtype=complex)
    psi = np.zeros(8, dtype=complex)
    if spec.kind is StateKind.GHZ:
        psi[0] = psi[7] = 1 / np.sqrt(2)
    else:
        psi[1] = psi[2] = psi[4] = 1 / np.sqrt(3)
    return np.outer(psi, psi.conj())


class StateFormatError(ValueError):
    """Raised when a state file cannot be parsed or fails validation."""


def load_state_file(path):
    """Read an 8x8 complex density matrix from a plain-text file.

    The format is 8 rows of 8 whitespace-separated entries, each written
    like `0.5+0.0j` or `-0.25-0.1j`. Parse failures report the offending
    row and column (1-based).
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    except UnicodeDecodeError as exc:
        raise StateFormatError(f"{path}: not UTF-8 text ({exc})") from None
    if len(lines) != 8:
        raise StateFormatError(f"{path}: expected 8 matrix rows, found {len(lines)}")
    mat = np.zeros((8, 8), dtype=complex)
    for r, line in enumerate(lines, start=1):
        tokens = line.split()
        if len(tokens) != 8:
            raise StateFormatError(
                f"{path}: row {r}: expected 8 entries, found {len(tokens)}"
            )
        for c, tok in enumerate(tokens, start=1):
            try:
                mat[r - 1, c - 1] = complex(tok)
            except ValueError:
                raise StateFormatError(
                    f"{path}: row {r}, column {c}: cannot parse {tok!r} as a complex "
                    "number (expected the form re+imj, e.g. 0.5-0.25j)"
                ) from None
    try:
        validate_density(mat, name=f"state file {path}")
    except ValueError as exc:
        raise StateFormatError(str(exc)) from None
    return mat


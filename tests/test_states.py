import re

import numpy as np
import pytest

from seqsteer import (
    GHZ,
    W,
    InequalityKind,
    Scenario,
    StateFormatError,
    StateKind,
    StateSpec,
    build_state,
    run_cascade,
    xyz_spec,
)
from seqsteer.states import load_state_file
from util import partial_trace, random_pure_state, save_state_file


def test_ghz_amplitudes():
    rho = build_state(GHZ)
    assert rho[0, 0] == pytest.approx(0.5)
    assert rho[7, 7] == pytest.approx(0.5)
    assert rho[0, 7] == pytest.approx(0.5)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert np.allclose(rho @ rho, rho)  # pure


def test_w_amplitudes():
    rho = build_state(W)
    for k in (1, 2, 4):
        assert rho[k, k] == pytest.approx(1 / 3)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert np.allclose(rho @ rho, rho)


def test_w_state_single_qubit_marginals():
    # each qubit of the W state is excited with probability 1/3
    rho = build_state(W)
    for wing in range(3):
        reduced = partial_trace(rho, wing)
        assert reduced[1, 1] == pytest.approx(1 / 3)


def test_build_state_dispatch():
    # each built-in kind is the projector onto its own vector, bit for bit
    for spec, ones, norm in ((GHZ, [0, 7], np.sqrt(2)), (W, [1, 2, 4], np.sqrt(3))):
        psi = np.zeros(8, dtype=complex)
        psi[ones] = 1 / norm
        assert build_state(spec).tobytes() == np.outer(psi, psi.conj()).tobytes()
    custom = StateSpec(StateKind.CUSTOM, np.eye(8) / 8)
    assert build_state(custom).tobytes() == custom.custom.tobytes()


@pytest.mark.parametrize("kind", ["ghz", "w", "custom", None, 0])
def test_state_spec_rejects_a_kind_that_is_not_a_state_kind(kind):
    # a bare value would pass for no kind at all, and build_state would
    # hand run_cascade a NaN scalar in place of a state
    with pytest.raises(ValueError, match="StateKind"):
        StateSpec(kind)


@pytest.mark.parametrize("spec", ["x", None, StateKind.GHZ])
def test_build_state_rejects_what_is_not_a_state_spec(spec):
    with pytest.raises(ValueError, match="spec must be of type StateSpec"):
        build_state(spec)


def test_custom_spec_requires_matrix():
    with pytest.raises(ValueError, match="custom"):
        StateSpec(StateKind.CUSTOM)
    with pytest.raises(ValueError, match="no custom"):
        StateSpec(StateKind.GHZ, custom=np.eye(8) / 8)


def test_custom_spec_validates_density():
    bad = np.eye(8, dtype=complex)  # trace 8
    with pytest.raises(ValueError, match="trace"):
        StateSpec(StateKind.CUSTOM, custom=bad)
    not_psd = np.diag([0.5, 0.6, -0.1, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(ValueError, match="positive"):
        StateSpec(StateKind.CUSTOM, custom=not_psd)
    with pytest.raises(ValueError, match=r"^custom state must be 8x8, got \(4, 4\)$"):
        StateSpec(StateKind.CUSTOM, custom=np.eye(4) / 4)
    for entry in (np.nan, np.inf):
        corrupt = build_state(GHZ)
        corrupt[0, 7] = entry
        with pytest.raises(ValueError, match="^custom state has a non-finite entry"):
            StateSpec(StateKind.CUSTOM, custom=corrupt)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    rho = random_pure_state(rng)
    path = tmp_path / "state.txt"
    save_state_file(path, rho)
    again = load_state_file(path)
    assert np.allclose(again, rho, atol=1e-15)


def test_custom_spec_from_file(tmp_path):
    path = tmp_path / "ghz.txt"
    save_state_file(path, build_state(GHZ))
    spec = StateSpec(StateKind.CUSTOM, load_state_file(path))
    assert spec.kind is StateKind.CUSTOM
    assert np.allclose(build_state(spec), build_state(GHZ))


def test_custom_spec_keeps_its_own_read_only_copy():
    # the spec describes the state it validated, whatever the caller later
    # writes into the array it passed in
    a = build_state(GHZ)
    spec = StateSpec(StateKind.CUSTOM, a)

    def values():
        return run_cascade(xyz_spec(Scenario.A, InequalityKind.G1, spec, (0.7, 1.0))).values

    before = values()
    assert np.allclose(before, (-0.2453, -0.4642), atol=1e-4)
    a[0, 0] = 5.0
    assert values() == before
    a[:] = build_state(W)
    assert values() == before
    with pytest.raises(ValueError, match="read-only"):
        spec.custom[0, 0] = 5.0
    built = build_state(spec)
    built[0, 0] = 5.0
    assert spec.custom[0, 0] == build_state(GHZ)[0, 0]


def test_custom_specs_compare_and_hash_by_their_bits():
    a = StateSpec(StateKind.CUSTOM, build_state(GHZ))
    b = StateSpec(StateKind.CUSTOM, build_state(GHZ))
    assert a == b and hash(a) == hash(b)
    assert {a: "ghz"}[b] == "ghz"
    assert a != StateSpec(StateKind.CUSTOM, build_state(W))
    assert a != GHZ and GHZ != a
    # -0.0 == 0.0, but a hash of the bits tells them apart, so eq must too
    signed = build_state(GHZ)
    signed[0, 1] = -0.0
    assert StateSpec(StateKind.CUSTOM, signed) != a
    # so does a chain on a custom state
    chain = xyz_spec(Scenario.A, InequalityKind.G1, a, (0.7, 1.0))
    same = xyz_spec(Scenario.A, InequalityKind.G1, b, (0.7, 1.0))
    assert chain == same and hash(chain) == hash(same)


def test_ghz_and_w_specs_compare_as_before():
    assert GHZ == StateSpec(StateKind.GHZ) and hash(GHZ) == hash(StateSpec(StateKind.GHZ))
    assert W == StateSpec(StateKind.W) and hash(W) == hash(StateSpec(StateKind.W))
    assert GHZ != W
    assert len({GHZ, W, StateSpec(StateKind.GHZ)}) == 2
    assert repr(GHZ) == "StateSpec(kind=<StateKind.GHZ: 'ghz'>, custom=None)"


def test_load_reports_row_count(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("1+0j " * 8 + "\n")
    with pytest.raises(StateFormatError, match="expected 8 matrix rows, found 1"):
        load_state_file(path)


def test_load_reports_entry_count(tmp_path):
    path = tmp_path / "ragged.txt"
    rows = [" ".join(["0+0j"] * 8) for _ in range(8)]
    rows[4] = " ".join(["0+0j"] * 7)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(StateFormatError, match="row 5: expected 8 entries, found 7"):
        load_state_file(path)


def test_load_reports_bad_token_position(tmp_path):
    path = tmp_path / "typo.txt"
    rows = [" ".join(["0+0j"] * 8) for _ in range(8)]
    cells = rows[2].split()
    cells[5] = "0.5+0.2k"
    rows[2] = " ".join(cells)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(StateFormatError, match=r"row 3, column 6: cannot parse '0.5\+0.2k'"):
        load_state_file(path)


def test_load_rejects_invalid_density(tmp_path):
    path = tmp_path / "unnormalized.txt"
    rows = [" ".join(["0+0j"] * 8) for _ in range(8)]
    cells = rows[0].split()
    cells[0] = "2+0j"
    rows[0] = " ".join(cells)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(StateFormatError, match="trace"):
        load_state_file(path)


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    # a UTF-16 file starts with the bytes ff fe, which UTF-8 cannot decode
    path = tmp_path / "utf16.txt"
    save_state_file(path, build_state(GHZ))
    path.write_bytes(path.read_text().encode("utf-16"))
    with pytest.raises(StateFormatError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        load_state_file(path)


def test_load_reads_past_a_byte_order_mark(tmp_path):
    # a UTF-8 file may start with the mark ef bb bf; it is not part of the
    # first entry, and a marked file that is not UTF-8 is still named
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    save_state_file(plain, build_state(GHZ))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_state_file(marked).tobytes() == load_state_file(plain).tobytes()
    marked.write_bytes(b"\xef\xbb\xbf\xff" + plain.read_bytes())
    with pytest.raises(StateFormatError, match=f"^{re.escape(str(marked))}: not UTF-8 text"):
        load_state_file(marked)

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
    custom_spec,
    ghz_state,
    load_state_file,
    run_cascade,
    w_state,
    xyz_spec,
)
from util import partial_trace, random_pure_state, save_state_file


def test_ghz_amplitudes():
    rho = ghz_state()
    assert rho[0, 0] == pytest.approx(0.5)
    assert rho[7, 7] == pytest.approx(0.5)
    assert rho[0, 7] == pytest.approx(0.5)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert np.allclose(rho @ rho, rho)  # pure


def test_w_amplitudes():
    rho = w_state()
    for k in (1, 2, 4):
        assert rho[k, k] == pytest.approx(1 / 3)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert np.allclose(rho @ rho, rho)


def test_w_state_single_qubit_marginals():
    # each qubit of the W state is excited with probability 1/3
    rho = w_state()
    for wing in range(3):
        reduced = partial_trace(rho, wing)
        assert reduced[1, 1] == pytest.approx(1 / 3)


def test_build_state_dispatch():
    assert np.allclose(build_state(GHZ), ghz_state())
    assert np.allclose(build_state(W), w_state())


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
        corrupt = ghz_state()
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
    save_state_file(path, ghz_state())
    spec = custom_spec(path)
    assert spec.kind is StateKind.CUSTOM
    assert np.allclose(build_state(spec), ghz_state())


def test_custom_spec_keeps_its_own_read_only_copy():
    # the spec describes the state it validated, whatever the caller later
    # writes into the array it passed in
    a = ghz_state()
    spec = StateSpec(StateKind.CUSTOM, a)

    def values():
        return run_cascade(xyz_spec(Scenario.A, InequalityKind.G1, spec, (0.7, 1.0))).values

    before = values()
    assert np.allclose(before, (-0.2453, -0.4642), atol=1e-4)
    a[0, 0] = 5.0
    assert values() == before
    a[:] = w_state()
    assert values() == before
    with pytest.raises(ValueError, match="read-only"):
        spec.custom[0, 0] = 5.0
    built = build_state(spec)
    built[0, 0] = 5.0
    assert spec.custom[0, 0] == ghz_state()[0, 0]


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

"""Tests for VTK output and checkpoint/restart."""

import numpy as np
import pytest

from repro import LagrangianHydroSolver, SedovProblem
from repro.io import load_checkpoint, restore_solver, save_checkpoint, write_vtk


@pytest.fixture
def solver():
    return LagrangianHydroSolver(SedovProblem(dim=2, order=2, zones_per_dim=3))


class TestVTK:
    def test_writes_valid_header_and_counts(self, solver, tmp_path):
        path = write_vtk(tmp_path / "snap", solver)
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "DATASET UNSTRUCTURED_GRID" in text
        # High-order mode: every kinematic node is a point and every
        # zone contributes order^2 sub-quads.
        assert f"POINTS {solver.kinematic.ndof} double" in text
        ncells = solver.kinematic.mesh.nzones * solver.kinematic.order**2
        assert f"CELLS {ncells} " in text
        assert "SCALARS density double 1" in text
        assert "VECTORS velocity double" in text

    def test_vertex_shell_mode(self, solver, tmp_path):
        path = write_vtk(tmp_path / "shell.vtk", solver, high_order=False)
        text = path.read_text()
        assert f"CELLS {solver.kinematic.mesh.nzones} " in text

    def test_point_count_matches_body(self, solver, tmp_path):
        path = write_vtk(tmp_path / "snap", solver)
        lines = path.read_text().splitlines()
        i = next(k for k, l in enumerate(lines) if l.startswith("POINTS"))
        n = int(lines[i].split()[1])
        pts = [lines[i + 1 + j].split() for j in range(n)]
        assert all(len(p) == 3 for p in pts)

    def test_cell_indices_in_range(self, solver, tmp_path):
        path = write_vtk(tmp_path / "snap", solver)
        lines = path.read_text().splitlines()
        i = next(k for k, l in enumerate(lines) if l.startswith("POINTS"))
        npts = int(lines[i].split()[1])
        j = next(k for k, l in enumerate(lines) if l.startswith("CELLS"))
        ncells = int(lines[j].split()[1])
        for row in lines[j + 1 : j + 1 + ncells]:
            vals = list(map(int, row.split()))
            assert vals[0] == 4
            assert all(0 <= v < npts for v in vals[1:])

    def test_3d_hexes(self, tmp_path):
        s = LagrangianHydroSolver(SedovProblem(dim=3, order=1, zones_per_dim=2))
        path = write_vtk(tmp_path / "hex", s)
        text = path.read_text()
        assert "12\n" in text  # VTK_HEXAHEDRON

    def test_suffix_appended(self, solver, tmp_path):
        path = write_vtk(tmp_path / "noext", solver)
        assert path.suffix == ".vtk"


class TestCheckpoint:
    def test_roundtrip_fields(self, solver, tmp_path):
        solver.run(t_final=0.02)
        path = save_checkpoint(tmp_path / "chk", solver)
        data = load_checkpoint(path)
        assert np.array_equal(data["v"], solver.state.v)
        assert np.array_equal(data["e"], solver.state.e)
        assert data["t"] == solver.state.t
        assert data["problem"] == "sedov"

    def test_restore_continues_run(self, tmp_path):
        """Checkpoint mid-run, restore into a fresh solver, continue.

        The restored state is bit-identical; the continued run marches
        to the final time and still conserves total energy to roundoff
        (so the restart loses nothing physical). Step-sequence-identical
        trajectories are not expected — the dt controller restarts its
        ramp — which is exactly how production restarts behave.
        """
        p = lambda: SedovProblem(dim=2, order=2, zones_per_dim=3)
        first = LagrangianHydroSolver(p())
        first.run(t_final=0.01)
        e_mid = first.energies().total
        path = save_checkpoint(tmp_path / "mid", first)

        second = LagrangianHydroSolver(p())
        restore_solver(path, second)
        assert second.state.t == pytest.approx(0.01)
        assert np.array_equal(second.state.v, first.state.v)
        assert np.array_equal(second.state.e, first.state.e)
        assert second.energies().total == pytest.approx(e_mid, rel=1e-14)

        res = second.run(t_final=0.02)
        assert res.reached_t_final
        assert second.energies().total == pytest.approx(e_mid, rel=1e-12)

    def test_mismatch_rejected(self, solver, tmp_path):
        path = save_checkpoint(tmp_path / "chk", solver)
        other = LagrangianHydroSolver(SedovProblem(dim=2, order=3, zones_per_dim=3))
        with pytest.raises(ValueError):
            restore_solver(path, other)

    def test_version_check(self, solver, tmp_path):
        path = save_checkpoint(tmp_path / "chk", solver)
        data = dict(np.load(path))
        data["format_version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_suffix_appended(self, solver, tmp_path):
        path = save_checkpoint(tmp_path / "plain", solver)
        assert path.suffix == ".npz"

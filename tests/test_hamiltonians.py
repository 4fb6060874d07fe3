import math

import numpy as np
import pytest

from noisescramble import (
    HamiltonianParseError,
    InvalidSizeError,
    PauliString,
    PauliTermHamiltonian,
    ShapeError,
    build_tfi_hamiltonian,
    build_xxx_hamiltonian,
    load_hamiltonian_file,
)

from .oracles import hamiltonian_matrix


class TestPauliString:
    def test_weight_and_support(self):
        p = PauliString("IXIZY")
        assert p.n_qubits == 5
        assert p.weight == 3
        assert p.support == (1, 3, 4)

    def test_diagonal_predicate(self):
        assert PauliString("IZZI").is_diagonal()
        assert not PauliString("IZXI").is_diagonal()

    def test_invalid_symbols(self):
        with pytest.raises(ValueError):
            PauliString("ZW")


class TestPauliTermHamiltonian:
    def test_merges_duplicates_and_sorts(self):
        h = PauliTermHamiltonian.from_terms(2, [(0.5, "ZZ"), (0.25, "XX"), (0.5, "ZZ")])
        assert [(c, p.ops) for c, p in h.terms] == [(0.25, "XX"), (1.0, "ZZ")]

    def test_drops_exact_zero(self):
        h = PauliTermHamiltonian.from_terms(2, [(0.5, "ZZ"), (-0.5, "ZZ"), (1.0, "XI")])
        assert [p.ops for _, p in h.terms] == ["XI"]

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            PauliTermHamiltonian.from_terms(3, [(1.0, "ZZ")])

    def test_diagonal_split(self):
        h = PauliTermHamiltonian.from_terms(2, [(1.0, "ZZ"), (0.5, "XI"), (0.2, "IZ")])
        assert [p.ops for _, p in h.diagonal_part().terms] == ["IZ", "ZZ"]
        assert [p.ops for _, p in h.offdiagonal_part().terms] == ["XI"]

    def test_diagonal_vector_matches_dense(self):
        h = PauliTermHamiltonian.from_terms(3, [(0.7, "ZIZ"), (-0.4, "IZI"), (0.1, "III")])
        assert np.allclose(h.diagonal_vector(), np.diag(hamiltonian_matrix(h)).real)


class TestBuildXXX:
    def test_coupling_terms_unit_strength(self):
        _, h1 = build_xxx_hamiltonian(2, seed=0)
        assert sorted((c, p.ops) for c, p in h1.terms) == [
            (1.0, "XX"),
            (1.0, "YY"),
            (1.0, "ZZ"),
        ]

    def test_field_terms_bounded(self):
        h0, _ = build_xxx_hamiltonian(3, seed=4)
        assert len(h0) == 3
        assert all(p.weight == 1 and p.ops.count("Z") == 1 for _, p in h0.terms)
        assert all(abs(c) <= 1.0 for c, _ in h0.terms)

    def test_open_chain_term_count(self):
        _, h1 = build_xxx_hamiltonian(5, seed=1)
        assert len(h1) == 3 * 4

    def test_deterministic(self):
        assert build_xxx_hamiltonian(4, seed=11) == build_xxx_hamiltonian(4, seed=11)

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            build_xxx_hamiltonian(1, seed=0)


class TestBuildTFI:
    def test_field_terms(self):
        h0, _ = build_tfi_hamiltonian(4, seed=0)
        assert len(h0) == 4
        assert all(c == -1.0 for c, _ in h0.terms)
        assert all(p.ops.count("X") == 1 and p.weight == 1 for _, p in h0.terms)

    def test_coupling_terms(self):
        _, h1 = build_tfi_hamiltonian(4, seed=0)
        assert len(h1) == 3
        assert all(abs(c) <= 1.0 for c, _ in h1.terms)
        assert all(p.ops.count("Z") == 2 for _, p in h1.terms)

    def test_deterministic(self):
        assert build_tfi_hamiltonian(5, seed=3) == build_tfi_hamiltonian(5, seed=3)


class TestLoadHamiltonianFile:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.5 ZZ\n-0.25 XI\n")
        h = load_hamiltonian_file(path)
        assert h.n_qubits == 2
        assert [(c, p.ops) for c, p in h.terms] == [(-0.25, "XI"), (0.5, "ZZ")]

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# header\n\n0.5 ZZ  # inline\n")
        assert len(load_hamiltonian_file(path)) == 1

    def test_invalid_symbol_names_line(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.5 ZW\n")
        with pytest.raises(HamiltonianParseError, match="line 1"):
            load_hamiltonian_file(path)

    def test_bad_coefficient_names_line(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.5 ZZ\nxyz XI\n")
        with pytest.raises(HamiltonianParseError, match="line 2"):
            load_hamiltonian_file(path)

    def test_wrong_length_is_shape_error(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.5 ZZ\n0.25 XIX\n")
        with pytest.raises(ShapeError, match="line 2"):
            load_hamiltonian_file(path)

    def test_empty_file_gives_empty_hamiltonian(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# nothing\n")
        h = load_hamiltonian_file(path)
        assert len(h) == 0

    def test_bundled_demo_file(self):
        from .conftest import REPO_ROOT

        h = load_hamiltonian_file(REPO_ROOT / "demos" / "data" / "toy_molecule_4q.txt")
        assert h.n_qubits == 4
        assert len(h.offdiagonal_part()) > 0


class TestInputChecks:
    def test_empty_pauli_string(self):
        with pytest.raises(ValueError, match="empty Pauli string"):
            PauliString("")

    def test_non_finite_coefficient(self):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            PauliTermHamiltonian.from_terms(2, [(math.inf, "XX")])

    def test_diagonal_vector_of_non_diagonal_term(self):
        with pytest.raises(ShapeError, match="not diagonal"):
            PauliTermHamiltonian.from_terms(2, [(1.0, "XZ")]).diagonal_vector()

    def test_tfi_needs_two_qubits(self):
        with pytest.raises(InvalidSizeError, match="at least 2 qubits"):
            build_tfi_hamiltonian(1, seed=0)

    @pytest.mark.parametrize(
        "line, message",
        [("0.5 ZZ XX", "expected '<coefficient> <pauli-string>'"), ("inf ZZ", "non-finite coefficient")],
    )
    def test_bad_file_line(self, tmp_path, line, message):
        path = tmp_path / "h.txt"
        path.write_text(f"0.5 ZI\n{line}\n")
        with pytest.raises(HamiltonianParseError, match=f"line 2: {message}"):
            load_hamiltonian_file(path)

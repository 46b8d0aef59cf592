"""Tests for measurement utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.errors import SimulationError
from repro.statevector import measure
from repro.statevector.chunks import ChunkedStateVector
from repro.statevector.measure import (
    expectation_z,
    marginal_probability,
    most_probable,
    probabilities,
    sample_counts,
)
from repro.statevector.state import StateVector, simulate


@pytest.fixture
def bell() -> StateVector:
    return simulate(QuantumCircuit(2).h(0).cx(0, 1))


class TestProbabilities:
    def test_sum_to_one(self, bell: StateVector) -> None:
        assert probabilities(bell).sum() == pytest.approx(1.0)

    def test_accepts_raw_arrays(self) -> None:
        probs = probabilities(np.array([1.0, 0.0], dtype=np.complex128))
        np.testing.assert_allclose(probs, [1.0, 0.0])

    def test_rejects_matrices(self) -> None:
        with pytest.raises(SimulationError):
            probabilities(np.zeros((2, 2), dtype=np.complex128))


class TestSampling:
    def test_bell_counts_split_between_00_and_11(self, bell: StateVector) -> None:
        counts = sample_counts(bell, shots=2000, seed=7)
        assert set(counts) == {0b00, 0b11}
        assert counts[0b00] + counts[0b11] == 2000
        assert abs(counts[0b00] - 1000) < 150

    def test_deterministic_under_seed(self, bell: StateVector) -> None:
        assert sample_counts(bell, 100, seed=1) == sample_counts(bell, 100, seed=1)

    def test_zero_shots_rejected(self, bell: StateVector) -> None:
        with pytest.raises(SimulationError):
            sample_counts(bell, 0)

    def test_unnormalised_state_rejected(self) -> None:
        state = np.array([1.0, 1.0], dtype=np.complex128)
        with pytest.raises(SimulationError, match="normalised"):
            sample_counts(state, 10)


def flat_sample_counts(amplitudes: np.ndarray, shots: int, seed: int) -> dict[int, int]:
    """The flat formulation the blocked sampler replaced, kept as its
    reference: ``|a|^2`` over the whole vector, then ``Generator.choice``.

    Probabilities are taken at double precision, as the sampler takes
    them (a complex64 state's squares accumulate in float64).
    """
    probs = np.abs(np.asarray(amplitudes).astype(np.complex128)) ** 2
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(probs.size, size=shots, p=probs / probs.sum())
    values, counts = np.unique(outcomes, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


#: Where a drawn state keeps its mass.  ``run`` is the stretch that is
#: zeroed or kept as a whole: a sampler block where the state has several.
SPARSITY = (
    "dense", "runs", "first_run", "last_run", "first_amplitude", "last_amplitude",
)


def drawn_state(width: int, sparsity: str, data_seed: int) -> np.ndarray:
    rng = np.random.default_rng(data_seed)
    size = 1 << width
    state = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    runs = state.reshape(-1, 1 << min(width - 1, 10))
    if sparsity == "runs":
        keep = rng.random(runs.shape[0]) < 0.4
        keep[rng.integers(runs.shape[0])] = True
        runs[~keep] = 0.0
    elif sparsity == "first_run":
        runs[1:] = 0.0
    elif sparsity == "last_run":
        runs[:-1] = 0.0
    elif sparsity == "first_amplitude":
        state[1:] = 0.0
    elif sparsity == "last_amplitude":
        state[:-1] = 0.0
    return state / np.linalg.norm(state)


def laid_out(state: np.ndarray, dtype, layout: str) -> np.ndarray:
    state = state.astype(dtype)
    if layout == "strided":
        wide = np.zeros(2 * state.size, dtype=dtype)
        wide[::2] = state
        return wide[::2]
    if layout == "column":
        return np.asfortranarray(np.stack([state, state]))[0]
    return state


states = st.tuples(
    st.integers(1, 14), st.sampled_from(SPARSITY), st.integers(0, 2**32 - 1)
)


class TestBlockedSampler:
    @given(
        states,
        st.sampled_from([np.complex128, np.complex64]),
        st.sampled_from(["contiguous", "strided", "column"]),
        st.integers(1, 4096),
        st.integers(0, 2**63 - 1),
    )
    def test_counts_equal_the_flat_reference(
        self, state, dtype, layout, shots, seed
    ) -> None:
        amplitudes = laid_out(drawn_state(*state), dtype, layout)
        assert sample_counts(amplitudes, shots, seed) == flat_sample_counts(
            amplitudes, shots, seed
        )

    @given(states, st.integers(1, 8), st.integers(1, 512), st.integers(0, 2**32 - 1))
    def test_chunked_sample_equals_sample_counts_of_the_backing(
        self, state, chunk_bits, shots, seed
    ) -> None:
        width = state[0]
        chunked = ChunkedStateVector.from_dense(
            drawn_state(*state), min(chunk_bits, width)
        )
        assert chunked.sample(shots, np.random.default_rng(seed)) == sample_counts(
            chunked.backing, shots, seed
        )

    @pytest.mark.parametrize("block_bits", [1, 3, 6, 10])
    def test_support_holds_on_every_block_boundary(
        self, block_bits: int, monkeypatch
    ) -> None:
        """Uniforms on, one ulp below and one ulp above every value of the
        block CDF (0 and ``nextafter(1, 0)`` among them) - where a block's
        one-pass mass and its sequential cumsum disagree in the last ulp -
        still land on non-zero amplitudes, with zero blocks between the
        live ones and a zero amplitude ending every live block."""

        class Forced:
            def __init__(self, uniforms: np.ndarray) -> None:
                self.uniforms = uniforms

            def random(self, shots: int) -> np.ndarray:
                assert shots == self.uniforms.size
                return self.uniforms

        cases = []
        for data_seed in range(6):
            rng = np.random.default_rng(data_seed)
            blocks = drawn_state(14, "dense", data_seed).reshape(-1, 1 << block_bits)
            blocks[rng.random(blocks.shape[0]) < 0.5] = 0.0
            blocks[:, -1] = 0.0
            state = blocks.ravel() / np.linalg.norm(blocks)
            reals = state.view(np.float64).reshape(blocks.shape[0], -1)
            cdf = np.cumsum(np.einsum("ij,ij->i", reals, reals))
            cdf /= cdf[-1]
            edges = np.unique(
                np.concatenate([[0.0], cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 1)])
            )
            cases.append((state, edges[edges < 1.0]))
        for state, edges in cases:
            support = set(np.flatnonzero(state).tolist())
            chunked = ChunkedStateVector.from_dense(state, block_bits)
            counts = chunked.sample(edges.size, Forced(edges))
            assert set(counts) <= support
            assert sum(counts.values()) == edges.size
            if block_bits == 10:
                monkeypatch.setattr(
                    measure.np.random, "default_rng", lambda seed: Forced(edges)
                )
                assert sample_counts(state, edges.size, seed=0) == counts
                monkeypatch.undo()

    def test_real_input_is_converted(self) -> None:
        assert sample_counts(np.array([0.0, 1.0, 0.0]), 9) == {1: 9}
        assert sample_counts([0.6, 0.0, 0.8j, 0.0], 50, seed=3) == flat_sample_counts(
            np.array([0.6, 0.0, 0.8j, 0.0]), 50, 3
        )

    @pytest.mark.parametrize(
        "state, shots",
        [
            (np.full(4096, 1.0 + 0.0j), 10),
            (np.zeros(2048, dtype=np.complex128), 10),
            (np.zeros(0, dtype=np.complex128), 10),
            (np.full((2, 2), 0.5 + 0.0j), 10),
            (np.array([1.0 + 0.0j, 0.0]), 0),
            (np.array([1.0 + 0.0j, 0.0]), -3),
        ],
    )
    def test_bad_input_still_raises(self, state: np.ndarray, shots: int) -> None:
        with pytest.raises(SimulationError):
            sample_counts(state, shots)


class TestMarginals:
    def test_bell_marginals_are_half(self, bell: StateVector) -> None:
        assert marginal_probability(bell, 0) == pytest.approx(0.5)
        assert marginal_probability(bell, 1) == pytest.approx(0.5)

    def test_basis_state_marginal(self) -> None:
        state = simulate(QuantumCircuit(3).x(1))
        assert marginal_probability(state, 1) == pytest.approx(1.0)
        assert marginal_probability(state, 0) == pytest.approx(0.0)

    def test_qubit_out_of_range(self, bell: StateVector) -> None:
        with pytest.raises(SimulationError):
            marginal_probability(bell, 5)

    @given(states, st.sampled_from([np.complex128, np.complex64]),
           st.sampled_from(["contiguous", "strided"]))
    def test_marginal_equals_the_masked_sum(self, state, dtype, layout) -> None:
        amplitudes = laid_out(drawn_state(*state), dtype, layout)
        probs = np.abs(amplitudes.astype(np.complex128)) ** 2
        for qubit in range(state[0]):
            ones = (np.arange(probs.size) >> qubit & 1).astype(bool)
            assert marginal_probability(amplitudes, qubit) == pytest.approx(
                probs[ones].sum(), abs=1e-12
            )

    def test_expectation_z_signs(self) -> None:
        zero = StateVector(1)
        one = simulate(QuantumCircuit(1).x(0))
        plus = simulate(QuantumCircuit(1).h(0))
        assert expectation_z(zero, 0) == pytest.approx(1.0)
        assert expectation_z(one, 0) == pytest.approx(-1.0)
        assert expectation_z(plus, 0) == pytest.approx(0.0, abs=1e-12)

    def test_most_probable(self) -> None:
        state = simulate(QuantumCircuit(3).x(0).x(2))
        assert most_probable(state) == 0b101

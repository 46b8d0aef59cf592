"""Measurement utilities: sampling, marginals, expectation values.

The paper only measures at the end of circuits (Section II-B), so these are
terminal-state operations over a :class:`~repro.statevector.state.StateVector`
or a raw amplitude array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


def _amplitudes_of(state) -> np.ndarray:
    amplitudes = getattr(state, "amplitudes", state)
    amplitudes = np.asarray(amplitudes)
    if amplitudes.ndim != 1:
        raise SimulationError("expected a 1-D amplitude vector")
    return amplitudes


def probabilities(state) -> np.ndarray:
    """``|a_i|^2`` for every basis state."""
    return np.abs(_amplitudes_of(state)) ** 2


#: Amplitudes per sampler block: the paper's chunk (2^10 amplitudes).
_BLOCK_BITS = 10


def _real_view(amplitudes: np.ndarray) -> np.ndarray:
    """``amplitudes`` as interleaved ``re, im`` reals without a copy.

    Input that is not C-contiguous complex64/complex128 is converted once.
    """
    if amplitudes.dtype not in (np.complex64, np.complex128):
        amplitudes = amplitudes.astype(np.complex128)
    amplitudes = np.ascontiguousarray(amplitudes)
    return amplitudes.view(amplitudes.real.dtype)


def sample_counts(state, shots: int, seed: int = 0) -> dict[int, int]:
    """Sample ``shots`` basis-state measurements; returns index -> count."""
    return _sample_blocks(
        _amplitudes_of(state), shots, np.random.default_rng(seed), _BLOCK_BITS
    )


def _sample_blocks(
    amplitudes: np.ndarray, shots: int, rng: np.random.Generator, block_bits: int
) -> dict[int, int]:
    """Two-level inverse-CDF sampling over blocks of ``2^block_bits``.

    One streaming pass takes every block's mass; the uniforms are drawn
    and inverted as ``Generator.choice(p=)`` does (one ``random(shots)``,
    a CDF normalised by its last entry, ``searchsorted(side="right")``),
    first over the block CDF and then over the amplitudes of the blocks
    that were hit, so a seed gives the counts the flat formulation gives
    while only ``<= shots`` blocks are ever expanded.  An outcome of zero
    probability is never returned.
    """
    if shots <= 0:
        raise SimulationError(f"shots must be positive, got {shots}")
    reals = _real_view(amplitudes)
    width = 2 << block_bits
    if reals.size % width:
        width = reals.size  # not a whole number of blocks: one block
    reals = reals.reshape(-1, width)
    mass = np.einsum("ij,ij->i", reals, reals, dtype=np.float64)
    total = mass.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise SimulationError(f"state is not normalised (sum p = {total:.6f})")
    cdf = np.cumsum(mass)
    scale = cdf[-1]
    cdf /= scale
    uniforms = rng.random(shots)
    blocks, row = np.unique(
        np.searchsorted(cdf, uniforms, side="right"), return_inverse=True
    )
    squares = reals[blocks].astype(np.float64, copy=False)
    np.square(squares, out=squares)  # reals[blocks] is already a copy
    local = squares[:, 0::2] + squares[:, 1::2]
    size = local.shape[1]
    last = size - 1 - np.argmax(local[:, ::-1] > 0, axis=1)
    # The hit blocks' CDFs, each offset to its place in the global one and
    # laid end to end, are searched in one call.  A block's one-pass mass
    # and its sequential cumsum differ in the last ulp: rows are capped at
    # their block's CDF value so that the whole stays sorted, and a uniform
    # that falls in the gap a row leaves below that value belongs to the
    # block's last non-zero amplitude, never to what follows it.
    np.cumsum(local, axis=1, out=local)
    local /= scale
    local += np.concatenate(([0.0], cdf))[blocks, None]
    np.minimum(local, cdf[blocks, None], out=local)
    offset = np.searchsorted(local.ravel(), uniforms, side="right") - row * size
    outcomes = blocks[row] * size + np.minimum(offset, last[row])
    values, counts = np.unique(outcomes, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def marginal_probability(state, qubit: int) -> float:
    """Probability of measuring ``1`` on ``qubit``."""
    amplitudes = _amplitudes_of(state)
    n = int(amplitudes.size).bit_length() - 1
    if not 0 <= qubit < n:
        raise SimulationError(f"qubit {qubit} out of range for {n}-qubit state")
    ones = _real_view(amplitudes).reshape(-1, 2, 2 << qubit)[:, 1, :]
    return float(np.einsum("ij,ij->", ones, ones, dtype=np.float64))


def expectation_z(state, qubit: int) -> float:
    """Expectation value of Pauli-Z on ``qubit``: ``p0 - p1``."""
    p1 = marginal_probability(state, qubit)
    return 1.0 - 2.0 * p1


def most_probable(state) -> int:
    """Basis index with the largest probability."""
    return int(np.argmax(probabilities(state)))

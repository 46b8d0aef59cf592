"""Kernels of the functional engine: one gate over one strided view.

The chunked engine used to apply a gate chunk by chunk - one numpy call
per 16 KiB - and spent most of a run in call dispatch.  The live chunks
of a gate form a subcube of the chunk-index space
(:mod:`repro.statevector.subcube`), so the amplitudes a gate has to touch
are one basic-slicing *view* of the backing buffer:

* :func:`subcube_view` reshapes the buffer into runs of index bits, indexes
  the fixed bits away and gives every gate qubit its own axis.  Pruned
  memory is not part of the view, so it is never read or written.
* :func:`sweep` applies a gate or :class:`~repro.statevector.fusion.GateSlab`
  to that view: a broadcast in-place multiply for diagonals, the control
  axes indexed at 1 for ``cx``/``cy``/``ccx``, and a matmul for dense
  ops.  Dense ops are tiled over the most significant free bits so the
  temporaries stay cache-sized whatever the state size; ``part``/``parts``
  give each worker one contiguous range of tiles.

The same :func:`sweep` runs on a single chunk or a gathered group (nothing
fixed, one tile), which is how the per-chunk reference path
(:meth:`ChunkedStateVector.apply_groups`) and the fault-guarded path stay
bit-identical to the whole-state sweep: every path does the same
arithmetic on each amplitude.

:func:`chunk_diagonal_factor` / :func:`apply_diagonal_chunk` are the
per-chunk form of the diagonal multiply, kept for the reference path.
"""

from __future__ import annotations

import threading
from itertools import islice

import numpy as np

from repro.circuits.gates import Gate, qubit_mask

#: Amplitudes per dense tile: tile, gathered operand and matmul result
#: stay L2-resident together (measured fastest at 2^14-2^15 across qubit
#: positions on 2^22 amplitudes; larger tiles spill, smaller ones pay
#: more Python per amplitude).
_TILE_AMPS = 1 << 15

#: A single-qubit gate runs as one batched ``(2,2) @ (..., 2, cols)``
#: matmul straight off the view when the contiguous run below the qubit
#: is at least this long; below it numpy issues one tiny GEMM per pair of
#: rows and the gather-then-matmul form is faster.
_MATMUL_MIN_COLS = 64

#: Thread-local scratch: two tile-sized vectors per (thread, dtype), so a
#: sweep allocates nothing per tile.
_scratch_store = threading.local()


def _scratch(dtype: np.dtype, elems: int, slot: int) -> np.ndarray:
    """Thread-local contiguous scratch vector ``slot`` of ``elems`` elements."""
    vectors = getattr(_scratch_store, "vectors", None)
    if vectors is None:
        vectors = _scratch_store.vectors = {}
    key = (np.dtype(dtype).str, slot)
    vector = vectors.get(key)
    if vector is None or vector.size < elems:
        vector = vectors[key] = np.empty(max(elems, _TILE_AMPS), dtype=dtype)
    return vector[:elems]


def subcube_view(
    buffer: np.ndarray,
    fixed_mask: int,
    fixed_value: int,
    qubits: tuple[int, ...],
    tile_mask: int = 0,
    inner_bits: int = 0,
) -> tuple[np.ndarray, list[int], list[int]]:
    """View of the amplitudes whose index agrees with the fixed bits.

    The index bits of ``buffer`` (``2^n`` amplitudes, bit 0 least
    significant) are cut into maximal runs of one role - fixed, tile,
    free, or a single gate qubit - and the buffer reshaped to one axis per
    run, most significant first.  Fixed runs are indexed at their value,
    so the result is a basic-slicing view of exactly the live amplitudes.

    Args:
        buffer: Contiguous amplitude vector.
        fixed_mask: Index bits held constant.
        fixed_value: Their values.
        qubits: Bits that each get an axis of length 2.
        tile_mask: Free bits kept on axes of their own, so that indexing
            those axes enumerates disjoint tiles of the view.
        inner_bits: A run never straddles this bit, so the last axis
            covers exactly the low ``inner_bits`` bits when those are free.

    The three masks must be disjoint.

    Returns:
        ``(view, axes, tile_axes)``: ``axes[i]`` is the view axis of
        ``qubits[i]``, ``tile_axes`` the axes of the tile runs in order.
    """
    split = qubit_mask(qubits)
    shape: list[int] = []
    index: list[int | slice] = []
    axis_of: dict[int, int] = {}
    tile_axes: list[int] = []
    axis = 0
    bit = int(buffer.size).bit_length() - 1
    while bit:
        top = low = bit - 1
        if split >> top & 1:
            axis_of[top] = axis
        else:
            role = (fixed_mask >> top & 1, tile_mask >> top & 1)
            while (
                low
                and low != inner_bits
                and not split >> (low - 1) & 1
                and (fixed_mask >> (low - 1) & 1, tile_mask >> (low - 1) & 1) == role
            ):
                low -= 1
            if role[1]:
                tile_axes.append(axis)
        shape.append(1 << (bit - low))
        if fixed_mask >> top & 1:
            index.append(fixed_value >> low & ((1 << (bit - low)) - 1))
        else:
            index.append(slice(None))
            axis += 1
        bit = low
    view = buffer.reshape(shape)[tuple(index)]
    return view, [axis_of[q] for q in qubits], tile_axes


def _diagonal_update(tiled: np.ndarray, lead: int, op, axes: list[int], inner_bits: int):
    """Per-tile update of a diagonal op: one broadcast in-place multiply.

    The multiplier has one axis per op qubit at or above ``inner_bits``
    (``axes``, descending qubit order) and, unless ``inner_bits`` is 0,
    the last axis over the low ``inner_bits`` index bits: the per-chunk
    factors of :func:`chunk_diagonal_factor` stacked over every pattern of
    the outer qubits.
    """
    outer = sorted((q for q in op.qubits if q >= inner_bits), reverse=True)
    rows = []
    for pattern in range(1 << len(outer)):
        chunk_index = 0
        for position, q in enumerate(reversed(outer)):
            chunk_index |= (pattern >> position & 1) << (q - inner_bits)
        rows.append(np.atleast_1d(chunk_diagonal_factor(op, inner_bits, chunk_index)))
    shape = [1] * (tiled.ndim - lead)
    for axis in axes:
        shape[axis - lead] = 2
    if inner_bits:
        shape[-1] = len(rows[0])
    factor = np.array(rows, dtype=tiled.dtype).reshape(shape)

    def update(tile: np.ndarray) -> None:
        tile *= factor

    return tiled, update


def _matrix_update(tiled: np.ndarray, lead: int, matrix: np.ndarray, axes: list[int]):
    """Per-tile update applying a ``2^k x 2^k`` unitary to ``axes``.

    Everything that does not depend on the tile - the dtype cast, the
    float view for real matrices, moving the target axes - is done once
    on ``tiled``, whose first ``lead`` axes enumerate the tiles.
    """
    matrix = np.asarray(matrix, dtype=tiled.dtype)
    if (
        len(axes) == 1
        and axes[0] < tiled.ndim - 1
        and tiled.strides[-1] == tiled.itemsize
    ):
        operand, factor = tiled, matrix
        if not matrix.imag.any():
            # A real matrix scales the re/im parts of an amplitude
            # independently, so the same update runs as a real matmul
            # over the float view: half the arithmetic, same traffic.
            float_dtype = np.float32 if tiled.dtype == np.complex64 else np.float64
            operand = tiled.view(float_dtype)
            factor = np.ascontiguousarray(matrix.real, dtype=float_dtype)
        if operand.shape[-1] >= _MATMUL_MIN_COLS:

            def batched(tile: np.ndarray) -> None:
                out = _scratch(tile.dtype, tile.size, 0).reshape(tile.shape)
                np.matmul(factor, tile, out=out)
                tile[...] = out

            return np.moveaxis(operand, axes[0], -2), batched

    # Target axes to the front of every tile, most significant first, so
    # that folding them yields the matrix's basis ordering (qubits[0] =
    # LSB); then gather, one GEMM, scatter.
    k = len(axes)

    def gathered(tile: np.ndarray) -> None:
        operand = _scratch(tile.dtype, tile.size, 0).reshape(tile.shape)
        np.copyto(operand, tile)
        out = _scratch(tile.dtype, tile.size, 1).reshape(1 << k, -1)
        np.matmul(matrix, operand.reshape(1 << k, -1), out=out)
        tile[...] = out.reshape(tile.shape)

    return np.moveaxis(tiled, axes[::-1], range(lead, lead + k)), gathered


def _dense_update(tiled: np.ndarray, lead: int, op, axes: list[int]):
    """Per-tile update of a non-diagonal op: controls indexed at 1, then
    the matmul on what is left."""
    controls = {"cx": 1, "cy": 1, "ccx": 2}.get(op.name, 0)
    if not controls:
        return _matrix_update(tiled, lead, op.matrix(), axes)
    selector: list[int | slice] = [slice(None)] * tiled.ndim
    for axis in axes[:controls]:
        selector[axis] = 1
    target = axes[controls] - sum(axis < axes[controls] for axis in axes[:controls])
    # The target's 2x2 block: rows/columns whose control bits (the low
    # matrix-index bits) are all 1.
    ones = (1 << controls) - 1
    block = op.matrix()[ones :: ones + 1, ones :: ones + 1]
    return _matrix_update(tiled[tuple(selector)], lead, block, [target])


def sweep(
    buffer: np.ndarray,
    op,
    fixed_mask: int = 0,
    fixed_value: int = 0,
    inner_bits: int | None = None,
    part: int = 0,
    parts: int = 1,
) -> None:
    """Apply ``op`` to the amplitudes of ``buffer`` matching the fixed bits.

    Args:
        buffer: Contiguous vector of ``2^n`` amplitudes, updated in place.
        op: A :class:`Gate` or :class:`~repro.statevector.fusion.GateSlab`
            on qubits ``< n``.
        fixed_mask: Amplitude-index bits held constant (the pruning
            descriptor shifted up by ``chunk_bits``).  Bits at the op's own
            qubits are ignored: a gate updates both values of its qubits.
        fixed_value: Their values.
        inner_bits: Low index bits a diagonal multiplier is materialised
            over (the chunk size of the caller; default: the whole buffer).
        part: This worker's share in ``[0, parts)``.
        parts: Number of disjoint contiguous shares the tiles are dealt
            into; together they cover the live amplitudes exactly.
    """
    num_bits = int(buffer.size).bit_length() - 1
    if inner_bits is None:
        inner_bits = num_bits
    gate_mask = qubit_mask(op.qubits)
    fixed_mask &= ~gate_mask
    fixed_value &= fixed_mask
    free = ~(fixed_mask | gate_mask) & ((1 << num_bits) - 1)

    # Tiles enumerate the most significant free bits.  A diagonal multiply
    # is a pure stream and is cut only as far as the workers need; a dense
    # op is also cut down to cache-sized tiles.
    cuts = (parts - 1).bit_length() + (2 if parts & (parts - 1) else 0)
    if not op.is_diagonal:
        live_bits = num_bits - fixed_mask.bit_count()
        cuts = max(cuts, live_bits - _TILE_AMPS.bit_length() + 1)
    tile_mask = 0
    for _ in range(min(cuts, free.bit_count())):
        tile_mask |= 1 << ((free & ~tile_mask).bit_length() - 1)

    if op.is_diagonal:
        cut = fixed_mask | tile_mask
        inner_bits = min(inner_bits, (cut & -cut).bit_length() - 1 if cut else num_bits)
        split = tuple(sorted((q for q in op.qubits if q >= inner_bits), reverse=True))
    else:
        split, inner_bits = op.qubits, 0
    view, axes, tile_axes = subcube_view(
        buffer, fixed_mask, fixed_value, split, tile_mask, inner_bits
    )
    lead = len(tile_axes)
    tiled = np.moveaxis(view, tile_axes, range(lead))
    axes = [lead + axis - sum(t < axis for t in tile_axes) for axis in axes]
    if op.is_diagonal:
        tiled, update = _diagonal_update(tiled, lead, op, axes, inner_bits)
    else:
        tiled, update = _dense_update(tiled, lead, op, axes)
    tiles = 1 << tile_mask.bit_count()
    for index in islice(
        np.ndindex(tiled.shape[:lead]), part * tiles // parts, (part + 1) * tiles // parts
    ):
        update(tiled[index])


def chunk_diagonal_factor(
    gate: Gate,
    chunk_bits: int,
    chunk_index: int,
    cache: dict[int, np.ndarray | complex] | None = None,
) -> np.ndarray | complex:
    """The per-amplitude multiplier of a diagonal gate, restricted to a chunk.

    A diagonal gate multiplies amplitude ``i`` by ``d[local(i)]`` where
    ``local(i)`` collects the bits of ``i`` at the gate's qubits.  Within
    one chunk the bits at qubits ``>= chunk_bits`` are fixed by the chunk
    index, so the multiplier is a function of the within-chunk offset only:
    a vector over the chunk (or a scalar when every gate qubit is outside).
    Chunks sharing the same outside-bit pattern share the factor; pass a
    ``cache`` dict (keyed on the pattern) to build each one once per gate.
    """
    diagonal = gate.diagonal()
    inside = [(pos, q) for pos, q in enumerate(gate.qubits) if q < chunk_bits]
    pattern = 0
    for pos, q in enumerate(gate.qubits):
        if q >= chunk_bits:
            pattern |= (chunk_index >> (q - chunk_bits) & 1) << pos
    if cache is not None and pattern in cache:
        return cache[pattern]
    if not inside:
        factor: np.ndarray | complex = complex(diagonal[pattern])
    else:
        offsets = np.arange(1 << chunk_bits)
        local = np.full(1 << chunk_bits, pattern, dtype=np.intp)
        for pos, q in inside:
            local |= (offsets >> q & 1) << pos
        factor = diagonal[local]
    if cache is not None:
        cache[pattern] = factor
    return factor


def apply_diagonal_chunk(
    chunk: np.ndarray,
    gate: Gate,
    chunk_bits: int,
    chunk_index: int,
    cache: dict[int, np.ndarray | complex] | None = None,
) -> None:
    """Apply a diagonal gate to one chunk in place - no pairing, no gather."""
    factor = chunk_diagonal_factor(gate, chunk_bits, chunk_index, cache)
    if isinstance(factor, np.ndarray):
        factor = np.asarray(factor, dtype=chunk.dtype)
    chunk *= factor

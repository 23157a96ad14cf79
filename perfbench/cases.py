"""Seeded inputs of every workload, and the dense NumPy references.

Every array comes from ``repro.utils.rng`` named streams of the workload
seed, and the dataset generators get ``rng=`` explicitly: their
``rng=None`` default seeds from ``hash(name)``, which differs between
processes.  ``input_digest`` fingerprints a workload's inputs so the
self-test can compare two processes.

A *case* is one operation as a user writes it (Table 1's one line): an
expression, its operands, and the public entry that runs it.  The paper
workload has eight cases; the serving workload reuses the same shape for
its request classes, so the compiler ledger runs on both workloads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.datasets import (
    build_kernel_map,
    generate_scene,
    load_graph_matrix,
    voxelize,
)
from repro.formats import COO, BlockGroupCOO, GroupCOO
from repro.formats.base import SparseFormat
from repro.kernels import FullyConnectedTensorProduct, SparseConv3d
from repro.utils.rng import rng

SPMM = "C[m,n] += A[m,k] * B[k,n]"


@dataclass
class Case:
    """One user-level operation and how to check it.

    ``entry`` is ``"sparse_einsum"`` (logical expression, one operand a
    :class:`SparseFormat`) or ``"insum"`` (indirect expression over plain
    arrays).  ``output`` names the zero-initialised output an ``insum``
    call binds; ``expected`` is the independent dense NumPy result.
    """

    name: str
    entry: str
    expression: str
    operands: dict[str, Any]
    expected: Callable[[], np.ndarray]
    nnz: int
    stored: int
    output: tuple[str, tuple] | None = None
    small: bool = False
    limit_ms: float = 0.0

    @property
    def sparse_name(self) -> str | None:
        for name, value in self.operands.items():
            if isinstance(value, SparseFormat):
                return name
        return None

    def call_operands(self) -> dict[str, Any]:
        """Operands of one call, with a fresh zero output for ``insum``."""
        if self.output is None:
            return dict(self.operands)
        name, shape = self.output
        return {**self.operands, name: np.zeros(shape)}


def format_footprint(fmt: SparseFormat) -> int:
    """Stored elements (values + metadata, padding included) of a format."""
    return int(fmt.value_count() + fmt.index_count())


def array_footprint(arrays: dict[str, np.ndarray]) -> int:
    return int(sum(np.asarray(a).size for a in arrays.values()))


# ---------------------------------------------------------------------------
# paper-kernels: the paper's four case studies, each small and large
# ---------------------------------------------------------------------------
#: name -> (kind, scale).  Small cases run in about a millisecond and show
#: per-call frontend cost; large ones run for several milliseconds and show
#: gather/contract/scatter.
PAPER_SCALES = {
    "spmm_unstructured_small": ("unstructured", dict(graph="pubmed", max_rows=512, cols=16)),
    "spmm_unstructured_large": ("unstructured", dict(graph="pubmed", max_rows=2048, cols=32)),
    "spmm_structured_small": ("structured", dict(size=256, density=0.1, cols=64)),
    "spmm_structured_large": ("structured", dict(size=1024, density=0.1, cols=128)),
    "spconv_small": ("spconv", dict(scene="pantry", points=1500, voxel=0.2, channels=8)),
    "spconv_large": ("spconv", dict(scene="pantry", points=4000, voxel=0.1, channels=32)),
    "equivariant_small": ("equivariant", dict(l_max=1, channels=8, batch=4)),
    "equivariant_large": ("equivariant", dict(l_max=2, channels=32, batch=48)),
}

#: Per-call latency limits (ms) of the paper workload's attainment.
PAPER_LIMIT_MS = {"small": 10.0, "large": 100.0}


@dataclass
class RawInput:
    """Generated inputs of one paper case, before any format is built."""

    name: str
    kind: str
    scale: dict
    arrays: dict[str, Any]


def block_sparse(size: int, density: float, gen: np.random.Generator) -> np.ndarray:
    """A ``size``-square matrix of 32x32 dense blocks, ``density`` of them nonzero.

    The block count is fixed and only the positions and values follow
    the seed: drawing each block's presence independently (as
    ``random_block_sparse_matrix`` does) makes the count, and with it the
    work of a call, vary by up to 2x between seeds on the small case.
    """
    grid = size // 32
    count = max(1, round(density * grid * grid))
    dense = np.zeros((size, size))
    for flat in np.sort(gen.choice(grid * grid, size=count, replace=False)):
        row, col = divmod(int(flat), grid)
        block = gen.standard_normal((32, 32))
        block[block == 0] = 1.0
        dense[row * 32:(row + 1) * 32, col * 32:(col + 1) * 32] = block
    return dense


def paper_inputs(seed: int) -> list[RawInput]:
    """Generate the raw inputs of the eight paper cases (not timed)."""
    raws = []
    for name, (kind, scale) in PAPER_SCALES.items():
        stream = f"paper.{name}"
        if kind == "unstructured":
            csr = load_graph_matrix(
                scale["graph"], max_rows=scale["max_rows"], rng=rng(seed, stream + ".graph")
            )
            dense = rng(seed, stream + ".dense").standard_normal((csr.shape[1], scale["cols"]))
            arrays = {"csr": csr, "B": dense}
        elif kind == "structured":
            matrix = block_sparse(scale["size"], scale["density"], rng(seed, stream + ".blocks"))
            dense = rng(seed, stream + ".dense").standard_normal((scale["size"], scale["cols"]))
            arrays = {"A": matrix, "B": dense}
        elif kind == "spconv":
            points = generate_scene(
                scale["scene"], max_points=scale["points"], rng=rng(seed, stream + ".scene")
            )
            voxels = voxelize(points, scale["voxel"])
            features = rng(seed, stream + ".features").standard_normal(
                (len(voxels), scale["channels"])
            )
            arrays = {"voxels": voxels, "features": features}
        else:
            tp = FullyConnectedTensorProduct(scale["l_max"], scale["channels"])
            x, y, w = tp.random_inputs(scale["batch"], rng=rng(seed, stream + ".xyw"))
            arrays = {"X": x, "Y": y, "W": w}
        raws.append(RawInput(name, kind, scale, arrays))
    return raws


def paper_case(raw: RawInput, seed: int) -> Case:
    """Build one paper case's sparse format (timed as set-up)."""
    size = "small" if raw.name.endswith("_small") else "large"
    common = dict(small=size == "small", limit_ms=PAPER_LIMIT_MS[size])
    arrays = raw.arrays
    if raw.kind == "unstructured":
        csr, B = arrays["csr"], arrays["B"]
        fmt = GroupCOO.from_csr(csr)

        def expected():
            dense = np.zeros(csr.shape)
            rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
            dense[rows, csr.indices] = csr.data
            return dense @ B

        return Case(raw.name, "sparse_einsum", SPMM, {"A": fmt, "B": B},
                    expected=expected, nnz=fmt.nnz,
                    stored=format_footprint(fmt), **common)
    if raw.kind == "structured":
        A, B = arrays["A"], arrays["B"]
        fmt = BlockGroupCOO.from_dense(A, (32, 32))
        return Case(raw.name, "sparse_einsum", SPMM, {"A": fmt, "B": B},
                    expected=lambda: A @ B, nnz=fmt.nnz,
                    stored=format_footprint(fmt), **common)
    if raw.kind == "spconv":
        channels = raw.scale["channels"]
        kernel_map = build_kernel_map(arrays["voxels"])
        conv = SparseConv3d(kernel_map, channels, channels,
                            rng=rng(seed, f"paper.{raw.name}.weight"))
        features, weight = arrays["features"], conv.weight

        def expected():
            out = np.zeros((kernel_map.num_voxels, channels))
            for offset, pairs in enumerate(kernel_map.pairs):
                np.add.at(out, pairs[:, 0], features[pairs[:, 1]] @ weight[offset])
            return out

        return Case(raw.name, "insum", SparseConv3d.expression,
                    {"In": features, "Weight": weight, **conv.map_arrays},
                    expected=expected, nnz=kernel_map.total_pairs,
                    stored=array_footprint(conv.map_arrays),
                    output=("Out", (kernel_map.num_voxels, channels)), **common)
    scale = raw.scale
    tp = FullyConnectedTensorProduct(scale["l_max"], scale["channels"])
    x, y, w = arrays["X"], arrays["Y"], arrays["W"]
    cg = tp.cg.dense
    return Case(raw.name, "insum", tp.expression,
                {"X": x, "Y": y, "W": w, **tp._grouped},
                expected=lambda: np.einsum("ijkl,bju,bk,bluw->biw", cg, x, y, w, optimize=True),
                nnz=tp.cg.nnz, stored=array_footprint(tp._grouped),
                output=("Z", (scale["batch"], tp.slot_dimension, scale["channels"])),
                **common)


# ---------------------------------------------------------------------------
# Serving requests
# ---------------------------------------------------------------------------
def random_pattern(gen: np.random.Generator, shape: tuple, density: float) -> np.ndarray:
    """A dense matrix with ``round(density * size)`` nonzeros at seeded places.

    A fixed count keeps each request class's work the same across seeds.
    """
    size = int(np.prod(shape))
    count = max(1, round(density * size))
    dense = np.zeros(size)
    dense[gen.choice(size, size=count, replace=False)] = gen.standard_normal(count)
    return dense.reshape(shape)


@dataclass
class Request:
    """One serving request: expression, operands, and its dense reference."""

    expression: str
    operands: dict[str, Any]
    expected: Callable[[], np.ndarray]
    nnz: int
    kind: str


class FreshTraffic:
    """``fresh-gateway``: every request carries a never-seen pattern.

    Shapes cycle through ``SHAPES``; density is uniform in 1-5%; the
    format alternates between GroupCOO and COO by a seeded coin.
    """

    #: (rows, inner, dense columns)
    SHAPES = ((64, 48, 8), (96, 64, 8), (128, 96, 16), (80, 80, 12))

    def __init__(self, seed: int):
        self.seed = seed

    def request(self, i: int) -> Request:
        gen = rng(self.seed, f"fresh.req.{i}")
        return self._build(gen, i % len(self.SHAPES), gen.uniform(0.01, 0.05),
                           GroupCOO if gen.random() < 0.5 else COO)

    def _build(self, gen, shape: int, density: float, fmt_class) -> Request:
        rows, inner, cols = self.SHAPES[shape]
        dense = random_pattern(gen, (rows, inner), density)
        A = fmt_class.from_dense(dense)
        B = gen.standard_normal((inner, cols))
        return Request(SPMM, {"A": A, "B": B}, lambda: dense @ B, A.nnz,
                       f"{fmt_class.__name__.lower()}_{rows}x{inner}")

    def classes(self) -> list[Request]:
        """Each shape as GroupCOO at 2% and COO at 4% density.

        Fixed densities keep the class set's cost the same across seeds;
        the patterns come from a stream the run never sends.
        """
        gen = rng(self.seed, "fresh.classes")
        return [
            self._build(gen, shape, density, fmt_class)
            for shape in range(len(self.SHAPES))
            for density, fmt_class in ((0.02, GroupCOO), (0.04, COO))
        ]


def request_case(name: str, request: Request) -> Case:
    """View a serving request (an SpMM) as a compiler-ledger case."""
    return Case(name, "sparse_einsum", request.expression, dict(request.operands),
                expected=request.expected, nnz=request.nnz,
                stored=format_footprint(request.operands["A"]))


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------
def _update(digest, value: Any) -> None:
    if isinstance(value, SparseFormat):
        digest.update(type(value).__name__.encode())
        for name, array in sorted(value.tensors("A").items()):
            digest.update(name.encode())
            _update(digest, array)
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    else:
        digest.update(repr(value).encode())


def input_digest(workload: str, seed: int, requests: int = 256) -> str:
    """SHA-256 over a workload's inputs: the self-test's cross-process check."""
    digest = hashlib.sha256()
    if workload == "paper-kernels":
        for raw in paper_inputs(seed):
            case = paper_case(raw, seed)
            for name, value in sorted(case.operands.items()):
                digest.update(name.encode())
                _update(digest, value)
    else:
        traffic = FreshTraffic(seed)
        for i in range(requests):
            for name, value in sorted(traffic.request(i).operands.items()):
                digest.update(name.encode())
                _update(digest, value)
    return digest.hexdigest()

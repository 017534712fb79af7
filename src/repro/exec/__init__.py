"""Batch execution layer: columnar batches, vectorized kernels, parallelism.

The tuple-at-a-time algorithms in :mod:`repro.core` are the *oracle*; this
package is how the same algorithms run fast.  Three pieces:

* :mod:`repro.exec.batch` -- :class:`PageBatch`, the columnar page
  representation built once per page;
* :mod:`repro.exec.kernels` -- the probe / intersection / owner-filter /
  migration / locate kernels, numpy-vectorized with pure-Python fallbacks
  selected at import (numpy is the optional ``repro[fast]`` extra);
* :mod:`repro.exec.sweep_parallel` -- the interval-pruned probe of the
  pipelined sweep, fanned out over key-group lanes on a process pool.

Algorithms select a path via ``PartitionJoinConfig.execution``
(``"tuple"`` | ``"batch"`` | ``"batch-parallel-sweep"``); see
``docs/EXECUTION.md`` for the layout and determinism rules.

:mod:`repro.exec.forward_sweep` is the odd one out: not a faster path
through the partition join but a different physical operator -- the
endpoint-sorted forward-scan sweep with gapless hash maps, selected via
``execution="forward-sweep"``.
"""

from repro.exec.backend import BACKEND_ENV_VAR, HAVE_NUMPY, backend_name
from repro.exec.batch import (
    KeyInterner,
    PageBatch,
    iter_page_batches,
    tuples_from_columns,
    tuples_to_columns,
)
from repro.exec.kernels import (
    Kernels,
    NumpyKernels,
    PartitionBoundaries,
    PythonKernels,
    get_kernels,
)

# The forward sweep operates on storage.columnar_page buffers, and the
# storage layer imports repro.exec.backend -- so re-export it lazily
# (PEP 562) to keep this package importable from inside that cycle.
_FORWARD_SWEEP_EXPORTS = (
    "SWEEP_BACKENDS",
    "GaplessHashMap",
    "forward_sweep_join",
    "resolve_sweep_backend",
)


def __getattr__(name: str):
    if name in _FORWARD_SWEEP_EXPORTS:
        from repro.exec import forward_sweep

        return getattr(forward_sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SWEEP_BACKENDS",
    "GaplessHashMap",
    "forward_sweep_join",
    "resolve_sweep_backend",
    "BACKEND_ENV_VAR",
    "HAVE_NUMPY",
    "KeyInterner",
    "Kernels",
    "NumpyKernels",
    "PageBatch",
    "PartitionBoundaries",
    "PythonKernels",
    "backend_name",
    "get_kernels",
    "iter_page_batches",
    "tuples_from_columns",
    "tuples_to_columns",
]

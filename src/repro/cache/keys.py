"""Cache-key derivation: (group fingerprint, program identity, config digest).

A key names one *deterministic computation*: the engine's bitwise-identity
contract (values and logical counters are independent of executor,
worker count, batching, and observability) is what
makes the remaining dimensions — group content, program, and the few
config fields that do shape results — a complete key.

- **Program identity** covers the program class, its declared semantics
  (semantics/gather/tol/max_iterations/needs_weights/directed), and
  every instance parameter: primitives by value (SSSP's source vertex,
  PageRank's damping, ...), arrays by dtype, shape and bytes (MIS's
  priorities). Changing any of them changes the key; a parameter of any
  other type is an :class:`~repro.errors.EngineError`, never silently
  left out of the key.
- **Config digest** covers only the result-shaping fields: mode,
  layout, ``max_iterations`` (a cap changes both values and counters),
  and the ``reuse`` policy itself — warm-started REGATHER results are
  tolerance-equal, not bitwise, so entries written under
  ``reuse="incremental"`` never serve a ``reuse="cache"`` run. Nothing
  of the simulated machine enters: a simulated run cannot reuse.
- Executor and workers are deliberately *excluded*: they are proven
  result-neutral (the executor parity suites), so a serial run can
  serve a thread-pool run and vice versa.

``CACHE_FORMAT`` versions the whole scheme; bumping it orphans (never
mis-serves) existing entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

import numpy as np

from repro.cache.fingerprint import _array_chunk, combine_digests, digest_bytes
from repro.errors import EngineError

if TYPE_CHECKING:
    from repro.algorithms.program import VertexProgram
    from repro.engine.config import EngineConfig

__all__ = ["CACHE_FORMAT", "cache_key", "config_digest", "program_identity"]

#: Version of the key scheme and on-disk entry layout (3: the config
#: digest no longer hashes the simulator's ``distributed`` flag).
CACHE_FORMAT = 3

_PRIMITIVES = (bool, int, float, str, type(None))


def program_identity(program: "VertexProgram") -> str:
    """A digest of everything that makes this program compute what it does."""
    ident: Dict[str, Any] = {
        "class": f"{type(program).__module__}.{type(program).__qualname__}",
        "name": program.name,
        "semantics": program.semantics.value,
        "gather": program.gather.value,
        "tol": program.tol,
        "max_iterations": program.max_iterations,
        "needs_weights": program.needs_weights,
        "directed": program.directed,
    }
    # Instance parameters (SSSP source, PageRank damping, MIS priorities,
    # ...): every attribute participates, sorted for determinism.
    for attr, value in sorted(vars(program).items()):
        if isinstance(value, _PRIMITIVES):
            ident[f"param.{attr}"] = value
        elif (
            isinstance(value, (np.ndarray, np.generic))
            and not value.dtype.hasobject
        ):
            ident[f"param.{attr}"] = (
                "ndarray",
                digest_bytes(_array_chunk(value)),
            )
        else:
            raise EngineError(
                f"{type(program).__name__}.{attr} is a "
                f"{type(value).__name__}; a cache key covers primitive and "
                "ndarray program parameters only"
            )
    return digest_bytes(repr(sorted(ident.items())).encode("utf-8"))


def config_digest(config: "EngineConfig") -> str:
    """A digest of the result-shaping config fields (see module docs)."""
    fields = (
        ("format", CACHE_FORMAT),
        ("mode", config.mode.value),
        ("layout", config.layout.value),
        ("max_iterations", config.max_iterations),
        ("reuse", config.reuse),
    )
    return digest_bytes(repr(fields).encode("utf-8"))


def cache_key(group_fp: str, program_id: str, config_id: str) -> str:
    """The full entry key for one (group, program, config) computation."""
    return combine_digests((group_fp, program_id, config_id))

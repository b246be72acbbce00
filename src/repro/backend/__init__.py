"""Native backends: baseline FIFO C, LaminarIR C, and the gcc harness."""

from repro.backend.common import checksum_outputs
from repro.backend.fifo_c import generate_fifo_c
from repro.backend.laminar_c import generate_laminar_c
from repro.backend.runner import (NativeCompileError, NativeProtocolError,
                                  NativeRun, NativeRunError,
                                  NativeToolchainError, compile_and_run,
                                  compile_c, find_compiler, run_binary)

__all__ = [
    "NativeCompileError", "NativeProtocolError", "NativeRun",
    "NativeRunError", "NativeToolchainError",
    "checksum_outputs", "compile_and_run", "compile_c", "find_compiler",
    "generate_fifo_c", "generate_laminar_c", "run_binary",
]

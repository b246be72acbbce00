"""Shared pieces of both C backends.

Contains the C runtime prelude (deterministic RNG, print/checksum/timing
harness, math helpers) and small utilities for type mapping and naming.

The generated programs take two arguments::

    ./prog <iterations> print   # print every output (correctness mode)
    ./prog <iterations> time    # run silently, print checksum + seconds

``int`` maps to ``int32_t`` and ``float`` to ``double``, and the RNG is
the same xorshift32 as :class:`repro.frontend.intrinsics.XorShift32`, so
native output streams are bit-identical to the Python interpreters.
"""

from __future__ import annotations

import hashlib
import struct

from repro.frontend.types import BOOLEAN, FLOAT, INT, ScalarType


def runtime_digest() -> str:
    """sha256 (truncated) over every shared C runtime snippet.

    Part of each backend's codegen fingerprint (see
    ``codegen_fingerprint`` in :mod:`repro.backend.laminar_c` /
    :mod:`repro.backend.fifo_c`): editing the prelude, the main harness
    or the profile runtime changes the digest and therefore invalidates
    every cached artifact built from the old runtime.
    """
    payload = "\n".join((C_PRELUDE, C_SHIFT_RUNTIME, C_ZERO_SUB_RUNTIME,
                         C_MAIN, c_profile_runtime([])))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

C_PRELUDE = r"""
#include <stdio.h>
#include <stdlib.h>
#include <stdint.h>
#include <string.h>
#include <math.h>
#include <time.h>

typedef int32_t i32;
typedef double f64;

static uint32_t repro_rng_state = 0x12345678u;

static inline uint32_t repro_rng_next(void) {
    uint32_t x = repro_rng_state;
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    repro_rng_state = x;
    return x;
}

static inline f64 repro_randf(void) {
    return (f64)(repro_rng_next() >> 8) / 16777216.0;
}

static inline void repro_runtime_error(const char *message) {
    fprintf(stderr, "runtime error: %s\n", message);
    exit(4);
}

static inline i32 repro_randi(i32 bound) {
    if (bound == 0) repro_runtime_error("randi bound must be non-zero");
    return (i32)(repro_rng_next() % (uint32_t)bound);
}

/* Truncating i32 division/modulo with the interpreters' wrap-around
   semantics: INT_MIN / -1 wraps instead of trapping (the `idiv`
   overflow that -fwrapv does NOT paper over), and dividing by zero is
   a defined runtime error rather than a SIGFPE. */
static inline i32 repro_div_i32(i32 a, i32 b) {
    if (b == 0) repro_runtime_error("division by zero in '/'");
    if (b == -1) return (i32)(0u - (uint32_t)a);
    return a / b;
}

static inline i32 repro_mod_i32(i32 a, i32 b) {
    if (b == 0) repro_runtime_error("division by zero in '%'");
    if (b == -1) return 0;
    return a % b;
}

static inline f64 repro_round(f64 x) { return floor(x + 0.5); }
static inline f64 repro_min_f64(f64 a, f64 b) { return a < b ? a : b; }
static inline f64 repro_max_f64(f64 a, f64 b) { return a > b ? a : b; }
static inline i32 repro_min_i32(i32 a, i32 b) { return a < b ? a : b; }
static inline i32 repro_max_i32(i32 a, i32 b) { return a > b ? a : b; }
static inline i32 repro_abs_i32(i32 a) { return a < 0 ? -a : a; }

static int repro_print_mode = 0;
static uint64_t repro_checksum = 1469598103934665603ull; /* FNV offset */
static uint64_t repro_output_count = 0;

static inline void repro_hash_u64(uint64_t bits) {
    repro_checksum ^= bits ^ (bits >> 63);
    repro_checksum *= 1099511628211ull;
}

static inline void repro_print_f64(f64 value) {
    union { f64 d; uint64_t u; } pun;
    pun.d = value;
    repro_hash_u64(pun.u);
    repro_output_count++;
    if (repro_print_mode) {
        printf("%.17g\n", value);
    }
}

static inline void repro_print_i32(i32 value) {
    repro_hash_u64((uint64_t)(uint32_t)value);
    repro_output_count++;
    if (repro_print_mode) {
        printf("%d\n", (int)value);
    }
}

static inline double repro_now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}
"""

C_MAIN = r"""
int main(int argc, char **argv) {
    long long iterations = 1;
    if (argc > 1) {
        iterations = atoll(argv[1]);
    }
    if (argc > 2 && strcmp(argv[2], "print") == 0) {
        repro_print_mode = 1;
    }
    repro_setup();
    repro_init_schedule();
    double start = repro_now();
    for (long long it = 0; it < iterations; it++) {
        repro_steady();
    }
    double elapsed = repro_now() - start;
    fprintf(stderr, "checksum %016llx\n",
            (unsigned long long)repro_checksum);
    fprintf(stderr, "outputs %llu\n",
            (unsigned long long)repro_output_count);
    fprintf(stderr, "seconds %.9f\n", elapsed);
    return 0;
}
"""

C_PROFILE_BUCKETS = 64


def _c_json_string(name: str) -> str:
    """A C string literal whose contents are valid inside a JSON string."""
    out = []
    for ch in name:
        if ch in ('"', "\\"):
            out.append("\\\\" + ("\\\"" if ch == '"' else "\\\\"))
        elif ord(ch) < 0x20 or ord(ch) > 0x7E:
            out.append(f"\\\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def c_profile_runtime(names: list[str]) -> str:
    """The per-filter profiling runtime, enabled by ``profile=True`` codegen.

    Declares one accumulator row per filter (wall-clock nanoseconds, static
    op count, call count) plus a log2-ns histogram of whole steady
    iterations.  A destructor prints everything as a single ``profile-json``
    line on stderr, which :func:`repro.backend.runner.run_binary` parses
    back into :class:`NativeRun.profile`.  The names are emitted
    JSON-escaped so the dump can print them verbatim.
    """
    count = max(len(names), 1)
    quoted = ",\n    ".join(_c_json_string(n) for n in names) or '""'
    return f"""
#define REPRO_PROFILE 1
#define REPRO_PROF_FILTERS {count}
#define REPRO_PROF_BUCKETS {C_PROFILE_BUCKETS}

static const char *repro_prof_names[REPRO_PROF_FILTERS] = {{
    {quoted}
}};
static double repro_prof_ns[REPRO_PROF_FILTERS];
static unsigned long long repro_prof_ops[REPRO_PROF_FILTERS];
static unsigned long long repro_prof_calls[REPRO_PROF_FILTERS];
static unsigned long long repro_prof_hist[REPRO_PROF_BUCKETS];
static unsigned long long repro_prof_iters = 0;
static double repro_prof_t0;
static double repro_prof_t_iter;

static void repro_prof_note_iter(double seconds) {{
    double ns = seconds * 1e9;
    int bucket = 0;
    while (bucket < REPRO_PROF_BUCKETS - 1 && ns >= 2.0) {{
        ns *= 0.5;
        bucket++;
    }}
    repro_prof_hist[bucket]++;
    repro_prof_iters++;
}}

__attribute__((destructor))
static void repro_prof_dump(void) {{
    int i;
    fprintf(stderr, "profile-json {{\\"iterations\\":%llu,\\"filters\\":[",
            repro_prof_iters);
    for (i = 0; i < REPRO_PROF_FILTERS; i++) {{
        fprintf(stderr,
                "%s{{\\"name\\":\\"%s\\",\\"ns\\":%.0f,\\"ops\\":%llu,"
                "\\"calls\\":%llu}}",
                i ? "," : "", repro_prof_names[i], repro_prof_ns[i],
                repro_prof_ops[i], repro_prof_calls[i]);
    }}
    fprintf(stderr, "],\\"hist\\":[");
    for (i = 0; i < REPRO_PROF_BUCKETS; i++) {{
        fprintf(stderr, "%s%llu", i ? "," : "", repro_prof_hist[i]);
    }}
    fprintf(stderr, "]}}\\n");
}}
"""


# Shifts with the interpreters' semantics, emitted after the prelude
# only by a program that shifts by a count not known to be in [0, 31]:
# such a count is undefined in C (x86 masks it to five bits) and a
# runtime error here, as in the interpreters; a left shift wraps like
# the other i32 arithmetic.
C_SHIFT_RUNTIME = r"""
static inline i32 repro_shl_i32(i32 a, i32 b) {
    if ((uint32_t)b > 31u) repro_runtime_error("shift count out of range in '<<'");
    return (i32)((uint32_t)a << b);
}

static inline i32 repro_shr_i32(i32 a, i32 b) {
    if ((uint32_t)b > 31u) repro_runtime_error("shift count out of range in '>>'");
    return a >> b;
}
"""


# ``0.0 - x`` as the FIFO C backend prints it, emitted after the prelude
# only by a program that subtracts from a literal zero: gcc 12 folds the
# literal form to ``-x`` wherever it proves x is never -0.0 (as for
# ``(f64)i`` or ``fabs(x)``), even at -O0, which gives -0.0 for x == 0.
C_ZERO_SUB_RUNTIME = r"""
static inline f64 repro_zero_sub_f64(f64 x) { return 0.0 - x; }
"""


def c_shift(op: str, lhs: str, rhs: str, count: object) -> str | None:
    """The checked C call for ``lhs op rhs``, or None when ``op`` is not
    a shift or ``count`` (the count's value, when known at compile
    time) is in [0, 31], so that a plain operator is exact."""
    if op not in ("<<", ">>") or (count.__class__ is int
                                  and 0 <= count <= 31):  # type: ignore
        return None
    fn = "repro_shl_i32" if op == "<<" else "repro_shr_i32"
    return f"{fn}({lhs}, {rhs})"


def c_type(ty: ScalarType) -> str:
    if ty == INT or ty == BOOLEAN:
        return "i32"
    if ty == FLOAT:
        return "f64"
    raise ValueError(f"no C mapping for {ty}")


def c_float_literal(value: float) -> str:
    """A C literal that round-trips the exact double value."""
    if value != value:  # NaN
        return "(0.0/0.0)"
    if value == float("inf"):
        return "(1.0/0.0)"
    if value == float("-inf"):
        return "(-1.0/0.0)"
    text = repr(float(value))
    if "e" not in text and "." not in text and "inf" not in text:
        text += ".0"
    return text


def c_int_literal(value: int) -> str:
    # INT_MIN cannot be written as a plain literal in C.
    if value == -2147483648:
        return "(-2147483647 - 1)"
    return str(value)


def sanitize_ident(name: str) -> str:
    out = "".join(ch if ch.isalnum() else "_" for ch in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


INTRINSIC_C_NAMES = {
    "sin": "sin", "cos": "cos", "tan": "tan", "asin": "asin",
    "acos": "acos", "atan": "atan", "sinh": "sinh", "cosh": "cosh",
    "tanh": "tanh", "exp": "exp", "log": "log", "log10": "log10",
    "sqrt": "sqrt", "floor": "floor", "ceil": "ceil",
    "round": "repro_round", "atan2": "atan2", "pow": "pow", "fmod": "fmod",
    "randf": "repro_randf", "randi": "repro_randi",
}


def checksum_outputs(outputs: list[object]) -> int:
    """The same FNV-style checksum the C runtime computes over its outputs.

    Floats hash their IEEE-754 bit pattern, ints their 32-bit pattern, so
    a Python interpreter run and a native run of the same program agree
    bit-for-bit.  Each pattern's sign bit is also xored into its bit 0
    (``bits ^ (bits >> 63)``) before the xor and the multiply by the FNV
    prime: a sign-only flip would otherwise change only bit 63 of the
    accumulator, which the odd multiply leaves in place, and two such
    flips would cancel.
    """
    acc = 1469598103934665603
    for value in outputs:
        if isinstance(value, bool):
            bits = int(value)
        elif isinstance(value, int):
            bits = value & 0xFFFFFFFF
        else:
            bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        acc ^= bits ^ (bits >> 63)
        acc = (acc * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return acc

"""Shared fixtures and program snippets for the test suite."""

from __future__ import annotations

import os

import pytest

from repro import compile_source
from repro.backend.runner import find_compiler


@pytest.fixture(scope="session", autouse=True)
def _isolated_ledger(tmp_path_factory):
    """Point the run ledger at a per-session temp dir.

    CLI commands append ledger records as a side effect; without this,
    running the test suite would grow ``.repro/ledger/`` in the repo.
    Subprocess tests inherit the override through os.environ.
    """
    previous = os.environ.get("REPRO_LEDGER_DIR")
    os.environ["REPRO_LEDGER_DIR"] = str(
        tmp_path_factory.mktemp("ledger"))
    yield
    if previous is None:
        os.environ.pop("REPRO_LEDGER_DIR", None)
    else:
        os.environ["REPRO_LEDGER_DIR"] = previous

@pytest.fixture(scope="session", autouse=True)
def _isolated_cache(tmp_path_factory):
    """Point the artifact cache at a per-session temp dir.

    Same rationale as the ledger: serve/cache tests (and any CLI
    invocation that builds natively) must not populate the repo's
    ``.repro/cache/``.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("artifact_cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


# A small but representative program: peeking FIR, duplicate splitjoin,
# rate conversion, scalar filter state and randomized input.
DEMO_PROGRAM = """
float->float filter LowPass(int N) {
  float[N] coeff;
  init {
    for (int i = 0; i < N; i++)
      coeff[i] = sin(0.2 * (i + 1));
  }
  work push 1 pop 1 peek N {
    float sum = 0;
    for (int i = 0; i < N; i++)
      sum += peek(i) * coeff[i];
    push(sum);
    pop();
  }
}

float->float filter Decimate() {
  work push 1 pop 2 {
    push(pop());
    pop();
  }
}

void->float filter Source() {
  float x;
  init { x = 0; }
  work push 1 {
    push(randf() + sin(x));
    x = x + 0.25;
  }
}

float->void filter Sink() {
  work pop 1 { println(pop()); }
}

void->void pipeline Demo {
  add Source();
  add splitjoin {
    split duplicate;
    add LowPass(8);
    add pipeline {
      add LowPass(4);
      add Decimate();
    };
    join roundrobin(2, 1);
  };
  add Sink();
}
"""

# Minimal linear pipeline, fully static (no RNG).
TINY_PROGRAM = """
void->float filter Ramp() {
  float x;
  init { x = 0; }
  work push 1 {
    push(x);
    x = x + 1;
  }
}

float->float filter Scale(float k) {
  work push 1 pop 1 { push(pop() * k); }
}

float->void filter Out() {
  work pop 1 { println(pop()); }
}

void->void pipeline Tiny {
  add Ramp();
  add Scale(2.5);
  add Out();
}
"""


@pytest.fixture(scope="session")
def demo_stream():
    return compile_source(DEMO_PROGRAM, "demo.str")


@pytest.fixture(scope="session")
def tiny_stream():
    return compile_source(TINY_PROGRAM, "tiny.str")


requires_cc = pytest.mark.skipif(find_compiler() is None,
                                 reason="no C compiler on PATH")


def function_text(code: str, name: str) -> str:
    """The text of generated C function ``name``, header to closing
    brace (only a function's own closing brace sits in column 0)."""
    start = code.index(f"static void {name}(void)")
    return code[start:code.index("\n}\n", start) + 2]

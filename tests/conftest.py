import importlib.util
import os
import resource
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import settings

from treehom import TreeHomomorphism, parse_term
from treehom.cli import load_automaton, load_hom

settings.register_profile("suite", max_examples=50, derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "data"


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's `perfbench/workloads.py`, loaded by path: its pools
    and ops serve as fixed, read-only test inputs."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def doubling_chain():
    return load_automaton(DATA_DIR / "doubling_chain.aut")


@pytest.fixture(scope="session")
def duplicating_hom():
    return load_hom(DATA_DIR / "duplicating_hom.hom")


@pytest.fixture(scope="session")
def doubling_image():
    return load_automaton(DATA_DIR / "doubling_image.aut")


@pytest.fixture(scope="session")
def constrained_pair():
    return load_automaton(DATA_DIR / "constrained_pair.aut")


@pytest.fixture(scope="session")
def arctic_chain():
    return load_automaton(DATA_DIR / "arctic_chain.aut")


@pytest.fixture(scope="session")
def full_duplication():
    return load_hom(DATA_DIR / "full_duplication.hom")


@pytest.fixture(scope="session")
def shifted_duplication():
    return load_hom(DATA_DIR / "shifted_duplication.hom")


@pytest.fixture(scope="session")
def counting_chain():
    return load_automaton(DATA_DIR / "counting_chain.aut")


@pytest.fixture(scope="session")
def z6_chain():
    return load_automaton(DATA_DIR / "z6_chain.aut")


@pytest.fixture(scope="session")
def identity_hom(doubling_chain):
    sigma = doubling_chain.alphabet
    return TreeHomomorphism(sigma, sigma, {
        "a": parse_term("a", sigma),
        "g": parse_term("g(x1)", sigma, ext={"x1"}),
        "f": parse_term("f(x1)", sigma, ext={"x1"}),
    })


@contextmanager
def _capped_memory(extra=512 * 2**20):
    # The cap is lifted before pytest formats the failure, which needs memory.
    try:
        with open("/proc/self/statm") as f:
            size = int(f.read().split()[0]) * resource.getpagesize()
    except OSError:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = min([size + extra] + [x for x in (soft, hard) if x != resource.RLIM_INFINITY])
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    except MemoryError:
        ran_out = True
    else:
        ran_out = False
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    if ran_out:
        pytest.fail(f"ran out of memory {extra >> 20} MiB above the size at the start")


@pytest.fixture
def memory_cap():
    """Context manager that caps the address space at its current size plus
    512 MiB, so a runaway enumeration fails the test instead of taking the
    machine's memory.  No cap where /proc/self/statm is missing."""
    return _capped_memory

"""The package namespace: every public name, bound on first use."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import altperms

SRC = Path(__file__).resolve().parent.parent / "src"

#: The public names `altperms` exports, under the module that defines each.
PUBLIC = {
    "perm_core": [
        "AlternationClass", "InvariantViolation", "Occurrence", "Pattern", "PATTERN_123", "PATTERN_321", "Perm",
        "check_pattern", "classify", "complement", "count_occurrences", "format_perm", "is_alternating",
        "is_permutation", "middle_counts", "parse_perm", "perm", "reverse", "standardize", "suffix_class",
    ],
    "enumeration": ["GenerationFilter", "count", "generate", "table1_oracle"],
    "formulas": [
        "OutOfValidityRange", "SequenceSpec", "a_n", "boundary_count", "catalan", "closed_form_even_123",
        "closed_form_even_321", "closed_form_odd", "convolution_even_321", "convolution_odd_321",
        "decomposition_sum", "euler_zigzag", "table1_formula",
    ],
    "decompose": [
        "DecompositionRecord", "InvalidRecord", "NotAlternating", "NotExactlyOne", "enumerate_by_decomposition",
        "format_record", "locate_unique_321", "parse_record", "reconstruct", "split", "validate_record",
    ],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_there_are_48_public_names():
    assert len(NAMES) == len(set(NAMES)) == 48
    assert altperms.__version__ == "0.1.0"


@pytest.mark.parametrize(("home", "name"), [(home, name) for home, names in PUBLIC.items() for name in names])
def test_each_public_name_is_its_home_modules_object(home, name):
    assert getattr(altperms, name) is getattr(import_module(f"altperms.{home}"), name)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from altperms import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_the_first_public_name_read_binds_them_all():
    # benchmarks/tracing.py wraps only the names already in vars(altperms) when it installs, and the
    # benchmark's in-process workloads call through the package namespace, so one read must bind all
    probe = (f"import altperms; names = set({NAMES!r}); before = names & set(vars(altperms)); "
             "altperms.catalan; print(len(before), len(names - set(vars(altperms))))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "0 0\n", "")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        altperms.no_such_name


def test_invariant_violation_is_one_class():
    import altperms.decompose
    import altperms.perm_core

    assert altperms.InvariantViolation is altperms.decompose.InvariantViolation is altperms.perm_core.InvariantViolation


def test_concurrent_first_reads_get_the_home_objects():
    # eight threads miss at once; each binds the whole namespace, with the same objects
    probe = f"""
import sys, threading
import altperms

sys.setswitchinterval(1e-6)
home_of = {{name: home for home, names in {PUBLIC!r}.items() for name in names}}
names = list(home_of)
barrier = threading.Barrier(8)
got = {{}}

def read(i):
    barrier.wait()
    got[i] = [(name, getattr(altperms, name)) for name in names[i::8]]

threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
assert not any(thread.is_alive() for thread in threads)
wrong = [name for pairs in got.values() for name, value in pairs
         if value is not getattr(sys.modules["altperms." + home_of[name]], name)]
print(sum(map(len, got.values())), wrong)
"""
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "48 []\n", "")

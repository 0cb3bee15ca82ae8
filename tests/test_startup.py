"""Importing the package and its CLI loads neither `dataclasses` nor
`inspect`, which together cost a fresh interpreter about 20 ms.  pytest
imports both itself, so the check runs in a new interpreter."""

import os
import subprocess
import sys

import toricaut

CHECK = ("import sys, toricaut, toricaut.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")


def test_import_loads_no_dataclasses_or_inspect():
    # the new interpreter imports the package this test imported
    src = os.path.dirname(os.path.dirname(toricaut.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"

"""The benchmark's tracer finds every name it wraps, and puts each back.

`perfbench/tracer.py` looks up the functions and `LinearCode` methods it
times by name, so deleting or renaming one of them fails here rather than in
a benchmark run."""

import sys
from pathlib import Path

import leecodes.cli  # noqa: F401  (imports every module the tracer rebinds)
from leecodes.codes import LinearCode

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _attributes():
    owners = [module for name, module in sys.modules.items()
              if name == "leecodes" or name.startswith("leecodes.")]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners + [LinearCode]}


def test_tracer_installs_on_every_traced_name_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    before = _attributes()
    tracer = Tracer()
    try:
        tracer.install()   # AttributeError or LookupError on a missing name
        assert tracer._undo
        assert all(vars(owner)[attr] is not value for owner, attr, value in tracer._undo)
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        assert all(now[attr] is value for attr, value in attrs.items()), owner

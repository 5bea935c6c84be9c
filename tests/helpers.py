"""Shared text generators for the test suite, and helpers to run the CLI."""

import contextlib
import importlib.util
import io
import itertools
import os
from pathlib import Path
from types import SimpleNamespace

from pdawg import Alphabet, PString

A_XY = Alphabet("a", "xy")
AB_XYZ = Alphabet("ab", "xyz")


def all_pstrings(alphabet, max_len, min_len=0):
    """Every p-string over the alphabet with length in [min_len, max_len]."""
    symbols = sorted(alphabet.sigma) + sorted(alphabet.pi)
    for n in range(min_len, max_len + 1):
        for raw in itertools.product(symbols, repeat=n):
            yield PString(raw, alphabet)


def distinct_by_prev(strings):
    """One representative per prev-encoding, in first-seen order."""
    seen = set()
    out = []
    for s in strings:
        key = s.prev().codes
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


def random_pstring(rng, alphabet, n):
    symbols = sorted(alphabet.sigma) + sorted(alphabet.pi)
    return PString([rng.choice(symbols) for _ in range(n)], alphabet)


def static_class_family(k):
    """F_k as (first half, second half, statics): `p c1 c2 c3 c4 a_i` for
    i < k, then `p c1 c2 c3 c4 y a_i` for i < k with y and w alternating, so
    n = 13k.  The parameters are p, y and w.  The class of `c1 c2 c3 c4`
    has k static out-edges, and each y or w reads symbol 0 there."""
    head = ("p", "c1", "c2", "c3", "c4")
    first = [s for i in range(k) for s in (*head, f"a{i}")]
    second = [s for i in range(k) for s in (*head, "yw"[i % 2], f"a{i}")]
    return first, second, ["c1", "c2", "c3", "c4", *(f"a{i}" for i in range(k))]


def load_repo_file(name, *parts):
    """Import the file at `parts` under the repository root as module `name`."""
    path = Path(__file__).resolve().parents[1].joinpath(*parts)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def src_env():
    """The environment for a child interpreter that imports this checkout's
    `pdawg`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


class _Tee(io.StringIO):
    """One output stream that also copies what it is given into `both`."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, s):
        self.both.write(s)
        return super().write(s)


def invoke(main, argv):
    """Run `main(argv)` in-process and capture how it ended: `exit_code`,
    `stdout` (and `stdout_bytes`), `stderr`, `output` (both streams in the
    order written) and `exception` (None on exit 0)."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            exit_code = exc.code or 0
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    return SimpleNamespace(
        exit_code=exit_code,
        stdout=out.getvalue(),
        stdout_bytes=out.getvalue().encode("utf-8"),
        stderr=err.getvalue(),
        output=both.getvalue(),
        exception=exception,
    )

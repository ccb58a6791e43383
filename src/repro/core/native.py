"""Build, cache and load the compiled passes of the scan and the features.

``_native.c`` (shipped as package data next to this file) is compiled on
first use with the system C compiler and loaded with :mod:`ctypes`, so
the only requirement beyond the standard library is a ``cc`` at run time
and, without one, nothing is lost but speed: :func:`load` returns
``None``, :func:`repro.core.backends.incremental_scan` runs its numpy
passes instead and :func:`repro.core.features.haralick_features` its
numpy entropies and ``eigvalsh``.  ``ctypes`` releases the interpreter
lock for the whole foreign call.

The shared object lives in a per-user cache,
``${XDG_CACHE_HOME:-~/.cache}/repro/<sha256>.so`` with the hash taken
over the source, the compiler, the flags and the machine, so an upgrade
of any of them builds a new file and never loads a stale one.  The
directory is created ``0700``; a cached file that is not a regular file
owned by the caller, or that group or others may write, is refused (it
is code about to be mapped into the process).  When the cache directory
cannot be used the build goes to a private temporary directory that is
removed at exit.

The outcome is resolved once per process (:func:`status`) — drivers do
it before forking their filter copies, which inherit the mapping.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import stat
import subprocess
import sysconfig
import tempfile
import threading
from importlib import resources
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "NativeStatus", "status", "load", "plane_histograms", "information_features",
]

#: Portable on purpose: the cache may sit on a home directory shared by
#: machines of one architecture, so nothing like ``-march=native``.
CFLAGS = ("-O2", "-shared", "-fPIC")
#: Libraries linked after the source (``information_features`` uses libm).
LDLIBS = ("-lm",)

_BUILD_TIMEOUT_S = 120


class NativeStatus(NamedTuple):
    """How the compiled pass resolved in this process."""

    lib: Optional[ctypes.CDLL]  # None when unavailable
    path: Optional[str]  # the loaded shared object
    reason: Optional[str]  # why it is unavailable


class _Unavailable(Exception):
    """Carries the ``NativeStatus.reason`` out of the build steps."""


def _compiler() -> Sequence[str]:
    """``$CC``, else the interpreter's own ``CC``, else ``cc``, as argv."""
    env = os.environ.get("CC")
    candidates = [env] if env else [sysconfig.get_config_var("CC"), "cc"]
    for cand in candidates:
        argv = shlex.split(cand or "")
        exe = shutil.which(argv[0]) if argv else None
        if exe:
            return [exe, *argv[1:]]
    raise _Unavailable("no C compiler found")


def _private_dir(path: str) -> bool:
    """True when ``path`` is (now) a directory only the caller can write."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return False
    return (
        st.st_uid == os.geteuid()
        and not st.st_mode & 0o022
        and os.access(path, os.W_OK | os.X_OK)
    )


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = os.path.join(base, "repro")
    if _private_dir(path):
        return path
    path = tempfile.mkdtemp(prefix="repro-native-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def _check_trusted(path: str) -> None:
    st = os.lstat(path)
    if not stat.S_ISREG(st.st_mode):
        raise _Unavailable(f"cache refused: {path} is not a regular file")
    if st.st_uid != os.geteuid():
        raise _Unavailable(f"cache refused: {path} is owned by uid {st.st_uid}")
    if st.st_mode & 0o022:
        raise _Unavailable(
            f"cache refused: {path} is writable by group or others"
        )


def _build(cc: Sequence[str], source: bytes, target: str) -> None:
    """Compile ``source`` to ``target`` through a temp name + rename."""
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(target), prefix=".build-", suffix=".so"
        )
    except OSError as exc:
        raise _Unavailable(f"build failed: {exc}") from None
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [*cc, *CFLAGS, "-x", "c", "-", "-o", tmp, *LDLIBS],
                input=source,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=_BUILD_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise _Unavailable(f"build failed: {exc}") from None
        if proc.returncode != 0:
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            detail = lines[0] if lines else "no diagnostics"
            raise _Unavailable(
                f"build failed: {cc[0]} exited {proc.returncode}: {detail}"
            )
        os.chmod(tmp, 0o700)  # whatever the umask, never group/other bits
        os.replace(tmp, target)  # racing builders each install a whole file
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
#: Every exported function and its argument types (all return ``int``).
_SIGNATURES = {
    "plane_histograms": [_PTR, _I64, _PTR, _I64, _I64, _PTR, _I64, _I64, _PTR],
    "information_features": [_PTR, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64],
}


def _resolve() -> NativeStatus:
    try:
        cc = _compiler()
        source = resources.files(__package__).joinpath("_native.c").read_bytes()
        key = hashlib.sha256(
            b"\0".join(
                [
                    source,
                    *(a.encode() for a in (*cc, *CFLAGS, *LDLIBS, platform.machine())),
                ]
            )
        ).hexdigest()
        path = os.path.join(_cache_dir(), key + ".so")
        if not os.path.lexists(path):
            _build(cc, source, path)
        _check_trusted(path)
        try:
            lib = ctypes.CDLL(path)
            for name, argtypes in _SIGNATURES.items():
                fn = getattr(lib, name)
                fn.argtypes = argtypes
                fn.restype = ctypes.c_int
        except (OSError, AttributeError) as exc:
            raise _Unavailable(f"build failed: cannot load {path}: {exc}")
    except _Unavailable as exc:
        return NativeStatus(None, None, str(exc))
    return NativeStatus(lib, path, None)


_lock = threading.Lock()
_status: Optional[NativeStatus] = None


def status() -> NativeStatus:
    """The process-wide outcome; the first call builds and/or loads."""
    global _status
    with _lock:
        if _status is None:
            _status = _resolve()
        return _status


def load() -> Optional[ctypes.CDLL]:
    """The loaded library, or ``None`` when the numpy passes must run."""
    return status().lib


def _int64_vector(arr: np.ndarray, name: str) -> None:
    if arr.dtype != np.int64 or arr.ndim != 1 or not arr.flags.c_contiguous:
        raise TypeError(f"{name} must be a C-contiguous 1-D int64 array")


def plane_histograms(
    lib: ctypes.CDLL,
    codes: np.ndarray,
    origins: np.ndarray,
    n_planes: int,
    face: np.ndarray,
    gg: int,
    out: np.ndarray,
) -> None:
    """``out[r, p, codes[origins[r] + p + face[f]]] += 1`` in one C pass.

    Overwrites the C-contiguous ``(len(origins), n_planes, gg)`` int64
    array ``out`` with the histograms of every pair-code hyperplane a
    block of scan rows needs.  Raises ``ValueError`` when a window would
    read outside ``codes`` or a code is outside ``[0, gg)``; the C loop
    checks both itself, so it never touches memory outside its
    arguments.
    """
    _int64_vector(codes, "codes")
    _int64_vector(origins, "origins")
    _int64_vector(face, "face")
    if (
        out.dtype != np.int64
        or out.shape != (origins.size, n_planes, gg)
        or not out.flags.c_contiguous
        or not out.flags.writeable
    ):
        raise TypeError(
            f"out must be a writable C-contiguous int64 array of shape "
            f"{(origins.size, n_planes, gg)}"
        )
    err = lib.plane_histograms(
        codes.ctypes.data, codes.size, origins.ctypes.data, origins.size,
        n_planes, face.ctypes.data, face.size, gg, out.ctypes.data,
    )
    if err == 1:
        raise ValueError("window reads outside the pair-code array")
    if err:
        raise ValueError(f"pair code outside [0, {gg})")


#: Columns of :func:`information_features`' entropy output, in order.
ENTROPIES = ("hxy", "hx", "hy", "hsum", "hdiff")


def information_features(
    lib: ctypes.CDLL, p: np.ndarray, tot: np.ndarray, with_mcc: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Entropies (and ``mcc``) of every matrix of ``p`` in one C pass.

    ``p`` is a C-contiguous float64 ``(n, G, G)`` slab of counts or
    probabilities and ``tot`` its per-matrix sums (positive).  Returns
    the ``(n, 5)`` entropies of ``p / tot``, ``px``, ``py``,
    ``p_{x+y}`` and ``p_{|x-y|}`` (columns :data:`ENTROPIES`), and the
    ``(n,)`` maximal correlation coefficients when ``with_mcc``, else
    ``None``.  The scratch the C loop works in (``O(G)``, ``O(G^2)``
    with ``mcc``) is allocated here, once per call.
    """
    if (
        p.dtype != np.float64
        or p.ndim != 3
        or p.shape[1] != p.shape[2]
        or not p.flags.c_contiguous
    ):
        raise TypeError("p must be a C-contiguous float64 (n, G, G) array")
    n, g = p.shape[0], p.shape[1]
    if tot.dtype != np.float64 or tot.shape != (n,) or not tot.flags.c_contiguous:
        raise TypeError(f"tot must be a C-contiguous float64 array of shape {(n,)}")
    ent = np.empty((n, len(ENTROPIES)))
    mcc = np.empty(n) if with_mcc else None
    scratch = np.empty(5 * g + (2 * g * g + 2 * g if with_mcc else 0))
    err = lib.information_features(
        p.ctypes.data, n, g, tot.ctypes.data, ent.ctypes.data,
        None if mcc is None else mcc.ctypes.data,
        scratch.ctypes.data, scratch.size,
    )
    if err:
        raise ValueError("information_features: scratch too short")
    return ent, mcc

"""b^e mod M on libcrypto's constant-time Montgomery ladder.

The protocol's powers at production width cost most of a round trip in
CPython's generic bignum pow; BN_mod_exp_mont_consttime does the same
power in a fraction of the time, and its run time does not follow the
exponent's bits. It comes from the libcrypto that CPython's own _hashlib
links: dlsym on the handle of _hashlib finds it, so no library name is
guessed and nothing beyond the standard library is needed. protocol
imports this module, and ctypes with it, on its first power at a
modulus wider than 64 bits.

mont_pow chooses once per modulus: a Montgomery context, built under a
lock and only read afterwards, or the built-in pow where _load finds no
_hashlib or no BN_* symbol. Each call is self-contained: fresh BIGNUMs
and a fresh BN_CTX, cleared and freed before it returns, so threads
share nothing mutable. Inverses stay with the built-in pow, which
measured no slower than BN_mod_inverse once a call allocates.
"""

import ctypes
import threading

_PTR = ctypes.c_void_p
_SIGNATURES = {  # name: (restype, argtypes)
    "BN_new": (_PTR, []),
    "BN_clear_free": (None, [_PTR]),
    "BN_bin2bn": (_PTR, [ctypes.c_char_p, ctypes.c_int, _PTR]),
    "BN_bn2binpad": (ctypes.c_int, [_PTR, ctypes.c_char_p, ctypes.c_int]),
    "BN_CTX_new": (_PTR, []),
    "BN_CTX_free": (None, [_PTR]),
    "BN_MONT_CTX_new": (_PTR, []),
    "BN_MONT_CTX_free": (None, [_PTR]),
    "BN_MONT_CTX_set": (ctypes.c_int, [_PTR, _PTR, _PTR]),
    "BN_mod_exp_mont_consttime": (ctypes.c_int, [_PTR] * 6),
}

_lock = threading.Lock()
# M -> (lib, M as a BIGNUM, its BN_MONT_CTX, a buffer type of M's byte
# width); lib is None where the built-in pow serves M. Kept for the life
# of the process.
_contexts = {}


def _load():
    """libcrypto's BN_* functions, typed, through _hashlib's handle; None
    where _hashlib or a symbol is missing."""
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        for name, (restype, argtypes) in _SIGNATURES.items():
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (ImportError, OSError, AttributeError):
        return None
    return lib


def _context(M: int) -> tuple:
    """M's entry in _contexts, made on its first power."""
    if M < 3 or M % 2 == 0:
        raise ValueError("modulus must be odd and >= 3")
    with _lock:
        if M not in _contexts:
            _contexts[M] = _montgomery(_load(), M)
        return _contexts[M]


def _montgomery(lib, M: int) -> tuple:
    width = (M.bit_length() + 7) // 8
    if lib is None:
        return None, None, None, None
    modulus = lib.BN_bin2bn(M.to_bytes(width, "big"), width, None)
    mont, ctx = lib.BN_MONT_CTX_new(), lib.BN_CTX_new()
    try:
        if not (modulus and mont and ctx
                and lib.BN_MONT_CTX_set(mont, modulus, ctx)):
            lib.BN_clear_free(modulus)
            lib.BN_MONT_CTX_free(mont)
            raise MemoryError("libcrypto could not build a Montgomery "
                              "context")
    finally:
        lib.BN_CTX_free(ctx)
    return lib, modulus, mont, ctypes.c_char * width


def mont_pow(b: int, e: int, M: int) -> int:
    """pow(b, e, M) for e >= 0 and an odd M >= 3, any int b."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    try:
        lib, modulus, mont, buffer = _contexts[M]
    except KeyError:
        lib, modulus, mont, buffer = _context(M)
    if lib is None:
        return pow(b, e, M)
    width = buffer._length_
    base = (b % M).to_bytes(width, "big")
    exponent = e.to_bytes((e.bit_length() + 7) // 8, "big")
    ctx = a = p = r = None
    try:
        ctx, r = lib.BN_CTX_new(), lib.BN_new()
        a = lib.BN_bin2bn(base, width, None)
        p = lib.BN_bin2bn(exponent, len(exponent), None)
        if not (ctx and r and a and p):
            raise MemoryError("libcrypto could not allocate a BIGNUM")
        if not lib.BN_mod_exp_mont_consttime(r, a, p, modulus, ctx, mont):
            raise MemoryError("libcrypto BN_mod_exp_mont_consttime failed")
        out = buffer()
        if lib.BN_bn2binpad(r, out, width) != width:
            raise MemoryError("libcrypto BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")
    finally:
        lib.BN_clear_free(a)
        lib.BN_clear_free(p)
        lib.BN_clear_free(r)
        lib.BN_CTX_free(ctx)

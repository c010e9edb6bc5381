"""sha256 from CPython's built-in module, ``_sha2`` (Python 3.12+) or
``_sha256`` before, which gives ``hashlib.sha256``'s digests without
loading OpenSSL: ``import hashlib`` maps libcrypto, about 3.6 MB of
resident memory in every process.  ``hashlib``'s where the interpreter
has neither."""

try:
    from _sha2 import sha256  # noqa: F401
except ImportError:
    try:
        from _sha256 import sha256  # noqa: F401
    except ImportError:
        from hashlib import sha256  # noqa: F401

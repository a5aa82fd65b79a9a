"""Roots-of-unity cryptosystem on the complex circle.

Exact cyclic-group arithmetic, fixed-point angles, the multi-valued
continuous logarithm, DH/ElGamal/signature protocols, attack experiments,
and a desk-scale operator model. ``KERNEL_BACKEND`` is a fixed label
("numpy") that perfbench's provenance line reads; it names the only kernel
implementation. Each kernel has one numpy body, whose arrays are int64 when
every intermediate fits in int64 and exact Python ints otherwise.

Importing the package loads no numpy, and neither do the protocols, which
run on exact Python ints. numpy is imported on first use: by every batch
kernel or exhaustive-scan call, by the draw reduction, and by
``circlelog.spectral``.
"""

from .contlog import (
    ContinuousLogValue,
    exponent_recovery_bound,
    log_branches,
    principal_log,
    recover_exponent,
)
from .errors import (
    AmbiguousAngle,
    CircleLogError,
    CompositeOrder,
    ConsistencyError,
    InvalidOrder,
    MessageTooLarge,
    NotPrimitive,
    OrderTooLarge,
    OutputError,
    ParamsMismatch,
    ParseError,
    ProtocolError,
    UsageError,
)
from .group import (
    ExactElement,
    GroupParams,
    NumericElement,
    complex_value,
    element,
    generator,
    identity,
    inv,
    make_params,
    mul,
    mul_numeric,
    power,
    to_numeric,
)
from .protocols import (
    Ciphertext,
    KeyPair,
    PublicKey,
    Signature,
    decode_message,
    dh_public,
    dh_shared,
    elgamal_decrypt,
    elgamal_encrypt,
    encode_message,
    keygen,
    sign,
    verify,
)

__version__ = "0.1.0"
KERNEL_BACKEND = "numpy"

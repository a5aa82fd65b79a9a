"""Roots-of-unity cryptosystem on the complex circle.

Exact cyclic-group arithmetic, fixed-point angles, the multi-valued
continuous logarithm, DH/ElGamal/signature protocols, attack experiments,
and a desk-scale operator model. ``KERNEL_BACKEND`` names the batch kernel
path ("numpy"); parameters beyond its int64 domain take exact Python ints.

Importing the package loads no numpy, and neither do the protocols, which
run on exact Python ints. numpy is imported on first use: by a batch kernel
or the exhaustive scan inside their int64 domain, by the draw reduction for
n <= 2^32, and by ``circlelog.spectral``.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
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

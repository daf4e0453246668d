"""ECC scheme registry: the line-level abstraction scrub policies consume.

Simulators and scrub policies do not care how Chien search works; they care
about four numbers per scheme:

* ``t`` - how many cell errors per line the code corrects (with Gray-coded
  levels, one drifted cell = one bit error, so bit-strength equals
  cell-strength),
* ``check_bits`` - storage overhead per line,
* ``detector_bits`` - extra bits for the lightweight detection code (0 when
  the scheme has none),
* decode-cost scaling - handled by :class:`repro.pcm.energy.OperationCosts`
  via ``t``.

``make_codec`` builds the real bit-level codec for the bit-exact engine and
tests.  SECDED is modelled line-level with ``t = 1``: the DRAM baseline
treats a second error in a line as uncorrectable, which is both the paper's
framing and the conservative bound for the per-word (72,64) layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .bch import BchCode
from .crc import CrcDetector
from .hamming import InterleavedSecded


@dataclass(frozen=True)
class EccScheme:
    """One per-line protection configuration."""

    name: str
    #: Cell/bit errors correctable per line.
    t: int
    #: ECC check bits stored per line.
    check_bits: int
    #: Lightweight-detection bits stored per line (0 = no detector).
    detector_bits: int
    #: Builds the bit-level codec for a given data length.
    make_codec: Callable[[int], object]

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if self.check_bits < 0 or self.detector_bits < 0:
            raise ValueError("bit overheads must be >= 0")

    @property
    def has_detector(self) -> bool:
        return self.detector_bits > 0

    @property
    def total_overhead_bits(self) -> int:
        """Check bits plus detector bits."""
        return self.check_bits + self.detector_bits

    def overhead_fraction(self, data_bits: int) -> float:
        """Storage overhead relative to the protected data."""
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        return self.total_overhead_bits / data_bits

    def make_detector(self) -> CrcDetector | None:
        """Lightweight detector instance, or ``None``."""
        if not self.has_detector:
            return None
        return CrcDetector(self.detector_bits)


#: Data bits per protected line throughout the reproduction (64 B).
LINE_DATA_BITS = 512
#: Detection CRC width used by detector-equipped schemes.
DETECTOR_BITS = 16


@lru_cache(maxsize=None)
def _bch_check_bits(t: int, data_bits: int = LINE_DATA_BITS) -> int:
    """Check bits of the shortened BCH used for strength ``t``.

    A pure function of its arguments, cached so scheme construction
    (every candidate of a provisioning sweep builds one) skips building
    the code and its field each time.
    """
    return BchCode(data_bits, t).check_bits


# Codec factories are module-level dataclasses rather than closures so
# that schemes — and the policies that embed them — pickle cleanly for
# the process-pool sweep path (repro.sim.parallel).


@dataclass(frozen=True)
class _BchCodecFactory:
    data_bits: int
    t: int

    def __call__(self, data_bits: int | None = None) -> BchCode:
        return BchCode(self.data_bits if data_bits is None else data_bits, self.t)


@dataclass(frozen=True)
class _SecdedCodecFactory:
    data_bits: int

    def __call__(self, data_bits: int | None = None) -> InterleavedSecded:
        return InterleavedSecded(self.data_bits if data_bits is None else data_bits)


@dataclass(frozen=True)
class _RsCodecFactory:
    data_bits: int
    t: int
    symbol_bits: int

    def __call__(self, data_bits: int | None = None):
        from .rs import RsBitCodec

        return RsBitCodec(
            self.data_bits if data_bits is None else data_bits,
            self.t,
            self.symbol_bits,
        )


def scheme_for_strength(
    t: int,
    with_detector: bool = False,
    data_bits: int = LINE_DATA_BITS,
) -> EccScheme:
    """Build a BCH-backed scheme correcting ``t`` errors per line.

    >>> scheme_for_strength(4).check_bits
    40
    """
    if t <= 0:
        raise ValueError("t must be positive")
    name = f"bch{t}" + ("+crc" if with_detector else "")
    return EccScheme(
        name=name,
        t=t,
        check_bits=_bch_check_bits(t, data_bits),
        detector_bits=DETECTOR_BITS if with_detector else 0,
        make_codec=_BchCodecFactory(data_bits, t),
    )


def secded_scheme(with_detector: bool = False, data_bits: int = LINE_DATA_BITS) -> EccScheme:
    """The DRAM baseline: per-word (72,64) SECDED, line-level t = 1."""
    words = data_bits // 64
    name = "secded" + ("+crc" if with_detector else "")
    return EccScheme(
        name=name,
        t=1,
        check_bits=8 * words,
        detector_bits=DETECTOR_BITS if with_detector else 0,
        make_codec=_SecdedCodecFactory(data_bits),
    )


def rs_scheme(
    t: int,
    with_detector: bool = False,
    data_bits: int = LINE_DATA_BITS,
    symbol_bits: int = 8,
) -> EccScheme:
    """Reed-Solomon scheme correcting ``t`` symbol errors per line.

    Line-level ``t`` maps symbol correction conservatively onto cell
    errors: each drifted cell lands in some symbol, so ``t`` symbol
    corrections absorb at least ``t`` cell errors (more when errors
    cluster within symbols - the bit-exact engine captures that upside).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    name = f"rs{t}" + ("+crc" if with_detector else "")
    return EccScheme(
        name=name,
        t=t,
        check_bits=2 * t * symbol_bits,
        detector_bits=DETECTOR_BITS if with_detector else 0,
        make_codec=_RsCodecFactory(data_bits, t, symbol_bits),
    )


def _build_registry() -> dict[str, EccScheme]:
    registry: dict[str, EccScheme] = {}
    for with_detector in (False, True):
        scheme = secded_scheme(with_detector)
        registry[scheme.name] = scheme
        for t in (1, 2, 3, 4, 6, 8):
            scheme = scheme_for_strength(t, with_detector)
            registry[scheme.name] = scheme
        for t in (2, 4, 8):
            scheme = rs_scheme(t, with_detector)
            registry[scheme.name] = scheme
    return registry


#: All registered schemes by name ("secded", "bch4", "bch8+crc", ...).
SCHEMES: dict[str, EccScheme] = _build_registry()


def get_scheme(name: str) -> EccScheme:
    """Look up a scheme by its registry name.

    >>> get_scheme("bch8").t
    8
    """
    try:
        return SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"unknown ECC scheme {name!r}; available: {sorted(SCHEMES)}"
        ) from None

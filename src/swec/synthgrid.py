"""Seed-deterministic synthetic feeder events on the monitored-bus set.

Replaces a hardware simulator with analytic three-phase voltage models for
four event classes: capacitor-bank switching (damped high-frequency ring),
transformer energization (decaying inrush harmonics, sag, connection surge,
per-cycle saturation notching), faults (step sag with inception transient
and sustained arcing), and high-impedance faults (sub-threshold arc
distortion with per-half-cycle randomness). Disturbances originate at an
event bus and reach each monitored bus through a fixed attenuation table
standing in for feeder impedances.

Every record is a pure function of (spec, fs, seed): the measurement noise,
the arc randomness, and the window-detection jitter each consume an
independent seeded stream, so repeated generation is bit-identical and
record generation can be scheduled in any order. A Dataset is its
DatasetConfig plus one stacked (records, buses, phases, samples) array;
each record's spec and seed derive from the config, so a dataset directory
stores the config, the array and the sha256 of each, and nothing per record.
A record's post-detection window is a (buses, phases, W) view of its
samples.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

F0 = 60.0  # nominal system frequency, Hz

MONITORED_BUSES = (632, 671, 675)
FAULT_LOCATIONS = (632, 634, 675, 680)
HIF_LOCATIONS = (632, 675, 680)
CAP_BUS = 675   # capacitor bank location
XFMR_BUS = 634  # transformer secondary location

# Per monitored bus: steady-state amplitude (pu) and phase offset (rad).
# Small spread gives each bus a recognizable spatial signature.
BUS_AMPLITUDE = {632: 1.00, 671: 0.97, 675: 0.94}
BUS_PHASE = {632: 0.0, 671: -0.07, 675: -0.14}

# Event bus -> disturbance attenuation seen at (632, 671, 675); values decay
# with electrical distance on the feeder.
ATTENUATION = {
    632: (1.00, 0.85, 0.61),
    634: (0.72, 0.61, 0.44),
    671: (0.85, 1.00, 0.72),
    675: (0.61, 0.72, 1.00),
    680: (0.72, 0.85, 0.61),
}

PHASE_OFFSETS = (0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0)

# Additive transients couple into the three phases unevenly (distinct
# amplitude and point-on-wave per phase); a perfectly balanced additive term
# would be zero-sequence and vanish from the alpha-mode signal downstream.
PHASE_COUPLING = (1.0, 0.7, 0.55)

# Event severity varies record to record (network state, switching scatter):
# every disturbance is scaled by a seeded draw from this range.
SEVERITY_RANGE = (0.7, 1.3)

DEFAULT_DURATION = 0.15   # 9 cycles
DEFAULT_EVENT_TIME = 0.05
DEFAULT_SNR_DB = 60.0
JITTER_MAX_S = 0.5e-3     # detection latency bound

# Capacitor-size index (0..7) maps onto oscillation frequency and damping.
# The ring frequency sits in the upper kHz range so a 20 kHz unit resolves
# it while the slowest sweep rates alias it away.
CAP_SIZE_LEVELS = 8
CAP_FOSC_RANGE = (6500.0, 9500.0)
CAP_TAU_RANGE = (0.010, 0.004)  # seconds, index 0 -> slow decay
CAP_DEFAULT_AMPLITUDE = 0.25

# Transformer tap index (0..11) scales harmonic content, the connection
# surge, saturation notching, sag, and decay.
TAP_LEVELS = 12
XFMR_HARMONICS = ((2, 0.05), (3, 0.04), (5, 0.025))
XFMR_SAG_MAX = 0.05
XFMR_DECAY_CYCLES = (3.0, 6.0)
XFMR_SURGE_AMPLITUDE = 0.07
XFMR_SURGE_FREQ_RANGE = (3500.0, 5000.0)
XFMR_SURGE_TAU = 1.8e-3
XFMR_NOTCH_DEPTH = 0.07
XFMR_NOTCH_WIDTH = 0.4e-3  # one dip per cycle while the core saturates

# Fault sag depth by (location, resistance index); column 5 is the
# open-circuit calibration point. Rows non-increasing in resistance.
FAULT_TYPES = ("LG", "LL", "LLG", "LLLG")
FAULT_DEPTH_TABLE = {
    632: (0.70, 0.55, 0.42, 0.28, 0.16, 0.0),
    634: (0.60, 0.48, 0.36, 0.24, 0.14, 0.0),
    675: (0.65, 0.52, 0.39, 0.26, 0.15, 0.0),
    680: (0.55, 0.44, 0.33, 0.22, 0.12, 0.0),
}
FAULT_RESISTANCE_LEVELS = 6  # index 5 = open circuit
FAULT_PHASES = {"LG": (0,), "LL": (0, 1), "LLG": (0, 1), "LLLG": (0, 1, 2)}
FAULT_TYPE_FACTOR = {"LG": 1.0, "LL": 0.8, "LLG": 0.95, "LLLG": 0.9}
FAULT_TRANSIENT_AMPLITUDE = 0.03  # at full table depth
FAULT_TRANSIENT_TAU = 0.6e-3
FAULT_TRANSIENT_FREQ_RANGE = (7000.0, 9000.0)  # varies with fault resistance
FAULT_ARC_NOISE = 0.012  # sustained arcing texture, scales with sag depth

# HIF arc model: odd-harmonic distortion with per-half-cycle randomness plus
# small reignition pulses at the half-cycle boundaries. Kept sub-threshold
# (< 2% of nominal) by construction.
HIF_DRAW_LEVELS = 6
HIF_DISTORTION_BASE = 0.012
HIF_DISTORTION_SPAN = 0.003
HIF_NEG_HALF_FACTOR = 0.6
HIF_PULSE_AMPLITUDE = 0.018
HIF_PULSE_TAU = 0.5e-3
HIF_PULSE_FREQ = 6000.0

# Independent stream tags for the per-record substreams.
_STREAM_NOISE = 1
_STREAM_EVENT = 2
_STREAM_JITTER = 3
_STREAM_SEVERITY = 4


class EventClass(IntEnum):
    CAPACITOR_SWITCHING = 1
    TRANSFORMER_ENERGIZATION = 2
    FAULT = 3
    HIF = 4


NUM_CLASSES = len(EventClass)

_EXPECTED_PARAMS = {
    EventClass.CAPACITOR_SWITCHING: {"size_index", "amplitude"},
    EventClass.TRANSFORMER_ENERGIZATION: {"tap_index"},
    EventClass.FAULT: {"fault_type", "resistance_index"},
    EventClass.HIF: {"draw_index"},
}


@dataclass(frozen=True)
class EventSpec:
    """Full description of one event to synthesize."""

    event_class: EventClass
    inception_angle: float  # degrees in [0, 360)
    location: int
    class_params: dict
    event_time: float = DEFAULT_EVENT_TIME

    def __post_init__(self):
        cls = EventClass(self.event_class)
        object.__setattr__(self, "event_class", cls)
        if not 0.0 <= self.inception_angle < 360.0:
            raise ValueError(f"inception angle {self.inception_angle} outside [0, 360)")
        if self.location not in ATTENUATION:
            raise ValueError(f"unknown event location {self.location}")
        expected = _EXPECTED_PARAMS[cls]
        got = set(self.class_params)
        if got != expected:
            raise ValueError(
                f"{cls.name} expects params {sorted(expected)}, got {sorted(got)}"
            )
        p = self.class_params
        if cls is EventClass.CAPACITOR_SWITCHING:
            if not 0 <= p["size_index"] < CAP_SIZE_LEVELS:
                raise ValueError(f"size_index {p['size_index']} outside 0..{CAP_SIZE_LEVELS - 1}")
            if p["amplitude"] < 0:
                raise ValueError("oscillation amplitude must be >= 0")
        elif cls is EventClass.TRANSFORMER_ENERGIZATION:
            if not 0 <= p["tap_index"] < TAP_LEVELS:
                raise ValueError(f"tap_index {p['tap_index']} outside 0..{TAP_LEVELS - 1}")
        elif cls is EventClass.FAULT:
            if self.location not in FAULT_LOCATIONS:
                raise ValueError(f"fault location {self.location} not in {FAULT_LOCATIONS}")
            if p["fault_type"] not in FAULT_TYPES:
                raise ValueError(f"unknown fault type {p['fault_type']!r}")
            if not 0 <= p["resistance_index"] < FAULT_RESISTANCE_LEVELS:
                raise ValueError(
                    f"resistance_index {p['resistance_index']} outside "
                    f"0..{FAULT_RESISTANCE_LEVELS - 1}"
                )
        elif cls is EventClass.HIF:
            if not 0 <= p["draw_index"]:
                raise ValueError("draw_index must be >= 0")


@dataclass(frozen=True)
class WaveformRecord:
    """Sampled three-phase voltages at the monitored buses, in per-unit.

    samples has shape (len(MONITORED_BUSES), 3, N) in ascending bus-id order;
    spec is None for a pure steady-state record.
    """

    spec: EventSpec | None
    fs: float
    duration: float
    samples: np.ndarray
    seed: int

    @property
    def event_time(self) -> float:
        return self.spec.event_time if self.spec is not None else DEFAULT_EVENT_TIME

    @property
    def label(self) -> int | None:
        return int(self.spec.event_class) if self.spec is not None else None

    @property
    def num_samples(self) -> int:
        return self.samples.shape[2]


# ── Config documents ─────────────────────────────────────────────────────────

class ConfigError(ValueError):
    """Raised when a dataset or experiment configuration is inconsistent."""


def dataclass_to_json(value):
    """Dataclass -> JSON-ready value: fields in declaration order, tuples as
    lists, recursively."""
    if is_dataclass(value):
        return {f.name: dataclass_to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [dataclass_to_json(v) for v in value]
    return value


def dataclass_from_json(cls, obj, where: str = ""):
    """Inverse of dataclass_to_json. Missing fields keep their defaults, and
    each value must have the type of its field's default (an int is accepted
    and kept where the default is a float); unknown keys and wrong types raise
    ConfigError naming the dotted field."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or cls.__name__}: expected an object, "
                          f"got {type(obj).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigError(f"{where or cls.__name__}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in obj.items():
        f = known[name]
        default = f.default_factory() if f.default is MISSING else f.default
        kwargs[name] = _typed(value, default, f"{where}.{name}" if where else name)
    return cls(**kwargs)


def _typed(value, like, where: str):
    """value checked against the example value `like`, tuples restored."""
    if is_dataclass(like):
        return dataclass_from_json(type(like), value, where)
    if isinstance(like, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        return tuple(_typed(v, like[0], f"{where}[{i}]") for i, v in enumerate(value))
    kinds = (int, float) if type(like) is float else (type(like),)
    if isinstance(value, bool) != isinstance(like, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{where}: expected {type(like).__name__}, "
                          f"got {type(value).__name__} {value!r}")
    return value


# ── Grids and dataset configuration ──────────────────────────────────────────

def _even_angles(k: int) -> tuple[float, ...]:
    return tuple(360.0 * j / k for j in range(k))


@dataclass(frozen=True)
class DatasetGrids:
    """Factorized parameter grids behind the per-class record counts."""

    cap_sizes: int = 8
    cap_angles: int = 8
    cap_amplitude: float = CAP_DEFAULT_AMPLITUDE
    xfmr_taps: int = 12
    xfmr_angles: int = 12
    fault_types: tuple = FAULT_TYPES
    fault_locations: tuple = FAULT_LOCATIONS
    fault_resistances: int = 5  # finite-resistance indices 0..4
    fault_angles: int = 4
    hif_locations: tuple = HIF_LOCATIONS
    hif_angles: int = 4
    hif_draws: int = 6
    declared_counts: tuple = (64, 144, 320, 72)

    def __post_init__(self):
        if self.cap_sizes > CAP_SIZE_LEVELS or self.xfmr_taps > TAP_LEVELS:
            raise ConfigError("grid exceeds the canonical parameter levels")
        if self.fault_resistances > FAULT_RESISTANCE_LEVELS - 1:
            raise ConfigError("finite fault resistance grid exceeds table columns")
        counts = self.counts
        if counts != tuple(self.declared_counts):
            raise ConfigError(
                f"grid products {counts} do not match declared counts "
                f"{tuple(self.declared_counts)}"
            )

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (
            self.cap_sizes * self.cap_angles,
            self.xfmr_taps * self.xfmr_angles,
            len(self.fault_types) * len(self.fault_locations)
            * self.fault_resistances * self.fault_angles,
            len(self.hif_locations) * self.hif_angles * self.hif_draws,
        )

    def specs(self, event_time: float = DEFAULT_EVENT_TIME) -> list[EventSpec]:
        """Expand the grids into the full ordered spec list (class 1..4)."""
        out = []
        for size in range(self.cap_sizes):
            for ang in _even_angles(self.cap_angles):
                out.append(EventSpec(
                    EventClass.CAPACITOR_SWITCHING, ang, CAP_BUS,
                    {"size_index": size, "amplitude": self.cap_amplitude},
                    event_time,
                ))
        for tap in range(self.xfmr_taps):
            for ang in _even_angles(self.xfmr_angles):
                out.append(EventSpec(
                    EventClass.TRANSFORMER_ENERGIZATION, ang, XFMR_BUS,
                    {"tap_index": tap}, event_time,
                ))
        for ftype in self.fault_types:
            for loc in self.fault_locations:
                for res in range(self.fault_resistances):
                    for ang in _even_angles(self.fault_angles):
                        out.append(EventSpec(
                            EventClass.FAULT, ang, loc,
                            {"fault_type": ftype, "resistance_index": res},
                            event_time,
                        ))
        for loc in self.hif_locations:
            for ang in _even_angles(self.hif_angles):
                for draw in range(self.hif_draws):
                    out.append(EventSpec(
                        EventClass.HIF, ang, loc, {"draw_index": draw}, event_time,
                    ))
        return out


@dataclass(frozen=True)
class DatasetConfig:
    fs: float = 20000.0
    seed: int = 0
    snr_db: float = DEFAULT_SNR_DB
    duration: float = DEFAULT_DURATION
    event_time: float = DEFAULT_EVENT_TIME
    amplitude: float = 1.0
    grids: DatasetGrids = field(default_factory=DatasetGrids)

    def __post_init__(self):
        if not (math.isfinite(self.snr_db) or self.snr_db == math.inf):
            raise ConfigError(f"snr_db {self.snr_db}: must be finite or +inf "
                              f"(noiseless)")


@dataclass(frozen=True)
class Dataset:
    """A config plus its stacked samples: one C-contiguous (records, buses,
    phases, samples) float64 array. Everything per record is derived from
    the config: record i has spec config.grids.specs(event_time)[i] and seed
    record_seed(config.seed, i), and its samples are the view samples[i]."""

    config: DatasetConfig
    samples: np.ndarray

    def __len__(self) -> int:
        return len(self.samples)

    @functools.cached_property
    def records(self) -> list[WaveformRecord]:
        cfg = self.config
        specs = cfg.grids.specs(cfg.event_time)
        return [WaveformRecord(spec, cfg.fs, cfg.duration, samples,
                               record_seed(cfg.seed, i))
                for i, (spec, samples) in enumerate(zip(specs, self.samples,
                                                        strict=True))]

    @functools.cached_property
    def labels(self) -> np.ndarray:
        labels = np.array([r.label for r in self.records], dtype=int)
        labels.flags.writeable = False
        return labels

    @property
    def fs(self) -> float:
        return self.config.fs

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def counts(self) -> tuple:
        return self.config.grids.counts


# ── Generation ───────────────────────────────────────────────────────────────

def _validate_timing(fs: float, duration: float, event_time: float | None = None):
    if fs < 1000.0:
        raise ValueError(f"sampling rate {fs} Hz below the 1 kHz minimum")
    if duration < 0.1:
        raise ValueError(f"duration {duration} s below the 0.1 s minimum")
    if event_time is not None:
        cycle = 1.0 / F0
        if not cycle < event_time < duration - 2.0 * cycle:
            raise ValueError(
                f"event time {event_time} s outside ({cycle:.4f}, "
                f"{duration - 2 * cycle:.4f})"
            )


def _validate_amplitude(amplitude: float):
    low = amplitude * min(BUS_AMPLITUDE.values())
    high = amplitude * max(BUS_AMPLITUDE.values())
    if not (0.9 <= low and high <= 1.1):
        raise ValueError(f"amplitude {amplitude} drives buses outside [0.9, 1.1] pu")


@functools.lru_cache(maxsize=8)
def _clean_base(fs: float, duration: float, amplitude: float) -> np.ndarray:
    """Noiseless balanced steady state, shape (buses, phases, samples);
    computed once per (fs, duration, amplitude) and returned read-only."""
    n = round(fs * duration)
    t = np.arange(n) / fs
    out = np.empty((len(MONITORED_BUSES), 3, n))
    for b, bus in enumerate(MONITORED_BUSES):
        for p, phase_off in enumerate(PHASE_OFFSETS):
            out[b, p] = amplitude * BUS_AMPLITUDE[bus] * np.cos(
                2.0 * math.pi * F0 * t + phase_off + BUS_PHASE[bus]
            )
    out.flags.writeable = False
    return out


def _noise(seed: int, snr_db: float, amplitude: float, n: int) -> np.ndarray:
    """Additive white Gaussian noise sized to the per-bus signal power."""
    if math.isinf(snr_db):
        return np.zeros((len(MONITORED_BUSES), 3, n))
    rng = np.random.default_rng([seed, _STREAM_NOISE])
    raw = rng.standard_normal((len(MONITORED_BUSES), 3, n))
    amps = np.array([amplitude * BUS_AMPLITUDE[b] for b in MONITORED_BUSES])
    sigma = (amps / math.sqrt(2.0)) * 10.0 ** (-snr_db / 20.0)
    return raw * sigma[:, None, None]


def synth_steady(
    fs: float,
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
    snr_db: float = DEFAULT_SNR_DB,
    amplitude: float = 1.0,
) -> WaveformRecord:
    """Balanced 60 Hz three-phase steady state at all monitored buses."""
    _validate_timing(fs, duration)
    _validate_amplitude(amplitude)
    clean = _clean_base(fs, duration, amplitude)
    samples = clean + _noise(seed, snr_db, amplitude, clean.shape[2])
    return WaveformRecord(None, fs, duration, samples, seed)


def _attenuation_column(location: int) -> np.ndarray:
    return np.array(ATTENUATION[location])[:, None, None]


def _phase_burst(t, t0, amplitude, freq, tau, theta):
    """Damped oscillation from t0, one row per phase with its own coupling
    weight and point-on-wave, shape (3, len(t))."""
    u = np.maximum(t - t0, 0.0)
    envelope = np.where(t - t0 >= 0.0, amplitude * np.exp(-u / tau), 0.0)
    out = np.empty((3, t.size))
    for p_idx, (weight, phase_off) in enumerate(zip(PHASE_COUPLING, PHASE_OFFSETS)):
        out[p_idx] = weight * envelope * np.sin(
            2.0 * math.pi * freq * u + theta + phase_off
        )
    return out


def _apply_cap_switching(clean, spec, t):
    p = spec.class_params
    frac = p["size_index"] / (CAP_SIZE_LEVELS - 1)
    f_osc = CAP_FOSC_RANGE[0] + frac * (CAP_FOSC_RANGE[1] - CAP_FOSC_RANGE[0])
    tau = CAP_TAU_RANGE[0] + frac * (CAP_TAU_RANGE[1] - CAP_TAU_RANGE[0])
    theta = math.radians(spec.inception_angle)
    ring = _phase_burst(t, spec.event_time, p["amplitude"], f_osc, tau, theta)
    return clean + _attenuation_column(spec.location) * ring[None, :, :]


def _apply_xfmr_energization(clean, spec, t):
    tap = spec.class_params["tap_index"]
    frac = tap / (TAP_LEVELS - 1)
    theta = math.radians(spec.inception_angle)
    cycles = XFMR_DECAY_CYCLES[0] + frac * (XFMR_DECAY_CYCLES[1] - XFMR_DECAY_CYCLES[0])
    tau = cycles / F0
    u = t - spec.event_time
    active = u >= 0.0
    envelope = np.where(active, np.exp(-np.maximum(u, 0.0) / tau), 0.0)
    atten = _attenuation_column(spec.location)

    sag = XFMR_SAG_MAX * (0.3 + 0.7 * frac)
    out = clean * (1.0 - sag * atten * envelope[None, None, :])
    scale = 0.4 + 0.6 * frac
    for p_idx, phase_off in enumerate(PHASE_OFFSETS):
        angle_base = 2.0 * math.pi * F0 * t + phase_off
        ripple = np.zeros_like(t)
        for order, base_amp in XFMR_HARMONICS:
            ripple += base_amp * scale * np.cos(order * angle_base + theta)
        out[:, p_idx, :] += atten[:, 0, :] * envelope * ripple

    # connection surge at the energization instant
    f_surge = XFMR_SURGE_FREQ_RANGE[0] + frac * (
        XFMR_SURGE_FREQ_RANGE[1] - XFMR_SURGE_FREQ_RANGE[0]
    )
    surge = _phase_burst(t, spec.event_time,
                         XFMR_SURGE_AMPLITUDE * (0.5 + 0.5 * frac),
                         f_surge, XFMR_SURGE_TAU, theta)
    out += atten * surge[None, :, :]

    # one narrow saturation notch per cycle while the inrush decays
    notch = np.zeros_like(t)
    width = XFMR_NOTCH_WIDTH
    k = 0
    while True:
        t_k = spec.event_time + k / F0
        if t_k > t[-1]:
            break
        local = np.abs(t - t_k) < width / 2.0
        shape = 0.5 * (1.0 + np.cos(2.0 * math.pi * (t[local] - t_k) / width))
        notch[local] += math.exp(-k / (F0 * tau)) * shape
        k += 1
    depth = XFMR_NOTCH_DEPTH * (0.4 + 0.6 * frac) * (0.75 + 0.25 * math.cos(theta))
    out *= 1.0 - depth * atten * notch[None, None, :]
    return out


def _apply_fault(clean, spec, t, seed):
    p = spec.class_params
    depth = FAULT_DEPTH_TABLE[spec.location][p["resistance_index"]]
    depth *= FAULT_TYPE_FACTOR[p["fault_type"]]
    theta = math.radians(spec.inception_angle)
    u = t - spec.event_time
    step = (u >= 0.0).astype(float)
    atten = _attenuation_column(spec.location)

    phase_mask = np.zeros((1, 3, 1))
    for p_idx in FAULT_PHASES[p["fault_type"]]:
        phase_mask[0, p_idx, 0] = 1.0
    out = clean * (1.0 - depth * atten * phase_mask * step[None, None, :])

    # short arc transient at inception, proportional to sag depth
    res = p["resistance_index"]
    f_tr = FAULT_TRANSIENT_FREQ_RANGE[0] + res / (FAULT_RESISTANCE_LEVELS - 2) * (
        FAULT_TRANSIENT_FREQ_RANGE[1] - FAULT_TRANSIENT_FREQ_RANGE[0]
    )
    tr_amp = FAULT_TRANSIENT_AMPLITUDE * depth / FAULT_DEPTH_TABLE[632][0]
    burst = _phase_burst(t, spec.event_time, tr_amp, f_tr,
                         FAULT_TRANSIENT_TAU, theta)
    out += atten * phase_mask * burst[None, :, :]

    # sustained wideband arcing while the fault persists, scaled with depth
    rng = np.random.default_rng([seed, _STREAM_EVENT])
    texture = rng.standard_normal((1, 3, t.size))
    rel = depth / FAULT_DEPTH_TABLE[632][0]
    sigma = FAULT_ARC_NOISE * (0.3 + 0.7 * math.sqrt(rel)) * (rel > 0)
    out += sigma * atten * phase_mask * step[None, None, :] * texture
    return out


def _apply_hif(clean, spec, t, seed, amplitude):
    p = spec.class_params
    draw = p["draw_index"]
    theta = math.radians(spec.inception_angle)
    rng = np.random.default_rng([seed, _STREAM_EVENT, draw])
    u = t - spec.event_time
    active = u >= 0.0
    atten = _attenuation_column(spec.location)

    n_half = int(math.ceil(2.0 * F0 * (t[-1] - spec.event_time))) + 2
    gains = rng.uniform(0.6, 1.0, size=n_half)
    pulse_gains = rng.uniform(0.5, 1.0, size=n_half)

    # half-cycle index of each active sample, counted from the inception
    k = np.clip(np.floor(2.0 * F0 * np.maximum(u, 0.0)).astype(int), 0, n_half - 1)
    g = np.where(active, gains[k], 0.0)

    amp_d = HIF_DISTORTION_BASE + HIF_DISTORTION_SPAN * (draw % HIF_DRAW_LEVELS) / (
        HIF_DRAW_LEVELS - 1
    )
    bus_amps = np.array(
        [amplitude * BUS_AMPLITUDE[b] for b in MONITORED_BUSES]
    )[:, None, None]
    v_norm = clean / bus_amps
    shape = 0.6 * v_norm ** 3 + 0.4 * v_norm ** 5
    asym = np.where(v_norm >= 0.0, 1.0, HIF_NEG_HALF_FACTOR)
    # a downed or leaning conductor arcs on one phase
    phase_mask = np.zeros((1, 3, 1))
    phase_mask[0, 0, 0] = 1.0
    out = clean - amp_d * atten * phase_mask * asym * shape * g[None, None, :]

    # arc reignition clicks every half cycle; alternating strength set by
    # the inception angle
    pulse = np.zeros_like(t)
    for kk in range(n_half):
        t_k = spec.event_time + kk / (2.0 * F0)
        if t_k >= t[-1]:
            break
        w = t - t_k
        live = w >= 0.0
        side = 1.0 + 0.3 * math.cos(theta) * (1.0 if kk % 2 == 0 else -1.0)
        pulse += np.where(
            live,
            HIF_PULSE_AMPLITUDE * pulse_gains[kk] * side
            * np.exp(-np.maximum(w, 0.0) / HIF_PULSE_TAU)
            * np.sin(2.0 * math.pi * HIF_PULSE_FREQ * np.maximum(w, 0.0)),
            0.0,
        )
    out += atten * phase_mask * pulse[None, None, :]
    return out


def synth_event(
    spec: EventSpec,
    fs: float,
    seed: int = 0,
    snr_db: float = DEFAULT_SNR_DB,
    duration: float = DEFAULT_DURATION,
    amplitude: float = 1.0,
) -> WaveformRecord:
    """Steady-state base plus the class-specific disturbance model."""
    _validate_timing(fs, duration, spec.event_time)
    _validate_amplitude(amplitude)
    clean = _clean_base(fs, duration, amplitude)
    n = clean.shape[2]
    t = np.arange(n) / fs

    cls = spec.event_class
    if cls is EventClass.CAPACITOR_SWITCHING:
        disturbed = _apply_cap_switching(clean, spec, t)
    elif cls is EventClass.TRANSFORMER_ENERGIZATION:
        disturbed = _apply_xfmr_energization(clean, spec, t)
    elif cls is EventClass.FAULT:
        disturbed = _apply_fault(clean, spec, t, seed)
    else:
        disturbed = _apply_hif(clean, spec, t, seed, amplitude)

    severity = np.random.default_rng([seed, _STREAM_SEVERITY]).uniform(
        *SEVERITY_RANGE
    )
    samples = clean + severity * (disturbed - clean) + _noise(seed, snr_db, amplitude, n)
    return WaveformRecord(spec, fs, duration, samples, seed)


def record_seed(global_seed: int, index: int) -> int:
    """Stable per-record seed; independent of generation order."""
    return int(np.random.SeedSequence([global_seed, index]).generate_state(1, np.uint64)[0])


def build_dataset(config: DatasetConfig) -> Dataset:
    """Expand the configured grids into the full labeled record set, each
    record synthesized straight into its slot of one stacked array."""
    dataset = Dataset(config, np.empty(_samples_shape(config)))
    for rec in dataset.records:
        # `event` stays alive until the next record's synthesis returns. Freed
        # at once, its block lets malloc give the heap top back to the OS and
        # the next record faults those pages in again: 140k against 51k minor
        # faults, about 0.15 s, per 600-record 20 kHz build on 2 cores.
        event = synth_event(rec.spec, config.fs, rec.seed, snr_db=config.snr_db,
                            duration=config.duration, amplitude=config.amplitude)
        rec.samples[...] = event.samples
    return dataset


def _samples_shape(config: DatasetConfig) -> tuple:
    """(records, buses, phases, samples) of the config's stacked array."""
    return (sum(config.grids.counts), len(MONITORED_BUSES), 3,
            round(config.fs * config.duration))


# ── Post-detection window ────────────────────────────────────────────────────

def window_length(fs: float) -> int:
    """Even one-cycle window size: 2 * floor(fs / 120)."""
    return 2 * int(math.floor(fs / 120.0))


def extract_window(record: WaveformRecord, jitter: bool = True) -> np.ndarray:
    """One nominal cycle at every monitored bus from the (jittered) event
    time: the (buses, 3, W) view record.samples[:, :, start:start + W].

    The jitter models detection latency, drawn uniformly from [0, 0.5] ms
    out of the record's seed.
    """
    w = window_length(record.fs)
    offset = 0.0
    if jitter:
        rng = np.random.default_rng([record.seed, _STREAM_JITTER])
        offset = rng.uniform(0.0, JITTER_MAX_S)
    start = round((record.event_time + offset) * record.fs)
    if start + w > record.num_samples:
        raise ValueError(
            f"window [{start}, {start + w}) exceeds record length "
            f"{record.num_samples}"
        )
    return record.samples[:, :, start:start + w]


# ── Dataset directory persistence ────────────────────────────────────────────

SCHEMA_VERSION = 4
WAVEFORMS_FILE = "waveforms.npy"


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write manifest.json, the dataset's config plus the sha256 of the
    config and of its samples, and waveforms.npy, the samples as one
    little-endian float64 .npy array."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        **dataclass_to_json(dataset.config),
        "config_sha256": config_sha256(dataset.config),
        "waveforms_sha256": waveforms_sha256(dataset.samples),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    np.save(out / WAVEFORMS_FILE, dataset.samples)
    return out


def config_sha256(config: DatasetConfig) -> str:
    """sha256 of the json.dumps text of the config's JSON form."""
    return hashlib.sha256(json.dumps(dataclass_to_json(config)).encode()).hexdigest()


def waveforms_sha256(samples: np.ndarray) -> str:
    """sha256 of the little-endian float64 bytes of samples in C order."""
    return hashlib.sha256(np.ascontiguousarray(samples, dtype="<f8")).hexdigest()


def load_dataset(in_dir) -> Dataset:
    """Inverse of save_dataset; waveform values round-trip bit-identically.
    The schema version is checked first; then every DatasetConfig key and
    both digests are required and typed, the records are derived from the
    config as build_dataset derives them, and the config must match its
    digest; a violation is a ValueError naming the manifest (and the key).
    waveforms.npy must be a readable .npy array of dtype <f8 and shape
    (records, buses, 3, round(fs * duration)) whose sha256 matches the
    manifest and whose values are all finite; a violation is a ValueError
    naming the file (and the record, for a non-finite value)."""
    root = Path(in_dir)
    manifest_path = root / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise FileNotFoundError(f"no manifest.json under {root}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{manifest_path}: malformed manifest: {exc}") from exc

    def require(obj, keys, where):
        if not isinstance(obj, dict):
            raise ValueError(f"{manifest_path}: {where}expected an object, "
                             f"got {type(obj).__name__}")
        for key in keys:
            if key not in obj:
                raise ValueError(f"{manifest_path}: {where}missing key {key!r}")

    require(manifest, ["schema_version"], "")
    if manifest["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"{manifest_path}: unsupported schema_version "
            f"{manifest['schema_version']!r} (expected {SCHEMA_VERSION}); "
            f"re-run `swec generate` to rebuild the dataset from its seed"
        )
    config_keys = [f.name for f in fields(DatasetConfig)]
    require(manifest, [*config_keys, "config_sha256", "waveforms_sha256"], "")
    require(manifest["grids"], [f.name for f in fields(DatasetGrids)], "grids: ")
    try:
        cfg = dataclass_from_json(DatasetConfig, {k: manifest[k] for k in config_keys})
    except ConfigError as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from None
    dataset = Dataset(cfg, _load_waveforms(root / WAVEFORMS_FILE,
                                           manifest["waveforms_sha256"],
                                           _samples_shape(cfg)))
    try:
        dataset.records  # derived now, so that a bad config value names the manifest
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None
    if config_sha256(cfg) != manifest["config_sha256"]:
        raise ValueError(f"{manifest_path}: config differs from its config_sha256")
    return dataset


def _load_waveforms(path: Path, sha256: str, shape: tuple) -> np.ndarray:
    """The stacked samples in path, checked against the manifest's digest
    and the expected shape; every failure is a ValueError naming path."""
    try:
        samples = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise ValueError(f"{path}: missing waveform array") from None
    except (OSError, ValueError, EOFError) as exc:
        raise ValueError(f"{path}: unreadable waveform array: {exc}") from None
    if not isinstance(samples, np.ndarray):  # an .npz archive
        samples.close()
        raise ValueError(f"{path}: not a single .npy array")
    if samples.dtype != np.dtype("<f8"):
        raise ValueError(f"{path}: dtype {samples.dtype.str}, expected <f8")
    if samples.shape != shape:
        raise ValueError(f"{path}: shape {samples.shape}, expected {shape}")
    samples = np.ascontiguousarray(samples)
    if waveforms_sha256(samples) != sha256:
        raise ValueError(f"{path}: sha256 differs from the manifest's "
                         f"waveforms_sha256")
    for i, record in enumerate(samples):
        if not np.isfinite(record).all():
            raise ValueError(f"{path}: record {i}: non-finite value")
    return samples

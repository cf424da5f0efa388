"""Seed-deterministic synthetic feeder events on the monitored-bus set.

Replaces a hardware simulator with analytic three-phase voltage models for
four event classes: capacitor-bank switching (damped high-frequency ring),
transformer energization (decaying inrush harmonics, sag, connection surge,
per-cycle saturation notching), faults (step sag with inception transient
and sustained arcing), and high-impedance faults (sub-threshold arc
distortion with per-half-cycle randomness). Disturbances originate at an
event bus and reach each monitored bus through a fixed attenuation table
standing in for feeder impedances. Every class model has one signature
and reads one cached, read-only record axis per sampling rate: the sample
times, the time since the event and its onset mask, each phase's angle, the
clean steady state and HIF's arc terms.

Every record is a pure function of (spec, fs, seed): the measurement noise,
the arc randomness, and the window-detection jitter each consume an
independent seeded stream, so repeated generation is bit-identical and
record generation can be scheduled in any order. A Dataset is its
DatasetConfig plus one stacked (records, buses, phases, samples) array;
each record's spec and seed derive from the config, so a dataset file (one
swec.store tensor file) holds the config and the array, and nothing per
record. A record's post-detection window is a (buses, phases, W) view of its
samples.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .store import TensorFileReader, write_tensor_file

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
_BUS_AMPS = np.array([BUS_AMPLITUDE[b] for b in MONITORED_BUSES])
_BUS_PHASES = np.array([BUS_PHASE[b] for b in MONITORED_BUSES])

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
# (phases, 1) columns of the two tuples above, for arithmetic on (phases, samples)
_OFFSET_COLUMN = np.array(PHASE_OFFSETS)[:, None]
_COUPLING_COLUMN = np.array(PHASE_COUPLING)[:, None]

# Event severity varies record to record (network state, switching scatter):
# every disturbance is scaled by a seeded draw from this range.
SEVERITY_RANGE = (0.7, 1.3)

DURATION = 0.15    # record length, s: 9 cycles
EVENT_TIME = 0.05  # event onset, s: 3 cycles in, 6 before the record ends
DEFAULT_SNR_DB = 60.0
JITTER_MAX_S = 0.5e-3     # detection latency bound

# Capacitor-size index (0..7) maps onto oscillation frequency and damping.
# The ring frequency sits in the upper kHz range so a 20 kHz unit resolves
# it while the slowest sweep rates alias it away.
CAP_SIZE_LEVELS = 8
CAP_FOSC_RANGE = (6500.0, 9500.0)
CAP_TAU_RANGE = (0.010, 0.004)  # seconds, index 0 -> slow decay
CAP_AMPLITUDE = 0.25  # ring amplitude, pu, of every grid record

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


@dataclass(frozen=True)
class EventSpec:
    """Full description of one event to synthesize. Specs come only from
    DatasetGrids.specs(), whose checks are the boundary, so a spec checks
    nothing."""

    event_class: EventClass
    inception_angle: float  # degrees in [0, 360)
    location: int
    class_params: dict


@dataclass(frozen=True)
class WaveformRecord:
    """Sampled three-phase voltages at the monitored buses, in per-unit.

    samples has shape (len(MONITORED_BUSES), 3, N) in ascending bus-id order;
    spec is None for a pure steady-state record.
    """

    spec: EventSpec | None
    fs: float
    samples: np.ndarray
    seed: int

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
    as a float where the default is one, so 4000 and 4000.0 give one config
    and one digest); unknown keys, wrong types and
    values a nested dataclass rejects raise ConfigError naming the dotted
    field."""
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
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        if where:  # a nested dataclass's own check: prefix its field path
            raise ConfigError(f"{where}.{exc}") from None
        raise


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
    if type(like) is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{where}: int {value} is too large for a float") from None
    return value


# ── Grids and dataset configuration ──────────────────────────────────────────

def _even_angles(k: int) -> tuple[float, ...]:
    return tuple(360.0 * j / k for j in range(k))


@dataclass(frozen=True)
class DatasetGrids:
    """Factorized parameter grids behind the per-class record counts."""

    cap_sizes: int = 8
    cap_angles: int = 8
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
        """Each count in 1..its table's levels, each list a non-empty set of
        known entries; a failure is a ConfigError naming the field."""
        levels = {"cap_sizes": CAP_SIZE_LEVELS, "xfmr_taps": TAP_LEVELS,
                  "fault_resistances": FAULT_RESISTANCE_LEVELS - 1}
        for name in ("cap_sizes", "cap_angles", "xfmr_taps", "xfmr_angles",
                     "fault_resistances", "fault_angles", "hif_angles", "hif_draws"):
            count, top = getattr(self, name), levels.get(name)
            if count < 1:
                raise ConfigError(f"{name}: {count} is below 1")
            if top is not None and count > top:
                raise ConfigError(f"{name}: {count} exceeds the {top} levels of its table")
        for name, known in (("fault_types", FAULT_TYPES),
                            ("fault_locations", FAULT_LOCATIONS),
                            ("hif_locations", tuple(ATTENUATION))):
            entries = tuple(getattr(self, name))
            if not entries:
                raise ConfigError(f"{name}: empty")
            for i, entry in enumerate(entries):
                if entry not in known:
                    raise ConfigError(f"{name}: {entry!r} not in {known}")
                if entry in entries[:i]:
                    raise ConfigError(f"{name}: {entries} repeats {entry!r}")
        counts = self.counts
        if counts != tuple(self.declared_counts):
            raise ConfigError(f"declared_counts {tuple(self.declared_counts)} do not "
                              f"match the grid products {counts}")

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (
            self.cap_sizes * self.cap_angles,
            self.xfmr_taps * self.xfmr_angles,
            len(self.fault_types) * len(self.fault_locations)
            * self.fault_resistances * self.fault_angles,
            len(self.hif_locations) * self.hif_angles * self.hif_draws,
        )

    def specs(self) -> list[EventSpec]:
        """Expand the grids into the full ordered spec list (class 1..4)."""
        out = []
        for size in range(self.cap_sizes):
            for ang in _even_angles(self.cap_angles):
                out.append(EventSpec(EventClass.CAPACITOR_SWITCHING, ang, CAP_BUS,
                                     {"size_index": size}))
        for tap in range(self.xfmr_taps):
            for ang in _even_angles(self.xfmr_angles):
                out.append(EventSpec(EventClass.TRANSFORMER_ENERGIZATION, ang, XFMR_BUS,
                                     {"tap_index": tap}))
        for ftype in self.fault_types:
            for loc in self.fault_locations:
                for res in range(self.fault_resistances):
                    for ang in _even_angles(self.fault_angles):
                        out.append(EventSpec(
                            EventClass.FAULT, ang, loc,
                            {"fault_type": ftype, "resistance_index": res}))
        for loc in self.hif_locations:
            for ang in _even_angles(self.hif_angles):
                for draw in range(self.hif_draws):
                    out.append(EventSpec(EventClass.HIF, ang, loc, {"draw_index": draw}))
        return out


@dataclass(frozen=True)
class DatasetConfig:
    fs: float = 20000.0
    seed: int = 0
    grids: DatasetGrids = field(default_factory=DatasetGrids)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed: {self.seed} is negative")
        _validate_fs(self.fs)


@dataclass(frozen=True)
class Dataset:
    """A config plus its stacked samples: one C-contiguous (records, buses,
    phases, samples) float64 array. Everything per record is derived from
    the config: record i has spec config.grids.specs()[i] and seed
    derive_seed(config.seed, i), and its samples are the view samples[i]."""

    config: DatasetConfig
    samples: np.ndarray

    def __len__(self) -> int:
        return len(self.samples)

    @functools.cached_property
    def records(self) -> list[WaveformRecord]:
        cfg = self.config
        specs = cfg.grids.specs()
        return [WaveformRecord(spec, cfg.fs, samples, derive_seed(cfg.seed, i))
                for i, (spec, samples) in enumerate(zip(specs, self.samples,
                                                        strict=True))]

    @functools.cached_property
    def labels(self) -> np.ndarray:
        labels = np.array([r.label for r in self.records], dtype=int)
        labels.flags.writeable = False
        return labels


# ── Generation ───────────────────────────────────────────────────────────────

def _validate_fs(fs: float):
    """ConfigError naming the field unless 1 kHz <= fs < inf."""
    if not 1000.0 <= fs < math.inf:
        raise ConfigError(f"fs: sampling rate {fs} Hz outside [1000, inf)")


@dataclass(frozen=True)
class _Axis:
    """One rate's record axis: everything the class models read that depends
    on the rate alone. Every array is read-only."""

    t: np.ndarray      # sample times, s
    u: np.ndarray      # time since EVENT_TIME, 0 before it
    on: np.ndarray     # onset mask, t - EVENT_TIME >= 0
    angle: np.ndarray  # each phase's 60 Hz angle, (phases, samples)
    clean: np.ndarray  # noiseless balanced steady state, (buses, phases, samples)
    asym: np.ndarray   # HIF's half-cycle asymmetry of the bus-normalized clean base
    shape: np.ndarray  # HIF's odd-harmonic shape of the bus-normalized clean base


@functools.lru_cache(maxsize=8)
def _axis(fs: float) -> _Axis:
    """The rate's record axis, built once per rate; a rate _validate_fs
    refuses raises its ConfigError."""
    _validate_fs(fs)
    t = np.arange(round(fs * DURATION)) / fs
    angle = 2.0 * math.pi * F0 * t + _OFFSET_COLUMN
    clean = _BUS_AMPS[:, None, None] * np.cos(angle + _BUS_PHASES[:, None, None])
    v_norm = clean / _BUS_AMPS[:, None, None]
    axis = _Axis(t=t, u=np.maximum(t - EVENT_TIME, 0.0), on=t - EVENT_TIME >= 0.0,
                 angle=angle, clean=clean,
                 asym=np.where(v_norm >= 0.0, 1.0, HIF_NEG_HALF_FACTOR),
                 shape=0.6 * v_norm ** 3 + 0.4 * v_norm ** 5)
    for array in vars(axis).values():
        array.flags.writeable = False
    return axis


def _noise(seed: int, snr_db: float, n: int) -> np.ndarray:
    """Additive white Gaussian noise sized to the per-bus signal power."""
    if math.isinf(snr_db):
        return np.zeros((len(MONITORED_BUSES), 3, n))
    rng = np.random.default_rng([seed, _STREAM_NOISE])
    raw = rng.standard_normal((len(MONITORED_BUSES), 3, n))
    sigma = (_BUS_AMPS / math.sqrt(2.0)) * 10.0 ** (-snr_db / 20.0)
    return raw * sigma[:, None, None]


def synth_steady(fs: float, seed: int = 0,
                 snr_db: float = DEFAULT_SNR_DB) -> WaveformRecord:
    """Balanced 60 Hz three-phase steady state at all monitored buses."""
    clean = _axis(fs).clean
    return WaveformRecord(None, fs, clean + _noise(seed, snr_db, clean.shape[2]), seed)


def _phase_burst(axis, amplitude, freq, tau, theta):
    """Damped oscillation from EVENT_TIME, one row per phase with its own
    coupling weight and point-on-wave, shape (3, samples)."""
    envelope = np.where(axis.on, amplitude * np.exp(-axis.u / tau), 0.0)
    return _COUPLING_COLUMN * envelope * np.sin(
        2.0 * math.pi * freq * axis.u + theta + _OFFSET_COLUMN)


# The phases a fault disturbs, and the one an HIF does (a downed or leaning
# conductor arcs on one phase), as (1, phases, 1) masks.
_FAULT_PHASE_MASKS = {ftype: np.array([[[float(p in phases)] for p in range(3)]])
                      for ftype, phases in FAULT_PHASES.items()}
_HIF_PHASE_MASK = np.array([[[1.0], [0.0], [0.0]]])


def _apply_cap_switching(axis, spec, theta, atten, seed):
    frac = spec.class_params["size_index"] / (CAP_SIZE_LEVELS - 1)
    f_osc = CAP_FOSC_RANGE[0] + frac * (CAP_FOSC_RANGE[1] - CAP_FOSC_RANGE[0])
    tau = CAP_TAU_RANGE[0] + frac * (CAP_TAU_RANGE[1] - CAP_TAU_RANGE[0])
    ring = _phase_burst(axis, CAP_AMPLITUDE, f_osc, tau, theta)
    return axis.clean + atten * ring[None, :, :]


def _apply_xfmr_energization(axis, spec, theta, atten, seed):
    t = axis.t
    frac = spec.class_params["tap_index"] / (TAP_LEVELS - 1)
    cycles = XFMR_DECAY_CYCLES[0] + frac * (XFMR_DECAY_CYCLES[1] - XFMR_DECAY_CYCLES[0])
    tau = cycles / F0
    envelope = np.where(axis.on, np.exp(-axis.u / tau), 0.0)

    sag = XFMR_SAG_MAX * (0.3 + 0.7 * frac)
    out = axis.clean * (1.0 - sag * atten * envelope[None, None, :])
    scale = 0.4 + 0.6 * frac
    ripple = np.zeros_like(axis.angle)
    for order, base_amp in XFMR_HARMONICS:
        ripple += base_amp * scale * np.cos(order * axis.angle + theta)
    out += atten * envelope * ripple

    # connection surge at the energization instant
    f_surge = XFMR_SURGE_FREQ_RANGE[0] + frac * (
        XFMR_SURGE_FREQ_RANGE[1] - XFMR_SURGE_FREQ_RANGE[0]
    )
    surge = _phase_burst(axis, XFMR_SURGE_AMPLITUDE * (0.5 + 0.5 * frac),
                         f_surge, XFMR_SURGE_TAU, theta)
    out += atten * surge[None, :, :]

    # one narrow saturation notch per cycle while the inrush decays
    notch = np.zeros_like(t)
    for k in itertools.count():
        t_k = EVENT_TIME + k / F0
        if t_k > t[-1]:
            break
        local = np.abs(t - t_k) < XFMR_NOTCH_WIDTH / 2.0
        shape = 0.5 * (1.0 + np.cos(2.0 * math.pi * (t[local] - t_k) / XFMR_NOTCH_WIDTH))
        notch[local] += math.exp(-k / (F0 * tau)) * shape
    depth = XFMR_NOTCH_DEPTH * (0.4 + 0.6 * frac) * (0.75 + 0.25 * math.cos(theta))
    out *= 1.0 - depth * atten * notch[None, None, :]
    return out


def _apply_fault(axis, spec, theta, atten, seed):
    p = spec.class_params
    depth = FAULT_DEPTH_TABLE[spec.location][p["resistance_index"]]
    depth *= FAULT_TYPE_FACTOR[p["fault_type"]]
    phase_mask = _FAULT_PHASE_MASKS[p["fault_type"]]
    out = axis.clean * (1.0 - depth * atten * phase_mask * axis.on[None, None, :])

    # short arc transient at inception, proportional to sag depth
    res = p["resistance_index"]
    f_tr = FAULT_TRANSIENT_FREQ_RANGE[0] + res / (FAULT_RESISTANCE_LEVELS - 2) * (
        FAULT_TRANSIENT_FREQ_RANGE[1] - FAULT_TRANSIENT_FREQ_RANGE[0]
    )
    tr_amp = FAULT_TRANSIENT_AMPLITUDE * depth / FAULT_DEPTH_TABLE[632][0]
    burst = _phase_burst(axis, tr_amp, f_tr, FAULT_TRANSIENT_TAU, theta)
    out += atten * phase_mask * burst[None, :, :]

    # sustained wideband arcing while the fault persists, scaled with depth
    rng = np.random.default_rng([seed, _STREAM_EVENT])
    texture = rng.standard_normal((1, 3, axis.t.size))
    rel = depth / FAULT_DEPTH_TABLE[632][0]
    sigma = FAULT_ARC_NOISE * (0.3 + 0.7 * math.sqrt(rel)) * (rel > 0)
    out += sigma * atten * phase_mask * axis.on[None, None, :] * texture
    return out


def _apply_hif(axis, spec, theta, atten, seed):
    t = axis.t
    draw = spec.class_params["draw_index"]
    rng = np.random.default_rng([seed, _STREAM_EVENT, draw])
    n_half = int(math.ceil(2.0 * F0 * (t[-1] - EVENT_TIME))) + 2
    gains = rng.uniform(0.6, 1.0, size=n_half)
    pulse_gains = rng.uniform(0.5, 1.0, size=n_half)

    # half-cycle index of each active sample, counted from the inception
    k = np.clip(np.floor(2.0 * F0 * axis.u).astype(int), 0, n_half - 1)
    g = np.where(axis.on, gains[k], 0.0)

    amp_d = HIF_DISTORTION_BASE + HIF_DISTORTION_SPAN * (draw % HIF_DRAW_LEVELS) / (
        HIF_DRAW_LEVELS - 1
    )
    out = axis.clean - (amp_d * atten * _HIF_PHASE_MASK * axis.asym * axis.shape
                        * g[None, None, :])

    # arc reignition clicks every half cycle; alternating strength set by
    # the inception angle
    pulse = np.zeros_like(t)
    for kk in range(n_half):
        t_k = EVENT_TIME + kk / (2.0 * F0)
        if t_k >= t[-1]:
            break
        w = np.maximum(t - t_k, 0.0)  # 0 before the click, where its sine is +0
        side = 1.0 + 0.3 * math.cos(theta) * (1.0 if kk % 2 == 0 else -1.0)
        pulse += (HIF_PULSE_AMPLITUDE * pulse_gains[kk] * side
                  * np.exp(-w / HIF_PULSE_TAU) * np.sin(2.0 * math.pi * HIF_PULSE_FREQ * w))
    out += atten * _HIF_PHASE_MASK * pulse[None, None, :]
    return out


# Each class's model(axis, spec, theta, atten, seed) -> the disturbed (buses,
# phases, samples) record, theta the inception angle in radians and atten the
# event location's (buses, 1, 1) attenuation column.
_MODELS = {
    EventClass.CAPACITOR_SWITCHING: _apply_cap_switching,
    EventClass.TRANSFORMER_ENERGIZATION: _apply_xfmr_energization,
    EventClass.FAULT: _apply_fault,
    EventClass.HIF: _apply_hif,
}


def synth_event(spec: EventSpec, fs: float, seed: int = 0,
                snr_db: float = DEFAULT_SNR_DB) -> WaveformRecord:
    """Steady-state base plus the class's disturbance model, scaled by a
    seeded severity, plus noise."""
    axis = _axis(fs)
    theta = math.radians(spec.inception_angle)
    atten = np.array(ATTENUATION[spec.location])[:, None, None]
    disturbed = _MODELS[spec.event_class](axis, spec, theta, atten, seed)
    severity = np.random.default_rng([seed, _STREAM_SEVERITY]).uniform(
        *SEVERITY_RANGE
    )
    samples = (axis.clean + severity * (disturbed - axis.clean)
               + _noise(seed, snr_db, axis.t.size))
    return WaveformRecord(spec, fs, samples, seed)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from integer coordinates: (seed, index) of a
    dataset record, (seed, repeat, stage, ...) of an experiment stage."""
    entropy = [int(p) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


# A build forks one more process per usable core only while each gets this
# many records: a fork costs more than synthesizing a few dozen records.
MIN_RECORDS_PER_PROCESS = 64


def build_dataset(config: DatasetConfig) -> Dataset:
    """Expand the configured grids into the full labeled record set, each
    record synthesized straight into its slot of one stacked array.

    The array is shared memory. With at least MIN_RECORDS_PER_PROCESS records
    per process, a build splits over one process per usable core: this one
    synthesizes records 0::n and n - 1 forked helpers records k::n, interleaved
    because the records are stored in class order and the classes differ in
    cost. Each record is a pure function of its spec and seed, so every split
    gives the same array. Python 3.12+ warns of a fork while other threads
    run, as run_grid's pool threads do when it builds its next rate."""
    import mmap  # here, not at the top, as in run_grid: `swec train` builds nothing
    import multiprocessing
    shape = _samples_shape(config)
    nbytes = math.prod(shape) * np.dtype(float).itemsize
    # Checked before mmap: under memory overcommit a mapping larger than the
    # machine is granted, and the build is then killed mid-synthesis.
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > memory:
        raise ConfigError(f"fs: {config.fs:g} Hz needs a samples array of shape "
                          f"{shape}, {nbytes / 1e9:.3g} GB, more than the "
                          f"{memory / 1e9:.3g} GB of physical memory")
    try:
        buffer = mmap.mmap(-1, nbytes)
    except (OSError, OverflowError, ValueError, MemoryError):
        raise ConfigError(f"fs: {config.fs:g} Hz needs a samples array of shape "
                          f"{shape}, which cannot be allocated") from None
    dataset = Dataset(config, np.ndarray(shape, buffer=buffer))
    records = dataset.records
    n = max(1, min(len(os.sched_getaffinity(0)),
                   len(records) // MIN_RECORDS_PER_PROCESS))
    context, helpers = multiprocessing.get_context("fork"), []
    try:
        for k in range(1, n):
            helper = context.Process(target=_synthesize, args=(records[k::n], config.fs))
            helper.start()
            helpers.append(helper)
        _synthesize(records[0::n], config.fs)
    finally:
        for helper in helpers:
            helper.join()
    for k, helper in enumerate(helpers, 1):
        if helper.exitcode:
            raise RuntimeError(f"records {k}::{n} of {len(records)}: synthesis "
                               f"process exited with code {helper.exitcode}")
    return dataset


def _synthesize(records, fs: float) -> None:
    """Synthesize each record into its samples, in order: the one per-record
    loop of every build, run by each of its processes."""
    for rec in records:
        # `event` stays alive until the next record's synthesis returns. Freed
        # at once, its block lets malloc give the heap top back to the OS and
        # the next record faults those pages in again: 140k against 51k minor
        # faults, about 0.15 s, per 600-record 20 kHz build on 2 cores.
        event = synth_event(rec.spec, fs, rec.seed)
        rec.samples[...] = event.samples


def _samples_shape(config: DatasetConfig) -> tuple:
    """(records, buses, phases, samples) of the config's stacked array."""
    return (sum(config.grids.counts), len(MONITORED_BUSES), 3,
            round(config.fs * DURATION))


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
    start = round((EVENT_TIME + offset) * record.fs)
    if start + w > record.num_samples:
        raise ValueError(
            f"window [{start}, {start + w}) exceeds record length "
            f"{record.num_samples}"
        )
    return record.samples[:, :, start:start + w]


# ── Dataset file ─────────────────────────────────────────────────────────────

DATASET_MAGIC = b"SWDS"
_REGENERATE = "re-run `swec generate` to rebuild the dataset from its seed"


def save_dataset(dataset: Dataset, path) -> Path:
    """Write the dataset as one tensor file (swec.store): its config's JSON
    form under the header key "config" and its samples as the tensor
    "samples". Returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_tensor_file(path, DATASET_MAGIC, {"samples": dataset.samples},
                      config=dataclass_to_json(dataset.config))
    return path


def config_sha256(config: DatasetConfig) -> str:
    """sha256 of the json.dumps text of the config's JSON form."""
    return hashlib.sha256(json.dumps(dataclass_to_json(config)).encode()).hexdigest()


def load_dataset(path) -> Dataset:
    """Inverse of save_dataset; waveform values round-trip bit-identically.
    Beyond the store's checks (magic, version, header, length, sha256,
    finite values), the header's config must set every DatasetConfig field
    to a valid value and the samples must have the shape it implies; the
    records are derived from it as build_dataset derives them. Every
    failure names the file: an OSError if it cannot be read, else a
    ValueError. A directory (the earlier dataset store) and a config that
    does not load (such as one of an earlier schema) ask for the dataset to
    be generated again."""
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"{path}: a dataset directory of an earlier format; "
                         f"{_REGENERATE}")
    f = TensorFileReader(path, DATASET_MAGIC, _REGENERATE)
    doc = f.header.get("config")
    try:
        # before the build: a missing key would take its default, and the
        # grid checks would blame the default
        if isinstance(doc, dict):
            full, grids = dataclass_to_json(DatasetConfig()), doc.get("grids")
            missing = [k for k in full if k not in doc]
            if isinstance(grids, dict):
                missing += [f"grids.{k}" for k in full["grids"] if k not in grids]
            if missing:
                raise ConfigError(f"config: missing keys {missing}")
        cfg = dataclass_from_json(DatasetConfig, doc, "config")
    except ConfigError as exc:
        raise f.header_error("config", f"{exc}; {_REGENERATE}") from None
    return Dataset(cfg, f.tensors({"samples": _samples_shape(cfg)})["samples"])

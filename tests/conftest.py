import hashlib
import math
import os
import struct
from pathlib import Path

import pytest

from swec import baselines, expharness, store, synthgrid, tinycnn

TINY_COUNTS = (2, 2, 2, 2)


def tiny_grids() -> synthgrid.DatasetGrids:
    """Eight-record grid for fast pipeline tests."""
    return synthgrid.DatasetGrids(
        cap_sizes=1, cap_angles=2,
        xfmr_taps=1, xfmr_angles=2,
        fault_types=("LG",), fault_locations=(632,),
        fault_resistances=1, fault_angles=2,
        hif_locations=(632,), hif_angles=2, hif_draws=1,
        declared_counts=TINY_COUNTS,
    )


def tiny_config(**overrides) -> expharness.ExperimentConfig:
    """Cut-down experiment config: 8 records, 2-epoch trainers; compare and
    placement at 4 kHz, the tables' rows those of ExperimentConfig."""
    defaults = dict(
        seed=0,
        placement_fs=4000.0,
        train_fraction=0.5,
        repeats=1,
        grids=tiny_grids(),
        cnn=tinycnn.TrainConfig(epochs=2),
        tmlp=baselines.MlpConfig(epochs=2),
        svm=baselines.SvmConfig(epochs=5),
        autoencoder=baselines.AeConfig(recon_epochs=2, head_epochs=2),
    )
    defaults.update(overrides)
    return expharness.ExperimentConfig(**defaults)


@pytest.fixture
def tiny_dataset():
    return synthgrid.build_dataset(
        synthgrid.DatasetConfig(fs=2000.0, seed=11, grids=tiny_grids())
    )


def write_non_finite(path, offset: int, value: float = math.nan) -> None:
    """Overwrite the float64 at byte offset of a tensor file with value and
    recompute the file's digest: a file that write_tensor_file refuses to
    write, as damage on disk can leave it."""
    raw = bytearray(Path(path).read_bytes())
    raw[offset:offset + 8] = struct.pack("<d", value)
    raw[-store.DIGEST_BYTES:] = hashlib.sha256(raw[:-store.DIGEST_BYTES]).digest()
    Path(path).write_bytes(bytes(raw))


def physical_memory(pages: int, page_size: int = 4096):
    """An os.sysconf that reports pages * page_size bytes of physical memory
    and passes every other name through."""
    fake, real = {"SC_PAGE_SIZE": page_size, "SC_PHYS_PAGES": pages}, os.sysconf
    return lambda name: fake[name] if name in fake else real(name)

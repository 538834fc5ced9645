"""Serpentine tape geometry: tracks, sections, key points, coordinates.

Public surface::

    from repro.geometry import (
        TapeGeometry, TrackLayout, SectionLayout, SectionTable,
        SegmentCoordinate, TrackDirection, generate_tape, tiny_tape,
        make_tape_pair,
        calibrate_key_points, geometry_from_key_points,
    )
"""

from repro.geometry.calibration import (
    CalibrationError,
    CalibrationResult,
    calibrate_key_points,
    detect_drops,
    geometry_from_key_points,
    noisy_oracle,
    sweep_locate_curve,
)
from repro.geometry.coordinates import (
    SegmentCoordinate,
    TrackDirection,
    ordinal_section,
    physical_section,
)
from repro.geometry.generator import generate_tape, make_tape_pair, tiny_tape
from repro.geometry.probing import probing_calibrate
from repro.geometry.section import SectionLayout
from repro.geometry.serialization import (
    geometry_from_dict,
    geometry_to_dict,
    load_geometry,
    save_geometry,
)
from repro.geometry.tape import TAPE_PHYS_LENGTH, SectionTable, TapeGeometry
from repro.geometry.track import TrackLayout

__all__ = [
    "CalibrationError",
    "CalibrationResult",
    "SectionLayout",
    "SectionTable",
    "SegmentCoordinate",
    "TAPE_PHYS_LENGTH",
    "TapeGeometry",
    "TrackDirection",
    "TrackLayout",
    "calibrate_key_points",
    "detect_drops",
    "generate_tape",
    "geometry_from_dict",
    "geometry_from_key_points",
    "geometry_to_dict",
    "load_geometry",
    "make_tape_pair",
    "noisy_oracle",
    "ordinal_section",
    "physical_section",
    "probing_calibrate",
    "save_geometry",
    "sweep_locate_curve",
    "tiny_tape",
]

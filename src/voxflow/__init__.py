"""Volumetric radar-echo motion estimation and extrapolation nowcasting."""

__version__ = "0.1.0"

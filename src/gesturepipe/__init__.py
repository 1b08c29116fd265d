"""Real-time dynamic arm gesture recognition over OpenPose BODY-25 keypoints.

Kept import-light: importing the package loads no numpy, so a caller can still
set the BLAS thread variables before numpy loads. Import submodules directly,
e.g. ``from gesturepipe import skeleton``.
"""

__version__ = "0.1.0"

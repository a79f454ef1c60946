"""CUDA texture references.

A ``texture<T, dim, readMode>`` file-scope variable becomes a
:class:`TextureRef`, visible to both host code (bind/unbind APIs, attribute
assignments like ``tex.filterMode = cudaFilterModeLinear``) and device code
(``tex1Dfetch``/``tex1D``/``tex2D``/``tex3D``) — the dual visibility that
makes textures the hardest feature of the CUDA→OpenCL direction (§5):
OpenCL has no variable seen from both sides, so the translator turns each
reference into an image + sampler kernel parameter.

A reference can be bound to *linear memory* (``cudaBindTexture``; subject to
the 2^27-texel limit of CC 3.5) or to a CUDA array (``cudaBindTexture2D`` /
``cudaBindTextureToArray``), which we back with a
:class:`~repro.device.images.DeviceImage`.

Attribute encodings match the CUDA runtime: ``filterMode`` 0=point
1=linear; ``addressMode[i]`` 0=wrap 1=clamp 2=mirror 3=border;
``normalized`` 0/1.  :class:`TextureAttributes` holds them and the
sampler they select for both CUDA runtimes: the native
:class:`TextureRef` and the CUDA→OpenCL wrapper's per-texture binding.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..clike import types as T
from ..device.images import ChannelFormat, DeviceImage, Sampler
from ..errors import CudaApiError, DeviceError
from ..runtime.values import Ptr, StructRef, Vec
from .enums import CUDA_CONSTANTS

__all__ = ["TextureAttributes", "TextureRef", "format_from_desc",
           "texture_format"]

_K = CUDA_CONSTANTS
_ORDER_BY_CHANNELS = {1: "R", 2: "RG", 3: "RGB", 4: "RGBA"}


class TextureAttributes:
    """A texture reference's name, type and CUDA-visible attributes (ints,
    assignable from interpreted host code), and the sampler they select."""

    def __init__(self, name: str, ttype: T.TextureType) -> None:
        self.name = name
        self.ttype = ttype
        self.filterMode = 0
        self.addressMode: List[int] = [1, 1, 1]
        self.normalized = 0

    @property
    def sampler(self) -> Sampler:
        addressing = {0: "repeat", 1: "clamp_to_edge",
                      2: "repeat", 3: "clamp"}.get(self.addressMode[0],
                                                   "clamp_to_edge")
        return Sampler(normalized=bool(self.normalized),
                       addressing=addressing,
                       filtering="linear" if self.filterMode == 1
                       else "nearest")


def texture_format(elem: T.Type) -> ChannelFormat:
    """The image channel format that holds texels of type ``elem``."""
    if isinstance(elem, T.VectorType):
        order = _ORDER_BY_CHANNELS[elem.count]
        scalar = elem.base
    else:
        order = "R"
        scalar = elem
    dtype = {"float": "FLOAT", "int": "SIGNED_INT32",
             "uint": "UNSIGNED_INT32", "uchar": "UNSIGNED_INT8",
             "char": "SIGNED_INT8", "short": "SIGNED_INT16",
             "ushort": "UNSIGNED_INT16"}.get(
        getattr(scalar, "name", "float"), "FLOAT")
    return ChannelFormat(order, dtype)


def format_from_desc(desc: Any) -> ChannelFormat:
    """The image channel format a ``cudaChannelFormatDesc`` describes."""
    if isinstance(desc, StructRef):
        bits = [int(desc.get(c)) for c in "xyzw"]
        kind = int(desc.get("f"))
        channels = sum(1 for b in bits if b > 0)
        order = _ORDER_BY_CHANNELS.get(channels, "R")
        x = bits[0] or 32
        if kind == _K["cudaChannelFormatKindFloat"]:
            dtype = "FLOAT"
        elif kind == _K["cudaChannelFormatKindSigned"]:
            dtype = {8: "SIGNED_INT8", 16: "SIGNED_INT16"}.get(
                x, "SIGNED_INT32")
        else:
            dtype = {8: "UNSIGNED_INT8", 16: "UNSIGNED_INT16"}.get(
                x, "UNSIGNED_INT32")
        return ChannelFormat(order, dtype)
    return ChannelFormat("R", "FLOAT")


class TextureRef(TextureAttributes):
    """One CUDA texture reference (file-scope variable)."""

    def __init__(self, name: str, ttype: T.TextureType) -> None:
        super().__init__(name, ttype)
        # binding
        self.linear: Optional[Ptr] = None
        self.linear_elems = 0
        self.image: Optional[DeviceImage] = None

    # -- host-side binding ------------------------------------------------------

    def bind_linear(self, ptr: Ptr, nbytes: int, max_texels: int) -> None:
        elem_size = self.elem_type.size or 4
        texels = nbytes // elem_size
        if texels > max_texels:
            raise CudaApiError(
                11, f"1D linear texture of {texels} texels exceeds the "
                    f"device limit of {max_texels}")
        self.linear = ptr.retype(self.elem_type)
        self.linear_elems = texels
        self.image = None

    def bind_image(self, image: DeviceImage) -> None:
        self.image = image
        self.linear = None

    def unbind(self) -> None:
        self.linear = None
        self.image = None

    @property
    def elem_type(self) -> T.Type:
        return self.ttype.base

    # -- device-side fetch ----------------------------------------------------------

    def fetch(self, coords: Sequence[float], integer_index: bool = False):
        """Device-side texture fetch (tex1Dfetch / tex1D / tex2D / tex3D)."""
        if self.linear is not None:
            i = int(coords[0])
            if self.linear_elems:
                i = min(max(i, 0), self.linear_elems - 1)
            return self.linear.add(i).load()
        if self.image is not None:
            return self._from_image(coords)
        raise DeviceError(f"texture {self.name!r} fetched while unbound")

    def _from_image(self, coords: Sequence[float]):
        assert self.image is not None
        vec = self.image.read(self.sampler, list(coords))
        base = self.elem_type
        if isinstance(base, T.VectorType):
            return Vec(base, vec.vals[:base.count])
        return vec.vals[0]

    def __repr__(self) -> str:  # pragma: no cover
        bound = ("linear" if self.linear is not None
                 else "array" if self.image is not None else "unbound")
        return f"<TextureRef {self.name} {self.ttype} {bound}>"

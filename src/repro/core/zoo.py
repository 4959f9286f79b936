"""Larger network designs: AlexNet- and VGG-16-class models.

Section VI: "We will then also test the proposed approach on bigger and
more popular CNN models like AlexNet or VGG". These designs exercise the
methodology at full scale — shapes, initiation intervals, per-layer
intervals, resource bills, DSE and multi-FPGA splits analytically, and,
in their blocked tier below, cycle simulation at 227x227 / 224x224.

Both are faithful to the original topologies up to features the paper's
methodology does not define: local response normalization (AlexNet) is
omitted, the dual-GPU grouping of AlexNet's convolutions is flattened,
and all activations are ReLU as in the originals.

Two tiers per model:

* ``alexnet_design`` / ``vgg16_design`` — the unblocked references.
  Too large to cycle-simulate, the simulation harnesses refuse them;
  they remain analytically checkable.
* ``alexnet_blocked_design`` / ``vgg16_blocked_design`` — the promoted
  full-size zoo members: block convolution
  (:mod:`repro.core.block_transform`) on every conv, with per-layer
  tile sizes chosen so each memory structure buffers tiles instead of
  full feature maps. These simulate full-size on all three engines
  (weight streaming is deliberately left off: an FC layer that streams
  its matrix needs one beat per weight, which would put tens of
  millions of cycles between images and make cycle simulation
  pointless). ``*_pilot_design`` are their deterministic pilot
  downscales for quick CI fault/profile loops (pilots strip blocking).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.layer_spec import ConvLayerSpec, FCLayerSpec, LayerSpec, PoolLayerSpec
from repro.core.network_design import NetworkDesign

#: Tile heights/widths for the promoted blocked AlexNet: conv1 emits
#: 55x55 (5 tiles of 11), conv2 27x27 (3 tiles of 9), conv3-5 13x13
#: (2 tiles of 7, one overhang row/column dropped by the merge stage).
ALEXNET_TILES: Dict[str, int] = {
    "conv1": 11,
    "conv2": 9,
    "conv3": 7,
    "conv4": 7,
    "conv5": 7,
}

#: Tile sizes for the promoted blocked VGG-16: all outputs are powers
#: of two times 7 (224/112/56/28/14), tiled 28 -> 28 -> 14 -> 14 -> 7 so
#: the deepest, widest layers hold the smallest tiles.
VGG16_TILES: Dict[str, int] = {
    **{f"b1_conv{i}": 28 for i in (1, 2)},
    **{f"b2_conv{i}": 28 for i in (1, 2)},
    **{f"b3_conv{i}": 14 for i in (1, 2, 3)},
    **{f"b4_conv{i}": 14 for i in (1, 2, 3)},
    **{f"b5_conv{i}": 7 for i in (1, 2, 3)},
}


def alexnet_design(
    name: str = "alexnet", weight_streaming: bool = False
) -> NetworkDesign:
    """AlexNet (Krizhevsky et al. 2012), single-port configuration.

    227x227x3 input; the classic 5-conv / 3-pool / 3-FC topology with
    ~60M parameters. ``weight_streaming=True`` streams the FC matrices
    from off-chip memory (extension E7) instead of storing them on chip.
    """
    return NetworkDesign(
        name,
        input_shape=(3, 227, 227),
        specs=[
            ConvLayerSpec(name="conv1", in_fm=3, out_fm=96, kh=11, stride=4,
                          activation="relu"),
            PoolLayerSpec(name="pool1", in_fm=96, out_fm=96, kh=3, stride=2),
            ConvLayerSpec(name="conv2", in_fm=96, out_fm=256, kh=5, pad=2,
                          activation="relu"),
            PoolLayerSpec(name="pool2", in_fm=256, out_fm=256, kh=3, stride=2),
            ConvLayerSpec(name="conv3", in_fm=256, out_fm=384, kh=3, pad=1,
                          activation="relu"),
            ConvLayerSpec(name="conv4", in_fm=384, out_fm=384, kh=3, pad=1,
                          activation="relu"),
            ConvLayerSpec(name="conv5", in_fm=384, out_fm=256, kh=3, pad=1,
                          activation="relu"),
            PoolLayerSpec(name="pool5", in_fm=256, out_fm=256, kh=3, stride=2),
            FCLayerSpec(name="fc6", in_fm=256 * 6 * 6, out_fm=4096,
                        activation="relu", weight_streaming=weight_streaming),
            FCLayerSpec(name="fc7", in_fm=4096, out_fm=4096, activation="relu",
                        weight_streaming=weight_streaming),
            FCLayerSpec(name="fc8", in_fm=4096, out_fm=1000,
                        weight_streaming=weight_streaming),
        ],
    )


def _vgg_block(prefix: str, in_fm: int, out_fm: int, convs: int) -> List[LayerSpec]:
    specs: List[LayerSpec] = []
    fm = in_fm
    for i in range(convs):
        specs.append(
            ConvLayerSpec(name=f"{prefix}_conv{i + 1}", in_fm=fm, out_fm=out_fm,
                          kh=3, pad=1, activation="relu")
        )
        fm = out_fm
    specs.append(
        PoolLayerSpec(name=f"{prefix}_pool", in_fm=out_fm, out_fm=out_fm,
                      kh=2, stride=2)
    )
    return specs


def vgg16_design(
    name: str = "vgg16", weight_streaming: bool = False
) -> NetworkDesign:
    """VGG-16 (Simonyan & Zisserman 2014), single-port configuration.

    224x224x3 input, 13 convolutions in 5 blocks, 3 FC layers, ~138M
    parameters. ``weight_streaming=True`` streams the (dominant) FC
    matrices from off-chip memory (extension E7).
    """
    specs: List[LayerSpec] = []
    specs += _vgg_block("b1", 3, 64, 2)
    specs += _vgg_block("b2", 64, 128, 2)
    specs += _vgg_block("b3", 128, 256, 3)
    specs += _vgg_block("b4", 256, 512, 3)
    specs += _vgg_block("b5", 512, 512, 3)
    specs += [
        FCLayerSpec(name="fc6", in_fm=512 * 7 * 7, out_fm=4096, activation="relu",
                    weight_streaming=weight_streaming),
        FCLayerSpec(name="fc7", in_fm=4096, out_fm=4096, activation="relu",
                    weight_streaming=weight_streaming),
        FCLayerSpec(name="fc8", in_fm=4096, out_fm=1000,
                    weight_streaming=weight_streaming),
    ]
    return NetworkDesign(name, (3, 224, 224), specs)


def alexnet_blocked_design(name: str = "alexnet") -> NetworkDesign:
    """Full-size AlexNet promoted for cycle simulation.

    :data:`ALEXNET_TILES` block convolution on every conv layer.
    """
    return alexnet_design(name).with_blocking(ALEXNET_TILES)


def vgg16_blocked_design(name: str = "vgg16") -> NetworkDesign:
    """Full-size VGG-16 promoted for cycle simulation.

    :data:`VGG16_TILES` block convolution on every conv layer.
    """
    return vgg16_design(name).with_blocking(VGG16_TILES)


def alexnet_pilot_design() -> NetworkDesign:
    """Deterministic pilot downscale of the promoted AlexNet."""
    from repro.faults.harness import pilot_design

    return pilot_design(alexnet_blocked_design())


def vgg16_pilot_design() -> NetworkDesign:
    """Deterministic pilot downscale of the promoted VGG-16."""
    from repro.faults.harness import pilot_design

    return pilot_design(vgg16_blocked_design())

"""Per-layer metrics of a traced run and the bindings they are recorded at.

Layers are lpcore's modules. A span wraps every public function a workload
calls, plus the ``rotated_iou`` bindings that ``spotting``, ``anchors`` and
``rotated_nms`` use inside the package, so IoU calls and their time show
under their callers. Values are per benchmark step (for eval_10k, per pass
over the set), except ``anchors.generate_anchors.self_s``, which is per
set-up. Counts with a unit ending in ``_computed`` are derived from the
arguments' sizes at the call, not measured; they ignore caches.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    kind: str  # "self" | "calls" | "counter" | "ratio" | "overhead"
    source: tuple = ()


def _m(name, unit, better, kind, *source):
    return LayerMetric(name, unit, better, kind, tuple(source))


PER_LAYER = [
    _m("dataio.parse_predictions.self_s", "s", "lower", "self", "dataio.parse_predictions"),
    _m("dataio.lines_parsed", "lines_computed", "lower", "counter", "dataio.lines"),
    _m("dataio.bytes_parsed", "B_computed", "lower", "counter", "dataio.bytes"),
    _m("spotting.match_records.self_s", "s", "lower", "self", "spotting.match_records"),
    _m("spotting.pairs_considered", "count", "lower", "counter", "spotting.pairs"),
    _m("spotting.aggregate.self_s", "s", "lower", "self", "spotting.aggregate"),
    _m("cli.cmd_evaluate.self_s", "s", "lower", "self", "cli.cmd_evaluate"),
    _m("geometry.rotated_iou.calls", "count", "lower", "calls", "geometry.rotated_iou"),
    _m("geometry.rotated_iou.self_s", "s", "lower", "self", "geometry.rotated_iou"),
    _m("geometry.rotated_iou.nonzero_ratio", "ratio", "higher", "ratio",
       "geometry.rotated_iou.nonzero", "geometry.rotated_iou.pairs"),
    _m("geometry.rotated_iou.overlap_candidates", "pairs_computed", "lower", "counter",
       "geometry.rotated_iou.overlap_candidates"),
    _m("geometry.rotated_nms.self_s", "s", "lower", "self", "geometry.rotated_nms"),
    _m("geometry.rotated_nms.candidates", "boxes_computed", "lower", "counter",
       "geometry.rotated_nms.candidates"),
    _m("geometry.rotated_nms.kept_ratio", "ratio", "higher", "ratio",
       "geometry.rotated_nms.kept", "geometry.rotated_nms.candidates"),
    _m("anchors.generate_anchors.self_s", "s", "lower", "self", "anchors.generate_anchors"),
    _m("anchors.assign_targets.self_s", "s", "lower", "self", "anchors.assign_targets"),
    _m("anchors.assign_targets.pairs", "pairs_computed", "lower", "counter",
       "anchors.assign_targets.pairs"),
    _m("anchors.assign_targets.positive_ratio", "ratio", "higher", "ratio",
       "anchors.assign_targets.positives", "anchors.assign_targets.anchors"),
    _m("anchors.encode_decode.self_s", "s", "lower", "self",
       "anchors.encode_delta", "anchors.decode_delta"),
    _m("losses.anchor_classification_loss.self_s", "s", "lower", "self",
       "losses.anchor_classification_loss"),
    _m("losses.focal_evals", "evals_computed", "lower", "counter", "losses.focal_evals"),
    _m("losses.localization.self_s", "s", "lower", "self",
       "losses.anchor_localization_loss", "losses.refinement_loss", "losses.detection_loss"),
    _m("feature_ops.rroi_align.calls", "count", "lower", "calls", "feature_ops.rroi_align"),
    _m("feature_ops.rroi_align.self_s", "s", "lower", "self", "feature_ops.rroi_align"),
    _m("feature_ops.rroi_align.bytes_gathered", "B_computed", "lower", "counter",
       "feature_ops.rroi_align.bytes"),
    _m("feature_ops.conv2d_forward.self_s", "s", "lower", "self", "feature_ops.conv2d_forward"),
    _m("feature_ops.deformable_conv2d_forward.self_s", "s", "lower", "self",
       "feature_ops.deformable_conv2d_forward"),
    _m("feature_ops.conv_flops", "flops_computed", "lower", "counter", "feature_ops.conv_flops"),
    _m("feature_ops.bilstm_forward.self_s", "s", "lower", "self", "feature_ops.bilstm_forward"),
    _m("feature_ops.bilstm_forward.flops", "flops_computed", "lower", "counter",
       "feature_ops.bilstm_flops"),
    _m("ctc.ctc_loss.self_s", "s", "lower", "self", "ctc.ctc_loss"),
    _m("ctc.ctc_loss.lattice_cells", "cells_computed", "lower", "counter", "ctc.lattice_cells"),
    _m("ctc.greedy_decode.self_s", "s", "lower", "self", "ctc.greedy_decode"),
    _m("ctc.greedy_decode.cells", "cells_computed", "lower", "counter", "ctc.decode_cells"),
    _m("ctc.decode_exact_ratio", "ratio", "higher", "ratio", "ctc.decodes_exact", "ctc.decodes"),
    _m("oracles.monte_carlo_iou.self_s", "s", "lower", "self", "oracles.monte_carlo_iou"),
    _m("oracles.monte_carlo_iou.samples", "samples_computed", "lower", "counter",
       "oracles.mc_samples"),
    _m("oracles.dense_rroi_align.self_s", "s", "lower", "self", "oracles.dense_rroi_align"),
    _m("oracles.ctc_loss_brute_force.paths", "paths_computed", "lower", "counter",
       "oracles.ctc_paths"),
    _m("trace_overhead_ratio", "ratio", "lower", "overhead"),
]

# Spans recorded once per set-up rather than once per step.
SETUP_SPANS = {"anchors.generate_anchors"}

# Each kernel the roadmap's north star names, and the per-layer metric that
# carries its computed operation or byte count.
COVERAGE = {
    "rotated_iou": "geometry.rotated_iou.overlap_candidates",
    "rotated_nms": "geometry.rotated_nms.candidates",
    "assign_targets": "anchors.assign_targets.pairs",
    "rroi_align": "feature_ops.rroi_align.bytes_gathered",
    "ctc_loss": "ctc.ctc_loss.lattice_cells",
    "greedy_decode": "ctc.greedy_decode.cells",
    "conv2d_forward": "feature_ops.conv_flops",
    "deformable_conv2d_forward": "feature_ops.conv_flops",
    "bilstm_forward": "feature_ops.bilstm_forward.flops",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _iou(c, args, kwargs, result):
    # runs on every IoU call, so it stays small: lpcore passes both boxes
    # positionally
    a, b = args
    c["geometry.rotated_iou.pairs"] += 1
    if result > 0.0:
        c["geometry.rotated_iou.nonzero"] += 1
    reach = 0.5 * (math.hypot(a.w, a.h) + math.hypot(b.w, b.h))
    if math.hypot(a.cx - b.cx, a.cy - b.cy) < reach:
        c["geometry.rotated_iou.overlap_candidates"] += 1


def _iou_spotting(c, args, kwargs, result):
    _iou(c, args, kwargs, result)
    c["spotting.pairs"] += 1


def _nms(c, args, kwargs, result):
    c["geometry.rotated_nms.candidates"] += len(_arg(args, kwargs, 0, "boxes"))
    c["geometry.rotated_nms.kept"] += len(result)


def _assign(c, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "grid").anchors)
    c["anchors.assign_targets.pairs"] += n * len(_arg(args, kwargs, 1, "gts"))
    c["anchors.assign_targets.anchors"] += n
    c["anchors.assign_targets.positives"] += int(np.count_nonzero(result.positive_mask))


def _focal(c, args, kwargs, result):
    labels = _arg(args, kwargs, 1, "labels")
    c["losses.focal_evals"] += len(labels) - sum(1 for lab in labels if lab == -1)


def _rroi(c, args, kwargs, result):
    fm = _arg(args, kwargs, 0, "fm")
    spec = _arg(args, kwargs, 2, "spec")
    r = spec.sampling_ratio if spec is not None else 2
    samples = result.data.shape[1] * result.data.shape[2] * r * r
    # four float64 corner reads per sample and channel
    c["feature_ops.rroi_align.bytes"] += fm.channels * samples * 4 * 8


def _conv(c, args, kwargs, result):
    out_c, oh, ow = result.data.shape
    _, in_c, k, _ = np.shape(_arg(args, kwargs, 1, "weights"))
    c["feature_ops.conv_flops"] += 2 * out_c * in_c * k * k * oh * ow


def _bilstm(c, args, kwargs, result):
    t_len, d = np.shape(_arg(args, kwargs, 0, "seq"))
    h = _arg(args, kwargs, 1, "params").forward.hidden_size
    c["feature_ops.bilstm_flops"] += 2 * t_len * 2 * 4 * h * (d + h)


def _ctc(c, args, kwargs, result):
    t_len = np.shape(_arg(args, kwargs, 0, "logp"))[0]
    c["ctc.lattice_cells"] += t_len * (2 * len(_arg(args, kwargs, 1, "target")) + 1)


def _decode(c, args, kwargs, result):
    t_len, k = np.shape(_arg(args, kwargs, 0, "logp"))
    c["ctc.decode_cells"] += t_len * k


def _mc(c, args, kwargs, result):
    c["oracles.mc_samples"] += _arg(args, kwargs, 2, "samples", 1_000_000)


def _paths(c, args, kwargs, result):
    t_len, k = np.shape(_arg(args, kwargs, 0, "logp"))
    c["oracles.ctc_paths"] += k**t_len


def patch_lpcore(tracer, file_sizes: dict) -> None:
    """Wrap every traced binding; ``file_sizes`` maps a path to (lines, bytes)."""

    def parsed(c, args, kwargs, result):
        lines, size = file_sizes.get(str(_arg(args, kwargs, 0, "path")), (0, 0))
        c["dataio.lines"] += lines
        c["dataio.bytes"] += size

    bindings = [  # (module, attribute, span name, counter callback)
        ("cli", "cmd_evaluate", "cli.cmd_evaluate", None),
        ("dataio", "parse_predictions", "dataio.parse_predictions", parsed),
        ("cli", "match_records", "spotting.match_records", None),
        ("cli", "aggregate", "spotting.aggregate", None),
        ("spotting", "rotated_iou", "geometry.rotated_iou", _iou_spotting),
        ("anchors", "rotated_iou", "geometry.rotated_iou", _iou),
        ("geometry", "rotated_iou", "geometry.rotated_iou", _iou),
        ("geometry", "rotated_nms", "geometry.rotated_nms", _nms),
        ("anchors", "generate_anchors", "anchors.generate_anchors", None),
        ("anchors", "assign_targets", "anchors.assign_targets", _assign),
        ("anchors", "encode_delta", "anchors.encode_delta", None),
        ("anchors", "decode_delta", "anchors.decode_delta", None),
        ("losses", "anchor_classification_loss", "losses.anchor_classification_loss", _focal),
        ("losses", "anchor_localization_loss", "losses.anchor_localization_loss", None),
        ("losses", "refinement_loss", "losses.refinement_loss", None),
        ("losses", "detection_loss", "losses.detection_loss", None),
        ("losses", "end_to_end_loss", "losses.end_to_end_loss", None),
        ("feature_ops", "training_crop_boxes", "feature_ops.training_crop_boxes", None),
        ("feature_ops", "rroi_align", "feature_ops.rroi_align", _rroi),
        ("feature_ops", "conv2d_forward", "feature_ops.conv2d_forward", _conv),
        ("feature_ops", "deformable_conv2d_forward", "feature_ops.deformable_conv2d_forward",
         _conv),
        ("feature_ops", "bilstm_forward", "feature_ops.bilstm_forward", _bilstm),
        ("ctc", "ctc_loss", "ctc.ctc_loss", _ctc),
        ("ctc", "greedy_decode", "ctc.greedy_decode", _decode),
        ("oracles", "monte_carlo_iou", "oracles.monte_carlo_iou", _mc),
        ("oracles", "dense_rroi_align", "oracles.dense_rroi_align", None),
        ("oracles", "ctc_loss_brute_force", "oracles.ctc_loss_brute_force", _paths),
        ("oracles", "central_difference", "oracles.central_difference", None),
    ]
    for module, attribute, name, on_call in bindings:
        tracer.patch(importlib.import_module(f"lpcore.{module}"), attribute, name, on_call)


def values(names: list[str], spans: dict, self_s: np.ndarray, counters: dict,
           steps: int, overhead: float) -> dict[str, float]:
    """Every per-layer metric of a traced run, per traced step."""
    self_by = dict(zip(names, np.bincount(spans["name"], weights=self_s, minlength=len(names))))
    calls_by = dict(zip(names, np.bincount(spans["name"], minlength=len(names))))
    per = 1.0 / max(1, steps)
    out: dict[str, float] = {}
    for m in PER_LAYER:
        if m.kind == "self":
            out[m.name] = sum(float(self_by.get(s, 0.0)) * (1.0 if s in SETUP_SPANS else per)
                              for s in m.source)
        elif m.kind == "calls":
            out[m.name] = sum(int(calls_by.get(s, 0)) for s in m.source) * per
        elif m.kind == "counter":
            out[m.name] = counters.get(m.source[0], 0.0) * per
        elif m.kind == "ratio":
            den = counters.get(m.source[1], 0.0)
            out[m.name] = counters.get(m.source[0], 0.0) / den if den else 0.0
        else:
            out[m.name] = overhead
    return out

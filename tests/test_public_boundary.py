"""Every public function refuses an argument of the wrong type with ParameterError naming it."""

import numpy as np
import pytest

from isoslice import (
    Axis,
    FlowField,
    LabelVolume,
    ParameterError,
    Slice2D,
    Spacing,
    Volume,
    assd,
    backward_warp,
    compose_intermediate_flow,
    decimate,
    dice,
    estimate_flow,
    evaluate,
    export_pgm,
    extract_slice,
    flow_magnitude_stats,
    impute_volume,
    loss_report,
    rec_loss,
    save_flow,
    save_volume,
    smooth_loss,
    surface_voxels,
    synth_intermediate_label,
    synth_intermediate_slice,
    total_loss,
    tp_smooth_loss,
    tp_smooth_slice,
    warp_loss,
)

SPACING = Spacing(1.0, 1.0, 2.0)
VOLUME = Volume(np.zeros((3, 8, 8), np.float32), SPACING)
LABELS = LabelVolume(np.zeros((3, 8, 8), np.uint8), SPACING, 2)
ARRAY3 = np.zeros((3, 8, 8))
SLICE = Slice2D(np.zeros((8, 8)))
ARRAY2 = np.zeros((8, 8))
IDS = np.zeros((8, 8), np.intp)
FLOW = FlowField.zeros((8, 8))

# (argument named in the error, call)
CALLS = {
    "impute_volume(ndarray)": ("v", lambda tmp: impute_volume(ARRAY3)),
    "impute_volume(labels={})": ("labels", lambda tmp: impute_volume(VOLUME, labels={})),
    "impute_volume(labels=ndarray)": ("labels", lambda tmp: impute_volume(VOLUME, labels=ARRAY3.astype(np.uint8))),
    "impute_volume(labels=Volume)": ("labels", lambda tmp: impute_volume(VOLUME, labels=VOLUME)),
    "tp_smooth_loss(ndarray)": ("v", lambda tmp: tp_smooth_loss(ARRAY3)),
    "tp_smooth_slice(ndarray)": ("s", lambda tmp: tp_smooth_slice(ARRAY2)),
    "evaluate(ndarray, ndarray)": ("gt", lambda tmp: evaluate(ARRAY3, ARRAY3)),
    "evaluate(LabelVolume, Volume)": ("pred", lambda tmp: evaluate(LABELS, VOLUME)),
    "dice(Volume, LabelVolume)": ("gt", lambda tmp: dice(VOLUME, LABELS, 1)),
    "dice(LabelVolume, ndarray)": ("pred", lambda tmp: dice(LABELS, ARRAY3, 1)),
    "assd(ndarray, LabelVolume)": ("gt", lambda tmp: assd(ARRAY3, LABELS, 1)),
    "assd(LabelVolume, Volume)": ("pred", lambda tmp: assd(LABELS, VOLUME, 1)),
    "surface_voxels(ndarray)": ("l", lambda tmp: surface_voxels(ARRAY3, 1)),
    "surface_voxels(Volume)": ("l", lambda tmp: surface_voxels(VOLUME, 1)),
    "estimate_flow(ndarray, Slice2D)": ("i0", lambda tmp: estimate_flow(ARRAY2, SLICE)),
    "estimate_flow(Slice2D, ndarray)": ("i1", lambda tmp: estimate_flow(SLICE, ARRAY2)),
    "backward_warp(ndarray, FlowField)": ("img", lambda tmp: backward_warp(ARRAY2, FLOW)),
    "backward_warp(Slice2D, ndarray)": ("flow", lambda tmp: backward_warp(SLICE, ARRAY2)),
    "compose_intermediate_flow(ndarray, FlowField)": ("f01", lambda tmp: compose_intermediate_flow(ARRAY2, FLOW, 0.5)),
    "compose_intermediate_flow(FlowField, ndarray)": ("f10", lambda tmp: compose_intermediate_flow(FLOW, ARRAY2, 0.5)),
    "flow_magnitude_stats(ndarray)": ("f", lambda tmp: flow_magnitude_stats(ARRAY2)),
    "smooth_loss(ndarray, FlowField)": ("f01", lambda tmp: smooth_loss(ARRAY2, FLOW)),
    "smooth_loss(FlowField, ndarray)": ("f10", lambda tmp: smooth_loss(FLOW, ARRAY2)),
    "warp_loss(ndarray, ...)": ("i0", lambda tmp: warp_loss(ARRAY2, SLICE, FLOW, FLOW)),
    "warp_loss(.., ndarray, ..)": ("iN1", lambda tmp: warp_loss(SLICE, ARRAY2, FLOW, FLOW)),
    "warp_loss(..., ndarray flow)": ("f10", lambda tmp: warp_loss(SLICE, SLICE, FLOW, ARRAY2)),
    "synth_intermediate_slice(ndarray, ...)": ("i0", lambda tmp: synth_intermediate_slice(ARRAY2, SLICE, FLOW, FLOW, 0.5)),
    "synth_intermediate_slice(..., ndarray flow)": (
        "ft1",
        lambda tmp: synth_intermediate_slice(SLICE, SLICE, FLOW, ARRAY2, 0.5),
    ),
    "synth_intermediate_label(ndarray flow, ...)": ("ft0", lambda tmp: synth_intermediate_label(IDS, IDS, ARRAY2, FLOW, 0.5)),
    "synth_intermediate_label(..., ndarray flow)": ("ft1", lambda tmp: synth_intermediate_label(IDS, IDS, FLOW, ARRAY2, 0.5)),
    "decimate(ndarray)": ("v", lambda tmp: decimate(ARRAY3)),
    "save_volume(ndarray)": ("v", lambda tmp: save_volume(ARRAY3, tmp / "out.vvol")),
    "save_flow(ndarray)": ("f", lambda tmp: save_flow(ARRAY2, tmp / "out.vflo")),
    "export_pgm(ndarray)": ("s", lambda tmp: export_pgm(ARRAY2, tmp / "out.pgm")),
    "total_loss([])": ("parts", lambda tmp: total_loss([])),
    "loss_report('x')": ("parts", lambda tmp: loss_report("x")),
    "rec_loss(None)": ("pairs", lambda tmp: rec_loss(None)),
    "extract_slice(ndarray)": ("v", lambda tmp: extract_slice(ARRAY3, Axis.AXIAL, 0)),
}


@pytest.mark.parametrize("case", list(CALLS))
def test_wrong_argument_type_is_a_parameter_error_naming_it(case, tmp_path):
    name, call = CALLS[case]
    with pytest.raises(ParameterError, match=rf"^{name} must be an? "):
        call(tmp_path)
    assert not list(tmp_path.iterdir())  # refused before any file is written


def test_array_arguments_are_named_by_type_in_one_line():
    with pytest.raises(ParameterError) as caught:
        impute_volume(VOLUME, labels=np.zeros((30, 40, 50), np.uint8))
    assert str(caught.value) == "labels must be a LabelVolume, got ndarray"
    with pytest.raises(ParameterError) as caught:
        evaluate(LABELS, VOLUME)
    assert str(caught.value) == "pred must be a LabelVolume, got Volume"


def test_tp_smooth_loss_also_takes_a_label_volume():
    ids = np.arange(27, dtype=np.uint8).reshape(3, 3, 3)
    labels = LabelVolume(ids, SPACING)
    assert tp_smooth_loss(labels) == tp_smooth_loss(Volume(ids.astype(np.float32), SPACING))

"""The layer map: which public functions the traced run wraps, per layer.

Each entry of :data:`WRAPPED` names one per-layer metric family
``<layer>.<fn>`` and the public functions it times.  A target is
``"module:qualname"``; a qualname with a dot is a method (or classmethod)
patched on its defining class, otherwise a module-level function whose
every binding site in a loaded ``repro`` module is patched.

:data:`PREDICTIONS` is the layer -> end-to-end table of the benchmark's
design (see ``README.md``): which end-to-end metric a change to each layer
metric should move, on which workload, and where the prediction is *no
change*.  It is data, not behaviour; the self-test keeps it in step with
:data:`WRAPPED`.
"""

LAYERS = ("runtime", "sim", "core", "channel", "phy", "mac", "obs")

#: metric family -> wrapped public functions (summed into one family)
WRAPPED = {
    # -- phy: the sample-level transmit/receive chain --------------------
    "phy.viterbi": ["repro.phy.coding.convolutional:ConvolutionalCode.decode"],
    "phy.conv_encode": ["repro.phy.coding.convolutional:ConvolutionalCode.encode"],
    "phy.frame_decode": ["repro.phy.frame:PhyFrameDecoder.decode"],
    "phy.frame_encode": ["repro.phy.frame:PhyFrameEncoder.encode"],
    "phy.ofdm_demod": ["repro.phy.ofdm:OfdmDemodulator.demodulate_symbol"],
    "phy.ofdm_mod": [
        "repro.phy.ofdm:OfdmModulator.modulate_grid",
        "repro.phy.ofdm:OfdmModulator.symbol_grid",
    ],
    # -- channel: propagation, fading and tap realization ----------------
    "channel.medium_rx": ["repro.channel.medium:Medium.receive"],
    "channel.medium_tx": ["repro.channel.medium:Medium.transmit"],
    "channel.realize_taps": [
        "repro.channel.models:ChannelModel.realize_taps",
        "repro.channel.models:FlatRayleighChannel.realize_taps",
        "repro.channel.models:RicianChannel.realize_taps",
        "repro.channel.models:MultipathChannel.realize_taps",
    ],
    "channel.fader": [
        "repro.channel.timevarying:JakesFader.value_at",
        "repro.channel.timevarying:GaussMarkovFader.value_at",
    ],
    "channel.taps_at": ["repro.channel.timevarying:TimeVaryingLinkChannel.taps_at"],
    # -- core: precoders, phase sync and the sample-level system ---------
    "core.zf_narrowband": ["repro.core.beamforming:zero_forcing_precoder"],
    "core.zf_wideband": ["repro.core.beamforming:zero_forcing_precoder_wideband"],
    "core.phasesync": [
        "repro.core.phasesync:PhaseSynchronizer.observe_header",
        "repro.core.phasesync:PhaseSynchronizer.correction",
    ],
    "core.joint_transmit": ["repro.core.system:MegaMimoSystem.joint_transmit"],
    "core.sounding": ["repro.core.system:MegaMimoSystem.run_sounding"],
    "core.system_create": ["repro.core.system:MegaMimoSystem.create"],
    # -- sim: figure runners, sweep kernels and fast-path physics --------
    "sim.run_fig9": ["repro.sim.experiments:run_fig9"],
    "sim.run_sinr_grid": ["repro.sim.fastsim:run_sinr_grid"],
    "sim.kernel": [
        "repro.sim.experiments:fig9_kernel",
        "repro.sim.fastsim:sinr_grid_kernel",
    ],
    "sim.channel_tensor": ["repro.sim.fastsim:build_channel_tensor"],
    "sim.screening": ["repro.sim.experiments:draw_screened_channels"],
    "sim.zf_penalty": ["repro.sim.experiments:zf_penalty_db"],
    "sim.joint_zf_sinr": ["repro.sim.fastsim:joint_zf_sinr_db"],
    # -- mac: the link-layer simulator -----------------------------------
    "mac.simulate": ["repro.mac.simulator:DownlinkSimulator.run"],
    "mac.rate_select": [
        "repro.mac.rate:EffectiveSnrRateSelector.select",
        "repro.mac.rate:EffectiveSnrRateSelector.goodput_batch",
    ],
    "mac.queue_remove": ["repro.mac.queue:DownlinkQueue.remove"],
    "mac.scheduler": ["repro.mac.scheduler:JointScheduler.next_group"],
    # -- runtime: the sweep engine ---------------------------------------
    "runtime.sweep": ["repro.runtime.engine:run_sweep"],
    "runtime.chunk": ["repro.runtime.engine:run_chunk_instrumented"],
    # -- obs: telemetry writes on the hot paths --------------------------
    "obs.span": ["repro.obs.tracer:Tracer.span"],
    "obs.record": [
        "repro.obs.metrics:Counter.inc",
        "repro.obs.metrics:Gauge.set",
        "repro.obs.metrics:Histogram.observe",
        "repro.obs.timeseries:Series.record",
        "repro.obs.flightrec:FlightRecorder.record",
    ],
}

#: per-layer counts read from the program's public metrics registry
MAC_COUNTERS = {
    "mac.deliveries": "mac.deliveries",
    "mac.stream_failures": "mac.stream_failures",
    "mac.soundings": "mac.soundings",
    "mac.arq.retries": "mac.arq.retries",
}

#: runtime attribution read from ``drain_overheads()`` and the registry
RUNTIME_METRICS = (
    "runtime.compute_s", "runtime.dispatch_s", "runtime.serialization_s",
    "runtime.idle_s", "runtime.utilization", "runtime.chunks",
    "runtime.chunk_retries", "runtime.watchdog_stalls",
)

_PHY_ROW = ("ref_ops_per_s on phy_joint_tx",
            "fig9_sweep, mac_downlink, grid_pool")
_SWEEP_ROW = ("ref_ops_per_s on fig9_sweep", "phy_joint_tx")
_MAC_ROW = ("ref_ops_per_s on mac_downlink", "phy_joint_tx, grid_pool")

#: metric family -> (should move, predicted flat on)
PREDICTIONS = {
    **{name: _PHY_ROW for name in (
        "phy.viterbi", "phy.conv_encode", "phy.frame_decode",
        "phy.frame_encode", "phy.ofdm_demod", "phy.ofdm_mod",
        "channel.medium_rx", "channel.medium_tx", "core.zf_narrowband",
        "core.phasesync", "core.joint_transmit", "core.sounding",
        "core.system_create",
    )},
    **{name: _SWEEP_ROW for name in (
        "core.zf_wideband", "sim.run_fig9", "sim.kernel", "sim.channel_tensor",
        "sim.screening", "sim.zf_penalty", "channel.realize_taps",
        "mac.rate_select",
    )},
    **{name: _MAC_ROW for name in (
        "sim.joint_zf_sinr", "channel.fader", "channel.taps_at",
        "mac.simulate", "mac.queue_remove", "mac.scheduler",
        *MAC_COUNTERS, "mac.delivery_ratio",
    )},
    **{name: ("ref_ops_per_s on grid_pool", "fig9_sweep (dispatch share stays ~0)")
       for name in ("sim.run_sinr_grid", "runtime.sweep", "runtime.chunk",
                    *RUNTIME_METRICS)},
    "obs.span": ("ref_ops_per_s on mac_downlink (per-packet phase_sync span)",
                 "fig9_sweep"),
    "obs.record": ("ref_ops_per_s on mac_downlink", "fig9_sweep"),
}


def layer_of(name: str) -> str:
    """The layer a metric family belongs to (its first dotted component)."""
    return name.split(".", 1)[0]

// Umbrella header: the public API of the IVN reproduction in one include.
//
//   #include "ivnet/ivnet.hpp"
//
// Pulls in every module a downstream application typically touches; include
// individual headers instead when compile time matters.
#pragma once

// Foundations.
#include "ivnet/common/json.hpp"
#include "ivnet/common/rng.hpp"
#include "ivnet/common/stats.hpp"
#include "ivnet/common/units.hpp"

// Observability: metrics registry, structured tracer, sink facade.
#include "ivnet/obs/metrics.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/obs/trace.hpp"

// Signals and media.
#include "ivnet/media/layered.hpp"
#include "ivnet/media/medium.hpp"
#include "ivnet/signal/correlate.hpp"
#include "ivnet/signal/envelope.hpp"
#include "ivnet/signal/fir.hpp"
#include "ivnet/signal/goertzel.hpp"
#include "ivnet/signal/iq.hpp"
#include "ivnet/signal/noise.hpp"
#include "ivnet/signal/resampler.hpp"
#include "ivnet/signal/waveform.hpp"

// RF and energy harvesting.
#include "ivnet/harvester/diode.hpp"
#include "ivnet/harvester/energy.hpp"
#include "ivnet/harvester/harvester.hpp"
#include "ivnet/harvester/rectifier.hpp"
#include "ivnet/harvester/transient.hpp"
#include "ivnet/rf/antenna.hpp"
#include "ivnet/rf/channel.hpp"
#include "ivnet/rf/propagation.hpp"
#include "ivnet/rf/sounding.hpp"

// Protocol.
#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/crc.hpp"
#include "ivnet/gen2/fm0.hpp"
#include "ivnet/gen2/link_timing.hpp"
#include "ivnet/gen2/memory.hpp"
#include "ivnet/gen2/miller.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/gen2/tag_sm.hpp"

// Impairments and recovery.
#include "ivnet/impair/impairment.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/impair/recovery.hpp"
#include "ivnet/impair/waterfall.hpp"

// Radios, tags, readers.
#include "ivnet/reader/inventory.hpp"
#include "ivnet/reader/oob_reader.hpp"
#include "ivnet/sdr/clock.hpp"
#include "ivnet/sdr/pa.hpp"
#include "ivnet/sdr/pll.hpp"
#include "ivnet/sdr/radio.hpp"
#include "ivnet/sdr/rx_chain.hpp"
#include "ivnet/tag/actuator.hpp"
#include "ivnet/tag/sensor.hpp"
#include "ivnet/tag/tag_device.hpp"

// The CIB core.
#include "ivnet/cib/baseline.hpp"
#include "ivnet/cib/frequency_plan.hpp"
#include "ivnet/cib/hopping.hpp"
#include "ivnet/cib/objective.hpp"
#include "ivnet/cib/optimizer.hpp"
#include "ivnet/cib/scheduler.hpp"
#include "ivnet/cib/transmitter.hpp"
#include "ivnet/cib/two_stage.hpp"

// Experiments and deployment.
#include "ivnet/sim/calibration.hpp"
#include "ivnet/sim/experiment.hpp"
#include "ivnet/sim/mobility.hpp"
#include "ivnet/sim/planner.hpp"
#include "ivnet/sim/safety.hpp"
#include "ivnet/sim/scenario.hpp"
#include "ivnet/sim/waveform_session.hpp"

// Records a packet-lifecycle trace stream (obs/trace.h) into a telemetry
// plane through one Writer at shard 0, with the ids the rt engine writes, so
// the simulator reports through the same metrics model
// (docs/OBSERVABILITY.md):
//
//   enqueue  -> rt.accepted, rt.backlog_packets
//   dequeue  -> rt.backlog_packets, sched.vtime, sched.vtime_lag
//   tx_end   -> rt.transmitted, rt.tx_bits, rt.queue_delay (t - arrival)
//   drop     -> sched.drops.<cause>
//   vtime    -> sched.vtime, sched.vtime_lag
//
// tag events only raise the max finish tag that vtime_lag measures against.
// The plane has no flow dimension: per-flow results stay in
// config::ExperimentResult::flows, per-packet data in the JSONL trace.
#pragma once

#include "obs/telemetry/telemetry.h"
#include "obs/trace.h"

namespace sfq::obs::telemetry {

class TraceSink final : public obs::TraceSink {
 public:
  explicit TraceSink(Telemetry& plane)
      : plane_(plane), writer_(plane.writer(0)) {}

  void on_event(const TraceEvent& e) override;

 private:
  void set_vtime(VirtualTime v);

  Telemetry& plane_;
  Telemetry::Writer writer_;
  VirtualTime max_finish_tag_ = 0.0;
};

}  // namespace sfq::obs::telemetry

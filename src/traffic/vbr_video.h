#pragma once

#include <random>
#include <string>
#include <vector>

#include "traffic/sources.h"

namespace sfq::traffic {

// Synthetic MPEG VBR video source (substitute for the paper's digitized
// "Frasier" trace — see DESIGN.md substitutions).
//
// Frames arrive on a fixed clock (default 30 fps) following a GoP pattern
// (default IBBPBBPBBPBB). Frame sizes are lognormal with per-type means in
// the classic MPEG-1 ratio I:P:B ~ 5:2:1, scaled so the long-run average
// matches `average_rate`. Each frame is packetized into `packet_bits` units
// emitted back-to-back at the frame instant, giving the bursty,
// multi-time-scale load the experiment needs.
class MpegVbrSource final : public Source {
 public:
  struct Params {
    double average_rate = 1.21e6;   // bits/s, matches the paper's clip
    double packet_bits = 400.0;     // 50-byte packets
    double fps = 30.0;
    std::string gop = "IBBPBBPBBPBB";
    double sigma_log = 0.3;         // lognormal shape (size variability)
    uint64_t seed = 42;
  };

  MpegVbrSource(sim::Simulator& sim, FlowId flow, EmitFn emit,
                const Params& params);

  // Mean size (bits) of a frame of the given type after calibration.
  double mean_frame_bits(char type) const;

 protected:
  Time next_emission(Time now, double& bits_out) override;
  Time first_emission(Time at, double& bits_out) override;

 private:
  double draw_frame_bits(char type);
  void packetize(double frame_bits);

  Params p_;
  SplitMix64 rng_;
  std::normal_distribution<double> gauss_;
  double i_mean_ = 0.0;  // calibrated mean I-frame size (bits)
  std::size_t gop_pos_ = 0;
  Time next_frame_ = 0.0;
  std::vector<double> pending_;   // packets of the current frame (bits)
  std::size_t pending_pos_ = 0;
};

}  // namespace sfq::traffic

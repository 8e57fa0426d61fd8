// Statistics the benchmark reports, kept apart from the workloads so the
// unit tests can pin them down: the tail-percentile rule, the failure
// fraction, byte conservation, and the simulated-output digest.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "metrics/request_metrics.hpp"

namespace perfbench {

/// Percentiles a tail may be reported at, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// tapesim::SampleSet::percentile of `values`: linear interpolation, p in
/// [0, 100], 0 when empty.
[[nodiscard]] double percentile(const std::vector<double>& values, double p);

/// Samples strictly greater than the `p`-th percentile of `values`.
[[nodiscard]] std::size_t count_beyond(const std::vector<double>& values,
                                       double p);

/// Highest ladder percentile with at least kTailBeyond samples strictly
/// beyond it; 0 when even the median has too few (fewer than ~20 samples).
[[nodiscard]] double tail_percentile(const std::vector<double>& values);

/// True when the outcome delivered every requested byte.
[[nodiscard]] bool fully_served(const tapesim::metrics::RequestOutcome& o);

/// Requests not fully served (unavailable, partial, deadline-expired or
/// shed) over requests attempted; 0 for an empty set.
[[nodiscard]] double failed_fraction(
    std::span<const tapesim::metrics::RequestOutcome> outcomes);

/// Bytes delivered; 0 for a shed request (which never ran).
[[nodiscard]] std::uint64_t served_bytes(
    const tapesim::metrics::RequestOutcome& o);

/// Byte conservation of one outcome: served + unavailable + expired ==
/// requested with no underflow, and the status agrees with the bytes.
[[nodiscard]] bool bytes_conserved(const tapesim::metrics::RequestOutcome& o);

/// FNV-1a digest over every outcome's status, response bits and bytes
/// served, in order. Any change to the model's output changes it; a pure
/// speed-up leaves it bit-identical.
class Digest {
 public:
  void add(const tapesim::metrics::RequestOutcome& o, double response_s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t word);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench

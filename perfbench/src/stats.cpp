#include "stats.hpp"

#include <algorithm>
#include <bit>

#include "util/stats.hpp"

namespace perfbench {

using tapesim::metrics::RequestOutcome;
using tapesim::metrics::RequestStatus;

double percentile(const std::vector<double>& values, double p) {
  tapesim::SampleSet set;
  set.reserve(values.size());
  for (const double v : values) set.add(v);
  return set.percentile(p);
}

std::size_t count_beyond(const std::vector<double>& values, double p) {
  const double cut = percentile(values, p);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

double tail_percentile(const std::vector<double>& values) {
  for (const double p : kTailLadder) {
    if (count_beyond(values, p) >= kTailBeyond) return p;
  }
  return 0.0;
}

bool fully_served(const RequestOutcome& o) {
  return o.status == RequestStatus::kServed;
}

double failed_fraction(std::span<const RequestOutcome> outcomes) {
  if (outcomes.empty()) return 0.0;
  const auto failed = std::count_if(
      outcomes.begin(), outcomes.end(),
      [](const RequestOutcome& o) { return !fully_served(o); });
  return static_cast<double>(failed) / static_cast<double>(outcomes.size());
}

std::uint64_t served_bytes(const RequestOutcome& o) {
  return o.status == RequestStatus::kShed ? 0 : o.bytes_served().count();
}

bool bytes_conserved(const RequestOutcome& o) {
  const std::uint64_t requested = o.bytes.count();
  // A shed request never ran: every byte is refused, none is accounted
  // unavailable or expired (RequestOutcome has no shed-bytes field).
  if (o.status == RequestStatus::kShed) {
    return o.bytes_unavailable.count() == 0 && o.bytes_expired.count() == 0;
  }
  const std::uint64_t lost = o.bytes_unavailable.count();
  const std::uint64_t expired = o.bytes_expired.count();
  if (lost > requested || expired > requested - lost) return false;
  const std::uint64_t served = served_bytes(o);
  if (served + lost + expired != requested) return false;
  switch (o.status) {
    case RequestStatus::kServed: return served == requested;
    case RequestStatus::kPartial: return served > 0 && lost > 0;
    case RequestStatus::kUnavailable: return lost == requested;
    case RequestStatus::kDeadlineExpired: return served < requested;
    case RequestStatus::kShed: break;
  }
  return false;
}

void Digest::mix(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const RequestOutcome& o, double response_s) {
  mix(static_cast<std::uint64_t>(o.status));
  mix(std::bit_cast<std::uint64_t>(response_s));
  mix(served_bytes(o));
}

}  // namespace perfbench

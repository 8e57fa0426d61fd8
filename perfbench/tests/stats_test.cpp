// Unit tests of the benchmark's own statistics (perfbench/src/stats.*).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

using tapesim::Bytes;
using tapesim::Seconds;
using tapesim::metrics::RequestOutcome;
using tapesim::metrics::RequestStatus;

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

RequestOutcome outcome(RequestStatus status, std::uint64_t requested,
                       std::uint64_t unavailable = 0,
                       std::uint64_t expired = 0, double response = 1.0) {
  RequestOutcome o;
  o.status = status;
  o.bytes = Bytes{requested};
  o.bytes_unavailable = Bytes{unavailable};
  o.bytes_expired = Bytes{expired};
  o.response = Seconds{response};
  return o;
}

TEST(TailPercentile, PicksHighestLadderStepWithTenBeyond) {
  // 1000 samples: p99 leaves exactly 10 above it (991..1000 > 990.01).
  EXPECT_EQ(tail_percentile(iota(1000)), 99.0);
  // 901 samples: p99 sits at 892 with only 9 beyond, so the rule falls
  // back to p95; one more sample lifts it to p99.
  EXPECT_EQ(tail_percentile(iota(901)), 95.0);
  EXPECT_EQ(tail_percentile(iota(902)), 99.0);
  // 10000 samples reach p99.9.
  EXPECT_EQ(tail_percentile(iota(10000)), 99.9);
  // 100 samples: p90 leaves 10 beyond.
  EXPECT_EQ(tail_percentile(iota(100)), 90.0);
}

TEST(TailPercentile, TooFewSamplesReportsZero) {
  EXPECT_EQ(tail_percentile(iota(15)), 0.0);
  EXPECT_EQ(tail_percentile({}), 0.0);
}

TEST(TailPercentile, TiesAtTheCutAreNotBeyond) {
  // 100 equal samples: nothing lies strictly beyond any percentile.
  const std::vector<double> flat(100, 5.0);
  EXPECT_EQ(count_beyond(flat, 50.0), 0u);
  EXPECT_EQ(tail_percentile(flat), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({7}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 25.0), 2.0);
}

TEST(FailedFraction, CountsShedExpiredUnavailableAndPartial) {
  const std::vector<RequestOutcome> outcomes = {
      outcome(RequestStatus::kServed, 100),
      outcome(RequestStatus::kShed, 100),
      outcome(RequestStatus::kDeadlineExpired, 100, 0, 40),
      outcome(RequestStatus::kUnavailable, 100, 100),
      outcome(RequestStatus::kPartial, 100, 30),
      outcome(RequestStatus::kServed, 100),
      outcome(RequestStatus::kServed, 100),
      outcome(RequestStatus::kServed, 100),
  };
  EXPECT_DOUBLE_EQ(failed_fraction(outcomes), 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(failed_fraction({}), 0.0);
}

TEST(BytesConserved, AcceptsEveryConsistentStatus) {
  EXPECT_TRUE(bytes_conserved(outcome(RequestStatus::kServed, 100)));
  EXPECT_TRUE(bytes_conserved(outcome(RequestStatus::kPartial, 100, 30)));
  EXPECT_TRUE(
      bytes_conserved(outcome(RequestStatus::kUnavailable, 100, 100)));
  EXPECT_TRUE(bytes_conserved(
      outcome(RequestStatus::kDeadlineExpired, 100, 10, 40)));
  EXPECT_TRUE(bytes_conserved(outcome(RequestStatus::kShed, 100)));
  EXPECT_EQ(served_bytes(outcome(RequestStatus::kShed, 100)), 0u);
}

TEST(BytesConserved, RejectsOverAccountingAndStatusMismatch) {
  // More unavailable + expired than requested would underflow "served".
  EXPECT_FALSE(bytes_conserved(
      outcome(RequestStatus::kDeadlineExpired, 100, 70, 40)));
  EXPECT_FALSE(bytes_conserved(outcome(RequestStatus::kServed, 100, 1)));
  EXPECT_FALSE(
      bytes_conserved(outcome(RequestStatus::kUnavailable, 100, 50)));
  EXPECT_FALSE(bytes_conserved(outcome(RequestStatus::kShed, 100, 0, 5)));
}

TEST(Digest, StableForIdenticalOutputs) {
  Digest a, b;
  for (int i = 0; i < 3; ++i) {
    a.add(outcome(RequestStatus::kServed, 100), 12.5);
    b.add(outcome(RequestStatus::kServed, 100), 12.5);
  }
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), Digest{}.value());
}

TEST(Digest, SensitiveToStatusResponseBitsBytesAndOrder) {
  const auto digest_of = [](std::vector<std::pair<RequestOutcome, double>> v) {
    Digest d;
    for (const auto& [o, r] : v) d.add(o, r);
    return d.value();
  };
  const RequestOutcome served = outcome(RequestStatus::kServed, 100);
  const RequestOutcome partial = outcome(RequestStatus::kPartial, 100, 30);
  const std::uint64_t base = digest_of({{served, 12.5}, {partial, 3.0}});
  // One ulp of one response changes the digest.
  EXPECT_NE(base, digest_of({{served, std::nextafter(12.5, 13.0)},
                             {partial, 3.0}}));
  // So does the status, the bytes served, and the order of outcomes.
  EXPECT_NE(base, digest_of({{outcome(RequestStatus::kUnavailable, 100, 100),
                              12.5},
                             {partial, 3.0}}));
  EXPECT_NE(base, digest_of({{served, 12.5},
                             {outcome(RequestStatus::kPartial, 100, 31),
                              3.0}}));
  EXPECT_NE(base, digest_of({{partial, 3.0}, {served, 12.5}}));
}

}  // namespace
}  // namespace perfbench

// The benchmark's three workloads. Each one drives the simulator only
// through its public API (workload, cluster, core, sched, sim), times every
// layer call from outside, and collects the modelled outcomes plus the
// layer counters its public accessors expose.
//
//   paper_figs     closed loop, one request at a time, faults off: a subset
//                  of the Fig 5-9 sweep cells, three placement schemes each.
//   repair_outage  closed loop on 2-way-replicated object sets: media
//                  faults, background repair and a group-commit catalog
//                  journal with metadata crashes on one simulator,
//                  transient library outages on another (site disasters
//                  are left out: see perfbench/README.md).
//   flash_crowd    open loop: MMPP storm arrivals in simulated time above
//                  capacity, deadlines, priority shedding, a fault burst and
//                  the full recovery governor.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/request_metrics.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

/// One finished request as the benchmark scores it. `latency_s` is the
/// response time for closed loops and the sojourn from the due arrival
/// time for the open loop.
struct Sample {
  tapesim::metrics::RequestOutcome outcome;
  double latency_s = 0.0;
};

/// One value of a committed figure CSV this pass reproduces.
struct FigureValue {
  std::string file;
  std::string row;     ///< first-column key
  std::string column;  ///< header name
  double value = 0.0;
};

/// The layer calls the benchmark times, in pipeline order.
enum class Layer : std::uint8_t {
  kGenerate,  ///< workload::generate_workload
  kArrivals,  ///< workload::storm_arrivals
  kCluster,   ///< cluster::cluster_by_requests
  kPlace,     ///< core::PlacementScheme::place
  kBuild,     ///< sched::RetrievalSimulator construction
  kServe,     ///< run_request / OverloadRunner::run
  kDrain,     ///< RetrievalSimulator::drain_repairs
};

[[nodiscard]] constexpr bool is_setup(Layer l) { return l < Layer::kServe; }

/// Spans a traced pass opens around each run of consecutive setup calls
/// and of consecutive simulate calls. They are timed on their own, so the
/// layer spans inside them can be checked to account for them.
inline constexpr const char* kSetupPhase = "phase.setup";
inline constexpr const char* kSimulatePhase = "phase.simulate";

/// Host time of one layer call.
struct Lap {
  Layer layer = Layer::kGenerate;
  double s = 0.0;
  std::uint32_t requests = 0;  ///< requests a serve call simulated
};

/// Everything one pass over a workload produced.
struct Round {
  // --- host time: every layer call, in call order ---
  std::vector<Lap> laps;
  double wall_s = 0.0;  ///< the whole pass, set by the caller

  void lap(Layer layer, double s, std::uint32_t requests = 0) {
    laps.push_back({layer, s, requests});
  }

  // --- modelled output (deterministic for a seed) ---
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;  ///< requests issued to the simulator
  std::uint64_t events = 0;     ///< engine events dispatched
  /// Layer counters by per-layer metric name, summed over the cells
  /// (names starting with '_' are denominators of derived ratios).
  std::map<std::string, double> counts;
  std::vector<double> queue_waits;  ///< simulated s, requests that ran
  std::vector<FigureValue> figures;  ///< paper_figs only

  // --- observability of the traced pass ---
  std::uint64_t tracer_spans = 0;
  /// Self-check failures; a round with any is not a result.
  std::vector<std::string> failures;

  void fail(std::string what) { failures.push_back(std::move(what)); }
};

/// Options of one pass.
struct RunOptions {
  std::uint64_t seed = 42;
  /// When set, every layer call is spanned and an obs::Tracer rides on
  /// each simulator.
  Recorder* recorder = nullptr;
  /// When non-empty (traced pass only), the obs::Tracer spans of every
  /// simulator are written under this path prefix.
  std::string tracer_out;
};

struct WorkloadSpec {
  const char* name;
  /// Fixed tail percentile reported as sim_resp_tail_s; each run checks
  /// that at least kTailBeyond served samples lie beyond it.
  double tail_percentile;
  Round (*run)(const RunOptions&);
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Seed whose paper_figs output must reproduce the committed figure CSVs.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// paper_figs cross-check at the default seed: every figure value a pass
/// produced must equal its cell in `reference_dir` (the repo's
/// results/fig*.csv) at the CSV's printed precision. Returns the
/// mismatches; `checked` receives the number of values compared.
[[nodiscard]] std::vector<std::string> cross_check_figures(
    const std::vector<FigureValue>& values, const std::string& reference_dir,
    std::size_t* checked);

}  // namespace perfbench
